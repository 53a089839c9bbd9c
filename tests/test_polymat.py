import importlib

import numpy as np
import pytest

from shellsym.polymat import poly_coefficients


@pytest.mark.parametrize("shape", [(1, 3), (3, 3), (4, 3)])
@pytest.mark.parametrize("degree", range(5))
def test_poly_coefficients_recovers_random_stacks(rng, degree, shape):
    want = rng.normal(size=(degree + 1, *shape)) + 1j * rng.normal(size=(degree + 1, *shape))
    calls = []

    def evaluate(zs):
        calls.append(zs)
        powers = zs[:, None] ** np.arange(degree + 1)
        return np.einsum("sj,jrc->src", powers, want)

    got = poly_coefficients(evaluate, degree)
    assert len(calls) == 1
    assert got.shape == want.shape
    assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


# perfbench/run.py and perfbench/tracing.py import these modules by name, so
# deleting or renaming one stops every benchmark run
@pytest.mark.parametrize("layer", ["cli", "symbols", "polymat", "layers", "reduced", "geometry"])
def test_benchmark_layer_modules_import(layer):
    importlib.import_module(f"shellsym.{layer}")
