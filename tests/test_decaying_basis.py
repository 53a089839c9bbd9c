"""Accuracy oracle for the decaying half-space basis: the subspace found from
the kernel of the pencil's factor product against a row-equilibrated ordered
QZ of the same block-companion pencil."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import ordqz

from shellsym.geometry import ElasticityTensor, frozen_point
from shellsym.polymat import poly_coefficients
from shellsym.symbols import INFINITE_RTOL, builtin_system, decaying_solution_basis

SYSTEMS = ("rigidity", "membrane_tension", "membrane", "koiter")
GAP_TOL = 1e-11


def _reference_basis(system, pt, s):
    # each equation row of the A_i is divided by the power of two nearest its
    # largest entry, which leaves the roots and the solutions as they are;
    # QZ then orders the finite upper half-plane eigenvalues first
    n, deg, m = system.n_unknowns, system.max_entry_degree, system.half_order
    coeffs = poly_coefficients(lambda z: system.symbol_gen(pt, (s, z)), deg)
    top = np.abs(coeffs).max(axis=(0, 2))
    coeffs = coeffs / np.exp2(np.round(np.log2(top)))[:, None]
    size = n * deg
    lhs = np.eye(size, k=n, dtype=complex)
    lhs[-n:] = -coeffs[:deg].transpose(1, 0, 2).reshape(n, size)
    rhs = np.eye(size, dtype=complex)
    rhs[-n:, -n:] = coeffs[deg]

    def decaying(alpha, beta):
        finite = np.abs(beta) > INFINITE_RTOL * np.abs(alpha)
        return finite & ((alpha * beta.conj()).imag > 0)

    *_, alpha, beta, _, z = ordqz(lhs, rhs, sort=decaying, output="complex")
    assert np.count_nonzero(decaying(alpha, beta)) == m
    return z[:, :m]


def _gap(system, pt, s):
    # ||B - Z Z^H B||_2: the sine of the largest principal angle between the
    # two orthonormal bases
    basis = decaying_solution_basis(system, pt, s).basis
    ref = _reference_basis(system, pt, s)
    assert basis.shape == ref.shape
    assert np.allclose(basis.conj().T @ basis, np.eye(basis.shape[1]), atol=1e-13)
    return np.linalg.norm(basis - ref @ (ref.conj().T @ basis), 2)


def _spd(entries):
    w = np.reshape(entries, (3, 3))
    return w.T @ w + 0.3 * np.eye(3)


_SPD = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(_spd)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(name=st.sampled_from(SYSTEMS),
       b_diag=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
       b_tilt=st.floats(-0.8, 0.8),
       membrane=_SPD, bending=_SPD,
       log_eps=st.floats(-8.0, -1.0), sign=st.sampled_from((1.0, -1.0)))
def test_decaying_basis_matches_equilibrated_qz(name, b_diag, b_tilt, membrane,
                                                bending, log_eps, sign):
    b11, b22 = b_diag
    pt = frozen_point(b11, b_tilt * np.sqrt(b11 * b22), b22)
    system = builtin_system(name, pt, ElasticityTensor.from_matrices(membrane, bending),
                            10.0 ** log_eps)
    assert _gap(system, pt, sign) < GAP_TOL


@pytest.mark.parametrize("eps", [1e-2, 1e-5, 1e-8])
@pytest.mark.parametrize("name", SYSTEMS)
def test_decaying_basis_round_point_double_roots(name, eps):
    # at b = (1, 0, 1) the membrane roots +-i are double
    pt = frozen_point(1.0, 0.0, 1.0)
    system = builtin_system(name, pt, ElasticityTensor.identity(), eps)
    for s in (1.0, -1.0):
        assert _gap(system, pt, s) < GAP_TOL
