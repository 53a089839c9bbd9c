"""Symbol-level toolkit for sensitive singular perturbations of elliptic shells.

Subpackages:

* :mod:`shellsym.geometry` -- chart data, strain measures, energy forms and
  the surface-ellipticity predicate;
* :mod:`shellsym.symbols`  -- Douglis-Nirenberg systems from closed-form
  symbol coefficients, ellipticity and Shapiro-Lopatinskii checks;
* :mod:`shellsym.polymat`  -- polynomial coefficients from one call on the
  roots of unity (the determinant polynomial of a symbol);
* :mod:`shellsym.layers`   -- fixed-edge boundary-layer modes, which read
  their strain pencil and membrane symbol from :mod:`shellsym.symbols`, and
  the boundary energy coefficients;
* :mod:`shellsym.reduced`  -- spectral solver for the reduced problem
  ``(A + eps^2 B) v = F`` on the circle;
* :mod:`shellsym.cli`      -- configuration-driven command line front end,
  which exits 3 on a :class:`NumericalError`, the base of numerical failures.

The names in ``__all__`` are loaded on first access (PEP 562), so importing
the package, or one submodule such as ``shellsym.cli``, compiles no module
that is not read.  ``_read_only`` makes every read-only array of the package.
"""

import importlib


class NumericalError(ValueError):
    """Base of the errors that the command line reports as a numerical failure."""


def _read_only(*arrays) -> tuple:
    """``arrays``, made read-only: a cached constant or a shared sample cannot be written."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


# each exported name and the submodule that defines it
_EXPORTS = {
    "DisplacementField": "geometry", "ElasticityTensor": "geometry",
    "MetricData": "geometry", "MetricField": "geometry",
    "curvature_change_tensor": "geometry", "energy_forms": "geometry",
    "frozen_chart": "geometry", "frozen_point": "geometry",
    "sphere_cap_chart": "geometry", "strain_tensor": "geometry",
    "LayerMode": "layers", "bending_layer_energy": "layers",
    "bending_symbol_coefficient": "layers", "build_layer_modes": "layers",
    "frequency_cutoff": "layers", "layer_eigenvector": "layers",
    "layer_energy_coefficient": "layers", "matching_constants": "layers",
    "membrane_layer_energy": "layers", "rigidity_roots": "layers",
    "sublayer_scaling_check": "layers",
    "ReducedOperator": "reduced", "SpectralField": "reduced",
    "apply_variable_symbol": "reduced", "build_default_operator": "reduced",
    "coercivity_constant": "reduced", "frequency_window": "reduced",
    "no_distribution_limit_probe": "reduced", "noninhibited_rescale": "reduced",
    "sensitivity_probe": "reduced", "solve": "reduced",
    "va_norm_convergence": "reduced", "with_kernel": "reduced",
    "BoundaryConditionSet": "symbols", "DNSystem": "symbols", "SLReport": "symbols",
    "builtin_boundary_conditions": "symbols", "builtin_system": "symbols",
    "characteristic_roots": "symbols", "ellipticity_check": "symbols",
    "principal_determinant": "symbols", "sl_check": "symbols",
}

# the submodules that ``from shellsym import *`` has always exported
_SUBMODULES = ("geometry", "layers", "polymat", "reduced", "symbols")

__all__ = sorted([*_EXPORTS, *_SUBMODULES])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULES:
        # importing a submodule binds it here, so this runs once per name
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value     # later lookups skip this function
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
