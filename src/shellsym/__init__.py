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
* :mod:`shellsym.cli`      -- configuration-driven command line front end.
"""

from .geometry import (
    DisplacementField,
    ElasticityTensor,
    MetricData,
    MetricField,
    curvature_change_tensor,
    energy_forms,
    frozen_chart,
    frozen_point,
    sphere_cap_chart,
    strain_tensor,
)
from .layers import (
    LayerMode,
    bending_layer_energy,
    bending_symbol_coefficient,
    build_layer_modes,
    frequency_cutoff,
    layer_eigenvector,
    layer_energy_coefficient,
    matching_constants,
    membrane_layer_energy,
    rigidity_roots,
    sublayer_scaling_check,
)
from .reduced import (
    ReducedOperator,
    SpectralField,
    apply_variable_symbol,
    build_default_operator,
    coercivity_constant,
    frequency_window,
    no_distribution_limit_probe,
    noninhibited_rescale,
    sensitivity_probe,
    solve,
    va_norm_convergence,
    with_kernel,
)
from .symbols import (
    BoundaryConditionSet,
    DNSystem,
    SLReport,
    builtin_boundary_conditions,
    builtin_system,
    characteristic_roots,
    ellipticity_check,
    principal_determinant,
    sl_check,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
