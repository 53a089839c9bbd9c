"""Fixed-edge boundary layer: exponents, Jordan profiles, energy symbols.

Builds the characteristic layer exponents and their eigen/Jordan vectors,
matches the layer correction so the tangential displacement vanishes at the
edge, and extracts the two boundary energy coefficients: theta (membrane
symbol theta*|xi1|) and zeta (bending symbol zeta*|xi1|^3).  The energy
table at the end shows the two scaling laws.
"""

import numpy as np

from shellsym import (
    ElasticityTensor,
    bending_layer_energy,
    bending_symbol_coefficient,
    build_layer_modes,
    frequency_cutoff,
    layer_energy_coefficient,
    matching_constants,
    membrane_layer_energy,
    rigidity_roots,
    sublayer_scaling_check,
)
from shellsym.layers import jordan_residual

b = (2.0, 0.5, 1.5)
elastic = ElasticityTensor.identity()
a_mat = elastic.membrane

print("curvature triple b =", b)
lam_p, lam_m = rigidity_roots(*b, 1.0)
print("exponents at xi1 = 1: lam_+ =", np.round(lam_p, 6),
      " lam_- =", np.round(lam_m, 6))
print("homogeneity: lam_-(4) / lam_-(1) =",
      np.round(rigidity_roots(*b, 4.0)[1] / lam_m, 12))

mode_m, mode_p = build_layer_modes(b, a_mat, 1.0)
print("\ndecaying mode eigenvector w  =", np.round(mode_m.w, 6))
print("generalized (Jordan) vector v =", np.round(mode_m.v, 6))
print("fourth-order residual of (y2*w + v)e^{lam y2}:",
      f"{jordan_residual(mode_m, a_mat):.2e}")

mr = matching_constants(1.0, b, a_mat)
at0 = mr.edge_trace()
print("\nmatched layer constants: alpha =", np.round(mr.alpha, 6),
      " beta =", np.round(mr.beta, 6))
print("modified profile at the edge (components 1, 2 must vanish):",
      np.round(at0, 12))

print("\ntheta =", layer_energy_coefficient(b, a_mat))
print("zeta  =", bending_symbol_coefficient(b, elastic.bending))

print("\n xi1 | theta*|xi1| energy | bending zeta*|xi1|^3")
for xi1 in (2.0, 4.0, 8.0, 16.0, 32.0):
    ea = membrane_layer_energy(xi1, 1.0, b, a_mat)
    eb = bending_layer_energy(xi1, 1.0, b, elastic.bending)
    print(f"{xi1:5.0f} | {ea:18.6f} | {eb:20.4f}")
print("(slopes: +1, +3 in log-log)")

print("\nhigh-pass cutoff at eps = 1e-8: H(xi1) for xi1 = 1..6:",
      [round(frequency_cutoff(x, 1e-8), 3) for x in range(1, 7)])
out = sublayer_scaling_check(1e-4)
print("clamping sublayer width at eps = 1e-4: delta =", out.delta,
      " quartic-root magnitude =", out.quartic_root_magnitude)
