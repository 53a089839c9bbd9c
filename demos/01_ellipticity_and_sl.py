"""Tour of the four shell systems: indices, ellipticity, boundary conditions.

Walks the rigidity, membrane-tension, membrane and thickness-weighted
(eighth-order) systems at a frozen boundary point, checks
Douglis-Nirenberg ellipticity on the unit frequency circle, and runs the
Shapiro-Lopatinskii test for the classical boundary-condition sets.  The
punch line is the last block: the traction conditions on the free edge fail
the SL test, and the returned witness is an oscillating, inward-decaying
displacement with zero membrane strain.

The SL verdict is taken at |xi1| = 1, where the symbols are evaluated; by
homogeneity it holds at every xi1 of that sign.  |det| is the determinant of
the boundary rows, scaled to unit norm, acting on an orthonormal basis of
the decaying Cauchy data, and margin = sigma_min / |C|_2 is the distance of
that matrix from singular; the condition holds iff margin > 1e-8.
"""

import numpy as np

from shellsym import (
    ElasticityTensor,
    builtin_boundary_conditions,
    builtin_system,
    characteristic_roots,
    ellipticity_check,
    frozen_point,
    principal_determinant,
    sl_check,
)
from shellsym.symbols import rigidity_strain_residual

point = frozen_point(1.0, 0.0, 1.0)
elastic = ElasticityTensor.identity()

print("== systems at the round point b = (1, 0, 1) ==")
for name, eps in (("rigidity", 0.0), ("membrane_tension", 0.0),
                  ("membrane", 0.0), ("koiter", 0.1)):
    system = builtin_system(name, point, elastic, eps)
    report = ellipticity_check(system, point)
    roots = characteristic_roots(system, point, 1.0)
    print(f"{name:>16}: total order {system.total_order}, "
          f"elliptic={report.elliptic} (min |D| = {report.min_abs_det:.3g}), "
          f"{np.sum(roots.imag > 0)} decaying roots at xi1 = 1")

print("\nrigidity determinant at xi = (1, 1):",
      principal_determinant(builtin_system("rigidity", point), point, (1.0, 1.0)))
print("(closed form 2 b12 x1 x2 - b22 x1^2 - b11 x2^2 = -2)")

hyper = frozen_point(1.0, 2.0, 1.0)
print("\nhyperbolic point b = (1, 2, 1):",
      ellipticity_check(builtin_system("rigidity", hyper), hyper))

print("\n== Shapiro-Lopatinskii verdicts, |xi1| = 1 ==")
rigidity = builtin_system("rigidity", point)
membrane = builtin_system("membrane", point, elastic)
cases = [
    (rigidity, builtin_boundary_conditions("u1")),
    (rigidity, builtin_boundary_conditions("u2")),
    (rigidity, builtin_boundary_conditions("u3")),
    (membrane, builtin_boundary_conditions("membrane_dirichlet")),
    (membrane, builtin_boundary_conditions("membrane_traction", elastic)),
]
for system, bc in cases:
    rep = sl_check(system, bc, point, 1.0)
    print(f"{system.name:>10} + {bc.name:<18} satisfied={rep.satisfied} "
          f"|det| = {abs(rep.sl_determinant):.3e}, margin = {rep.margin:.3e}")

rep = sl_check(membrane, builtin_boundary_conditions("membrane_traction", elastic),
               point, 1.0)
# the witness is the Cauchy data (u, D u) at the edge of u = w exp(i xi2 x2)
u, du = rep.witness.reshape(2, 3)
lam = 1j * np.vdot(u, du) / np.vdot(u, u)
print("\ntraction witness: exponent lam =", np.round(lam, 12),
      "(decays inward),")
print("  membrane strain residual of the witness:",
      f"{rigidity_strain_residual(rep.witness, point, 1.0):.2e}")
print("  -> a nonzero zero-strain mode passes the free-edge conditions;")
print("     the limit problem is ill-posed on the free edge.")
