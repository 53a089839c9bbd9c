"""The reduced problem (A + eps^2 B) v = F on the circle, and its pathologies.

A is smoothing (symbol ~ e^{-2d|k|}), B is elliptic of order 3.  As the
thickness eps shrinks, the solution concentrates in the frequency window
|k| ~ log(1/eps)/d where the two symbols balance; the inverse of A alone
amplifies mode-k load perturbations like e^{2dk}; and the formal limit
solution leaves every polynomially weighted space unless the load is
band-limited.  The non-inhibited variant (smoothing symbol zeroed on a
kernel set) instead converges after the eps^2 rescaling.
"""

import numpy as np

from shellsym import (
    SpectralField,
    build_default_operator,
    frequency_window,
    no_distribution_limit_probe,
    noninhibited_rescale,
    sensitivity_probe,
    solve,
    va_norm_convergence,
    with_kernel,
)
from shellsym.reduced import flat_load, smooth_load, solution_argmax

N = 128
load = smooth_load(N)          # F_hat(k) = (1 + k^2)^-2

print("== frequency window and amplification ==")
print("  eps    |   k*   | argmax | max|v| (flat load) | amp @ k=10")
for eps in (1e-3, 1e-5, 1e-7, 1e-9):
    op = build_default_operator(theta=1.0, zeta=1.0, d=1.0, n_modes=N, eps=eps)
    k_star = frequency_window(op)
    v = solve(op, flat_load(N))
    print(f"{eps:8.0e} | {k_star:6.3f} | {solution_argmax(v):6d} | "
          f"{np.abs(v.coeffs).max():18.4e} | {sensitivity_probe(op, 10):.3e}")
print("(window ~ log(1/eps)/d; at eps = 0 the k=10 amplification is",
      f"{sensitivity_probe(build_default_operator(theta=1.0, zeta=1.0, d=1.0, n_modes=N, eps=0.0), 10):.3e})")

print("\n== strong convergence in the smoothing norm ==")
op = build_default_operator(theta=1.0, zeta=1.0, d=1.0, n_modes=N, eps=1e-2)
rows = va_norm_convergence(op, [10.0 ** -j for j in range(1, 7)], load)
for row in rows:
    print(f"eps = {row.eps:8.0e}: |A(v_eps - v_0)|_{{-3/2}} = "
          f"{row.va_distance:.4e}   |eps^2 B v_eps| = {row.eps2_b_norm:.4e}")
print("(the two columns agree exactly: A(v_eps - v_0) = -eps^2 B v_eps",
      "from the equation, which is what drives the limit)")

print("\n== the limit solution is not a distribution ==")
op0 = op.with_eps(0.0)
table = no_distribution_limit_probe(op0, load,
                                    truncations=[20, 40, 80, 120])
for n, log_norm in table.rows:
    print(f"N = {n:4d}: log |v0_N| = {log_norm:9.2f}   slope {log_norm / n:.3f}")
print("(slope creeps to 2d = 2: exponential growth beats every polynomial",
      "weight)")
band = SpectralField.from_symbol(N, lambda k: np.where(np.abs(k) <= 5, 1.0, 0.0))
flat_table = no_distribution_limit_probe(op0, band, truncations=[5, 20, 80])
print("band-limited load: log-norms", [round(x, 6) for _, x in flat_table.rows],
      "-> a genuine limit exists")

print("\n== non-inhibited rescaling (kernel mode k = 3) ==")
opk = with_kernel(op, [3])
limit, rrows = noninhibited_rescale(opk, flat_load(N), [1e-1, 1e-2, 1e-3])
print("limit on the kernel: w(3) =", limit.coeff(3).real, "= 1/q(3) =",
      1.0 / float(op.q_symbol(3.0)))
for row in rrows:
    print(f"eps = {row.eps:6.0e}: kernel error {row.kernel_error:.1e}, "
          f"off-kernel max {row.off_kernel_max:.3e}")
