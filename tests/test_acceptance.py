"""Acceptance suite: one test per numbered criterion, at stated tolerances.

Each criterion function returns ``(ok, detail)`` and the pytest wrapper
prints one ``criterion NN [PASS|FAIL]`` line before asserting, so the module
doubles as a standalone runner::

    python3 -m pytest tests/test_acceptance.py -v
    python3 tests/test_acceptance.py          # prints all 12 lines

Criteria 6, 7 and 9 check the model's asymptotics at the probed, finite
parameters, where the eps -> 0 (resp. N -> oo) limits are not yet reached:

* 6: ``s = eps^2 q`` reads ``d k + log k = log(1/eps) + O(k^-2)``, so
  ``k* = (l - log(l/d))/d + o(1)`` with ``l = log(1/eps)``; the raw ratio
  ``k* d / l`` still rises toward 1.
* 7: ``A (v_eps - v_0) = -F m`` with ``m = eps^2 q / (s + eps^2 q)`` in
  ``[1/2, 1]`` beyond ``k*`` and below ``eps^2 q / s`` inside it, which
  brackets the distance between rigorous bounds that decay like
  ``k*^-5``, not like a power of eps.
* 9: ``|v0_N| = |F_N| / s(N)`` carries the prefactor ``(1+N^2)^(-5/2)``,
  so ``log |v0_N| = 2 d N - 5 log N + c + O(1/N)``.

The companion tests ``test_frequency_window_asymptotic_ratio`` and
``test_growth_slope_reaches_2d_for_large_truncation`` in ``test_reduced.py``
confirm the limits themselves at eps = 1e-20 and N = 300.
"""
import time

import numpy as np

from shellsym.geometry import ElasticityTensor, frozen_point
from shellsym.layers import (
    bending_layer_energy,
    build_layer_modes,
    fourth_order_symbol,
    jordan_residual,
    membrane_layer_energy,
    rigidity_roots,
    sublayer_scaling_check,
)
from shellsym.reduced import (
    SpectralField,
    build_default_operator,
    flat_load,
    frequency_window,
    no_distribution_limit_probe,
    noninhibited_rescale,
    sensitivity_probe,
    smooth_load,
    solution_argmax,
    solve,
    va_norm_convergence,
    with_kernel,
)
from shellsym.symbols import (
    builtin_boundary_conditions,
    builtin_system,
    principal_determinant,
    sl_check,
)
from shellsym.cli import main as cli_main

from conftest import jordan_profile_residual, random_elliptic_b, random_spd_matrix

RNG_SEED = 31415


def _rng():
    return np.random.default_rng(RNG_SEED)


def criterion_01_rigidity_determinant():
    """3x3 principal determinant equals 2 b12 x1 x2 - b22 x1^2 - b11 x2^2."""
    t0 = time.perf_counter()
    rng = _rng()
    worst = 0.0
    for _ in range(100):
        b11, b12, b22 = random_elliptic_b(rng)
        pt = frozen_point(b11, b12, b22)
        system = builtin_system("rigidity", pt)
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        want = 2 * b12 * xi[0] * xi[1] - b22 * xi[0] ** 2 - b11 * xi[1] ** 2
        got = principal_determinant(system, pt, tuple(xi))
        worst = max(worst, abs(got - want) / max(abs(want), 1.0))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 1.0
    return ok, f"max rel err {worst:.2e} over 100 samples, {elapsed:.2f} s"


def criterion_02_sl_verdict_matrix():
    """Dirichlet verdicts satisfied, membrane traction violated, 10 random b."""
    t0 = time.perf_counter()
    rng = _rng()
    e = ElasticityTensor.identity()
    checks = 0
    for b in random_elliptic_b(rng, 10):
        pt = frozen_point(*b)
        rigidity = builtin_system("rigidity", pt)
        membrane = builtin_system("membrane", pt, e)
        for xi1 in (1.0, 3.0):
            for name in ("u1", "u2", "u3"):
                if not sl_check(rigidity, builtin_boundary_conditions(name),
                                pt, xi1).satisfied:
                    return False, f"rigidity+{name} not satisfied at b={b}"
            if not sl_check(membrane,
                            builtin_boundary_conditions("membrane_dirichlet"),
                            pt, xi1).satisfied:
                return False, f"membrane+dirichlet not satisfied at b={b}"
            if sl_check(membrane,
                        builtin_boundary_conditions("membrane_traction", e),
                        pt, xi1).satisfied:
                return False, f"membrane+traction not violated at b={b}"
            checks += 5
    elapsed = time.perf_counter() - t0
    ok = elapsed < 5.0
    return ok, f"{checks} verdicts correct, {elapsed:.2f} s"


def criterion_03_layer_root_cross_check():
    """Closed-form exponents match companion-matrix roots to 1e-10."""
    rng = _rng()
    worst = 0.0
    for _ in range(50):
        b = random_elliptic_b(rng)
        xi1 = rng.uniform(0.5, 8.0) * rng.choice([-1.0, 1.0])
        b11, b12, b22 = b
        poly = np.array([b11, 2j * b12 * xi1, -b22 * xi1 ** 2])
        companion = set(np.roots(poly))
        for lam in rigidity_roots(b11, b12, b22, xi1):
            err = min(abs(lam - z) for z in companion)
            worst = max(worst, err / max(abs(lam), 1.0))
    ok = worst < 1e-10
    return ok, f"max root mismatch {worst:.2e} over 50 samples"


def criterion_04_jordan_mode_residual():
    """(y2 w + v) e^(lam_m y2) annihilates the fourth-order layer symbol."""
    rng = _rng()
    worst = 0.0
    tensors = [np.eye(3)] + [random_spd_matrix(rng) for _ in range(10)]
    for i, a in enumerate(tensors):
        b = (1.0, 0.0, 1.0) if i == 0 else random_elliptic_b(rng)
        mode_m, _ = build_layer_modes(b, a, 1.0)
        resid = jordan_profile_residual(mode_m, fourth_order_symbol(b, a, 1.0))
        worst = max(worst, resid, jordan_residual(mode_m, a))
    ok = worst < 1e-9
    return ok, f"max Jordan-profile residual {worst:.2e} (11 tensors)"


def criterion_05_energy_scaling():
    """Layer a-energy slope 1.00 +- 0.01 and b-energy slope 3.00 +- 0.01."""
    rng = _rng()
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    bb = random_spd_matrix(rng)
    xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    ea = np.array([membrane_layer_energy(x, 1.0, b, a) for x in xs])
    eb = np.array([bending_layer_energy(x, 1.0, b, bb) for x in xs])
    slope_a = np.polyfit(np.log(xs), np.log(ea), 1)[0]
    slope_b = np.polyfit(np.log(xs), np.log(eb), 1)[0]
    ok = abs(slope_a - 1.0) < 0.01 and abs(slope_b - 3.0) < 0.01
    return ok, f"slopes a={slope_a:.4f} (want 1.00), b={slope_b:.4f} (want 3.00)"


def criterion_06_frequency_window():
    """k* within 10% of (l - log(l/d))/d, l = log(1/eps); argmax within 2.

    ``s(k) = eps^2 q(k)`` reads ``2dk + 3 log k - (1/2) log(1+k^2) = 2l +
    log(theta/zeta)``; with ``(1+k^2)^(1/2) = k (1 + O(k^-2))`` this is
    ``d k + log k = l + O(k^-2)`` at theta = zeta = 1, whose root is
    ``k* = (l - log(l/d))/d + o(1)`` (``l - log l`` at d = 1).  The
    leading-order ratio ``k* d / l = 1 - log(l/d)/l + o(1/l)`` must rise
    strictly as eps shrinks.
    """
    t0 = time.perf_counter()
    d = 1.0
    ratios, raw, argmax_ok = [], [], True
    for eps in (1e-5, 1e-7, 1e-9):
        op = build_default_operator(theta=1.0, zeta=1.0, d=d, n_modes=128,
                                    eps=eps)
        k_star = frequency_window(op)
        ell = np.log(1.0 / eps)
        ratios.append(k_star / ((ell - np.log(ell / d)) / d))
        raw.append(k_star * d / ell)
        argmax_ok &= abs(solution_argmax(solve(op, flat_load(128))) - k_star) <= 2.0
    elapsed = time.perf_counter() - t0
    ratio_ok = all(0.9 <= r <= 1.1 for r in ratios)
    rising = all(b > a for a, b in zip(raw, raw[1:]))
    ok = ratio_ok and rising and argmax_ok and elapsed < 5.0
    detail = (f"k*/((l - log(l/d))/d) {[f'{r:.3f}' for r in ratios]} "
              f"(want [0.9, 1.1]), k*d/log(1/eps) "
              f"{[f'{r:.3f}' for r in raw]} rising: {rising}, "
              f"argmax within 2: {argmax_ok}, {elapsed:.2f} s")
    return ok, detail


def criterion_07_va_convergence():
    """A-norm distances strictly decreasing and within [T/2, U] at each eps.

    ``A (v_eps - v_0) = -F m`` mode-wise with ``m = eps^2 q / (s + eps^2 q)``.
    ``s / (eps^2 q)`` decreases in ``|k|``, so beyond the crossover
    (``|k| >= k*``, where ``s <= eps^2 q``) ``1/2 <= m <= 1``; below it
    ``m <= min(1, eps^2 q / s)``.  With the H^{-3/2} weight
    ``w = (1+k^2)^(-3/2)`` this gives ``T/2 <= distance <= U``, where
    ``T^2 = sum_{|k|>=k*} w |F|^2`` and ``U^2 = T^2 + sum_{|k|<k*} w |F|^2
    min(1, eps^2 q / s)^2``.  For the ``(1+k^2)^-2`` load ``T ~ k*^-5``, so
    the distance decays like ``log(1/eps)^-5``, not like a power of eps.
    """
    op = build_default_operator(theta=1.0, zeta=1.0, d=1.0, n_modes=128,
                                eps=1e-2)
    load = smooth_load(128)
    eps_list = [10.0 ** -j for j in range(1, 7)]
    rows = va_norm_convergence(op, eps_list, load)
    dists = [r.va_distance for r in rows]
    decreasing = all(b < a for a, b in zip(dists, dists[1:]))
    k = load.wavenumbers
    s, q = op.s_symbol(k), op.q_symbol(k)
    weighted = (1.0 + k.astype(float) ** 2) ** -1.5 * np.abs(load.coeffs) ** 2
    bracketed = True
    for eps, dist in zip(eps_list, dists):
        beyond = np.abs(k) >= frequency_window(op.with_eps(eps))
        t2 = weighted[beyond].sum()
        inside = np.minimum(1.0, eps ** 2 * q / s)[~beyond]
        lower = 0.5 * np.sqrt(t2)
        upper = np.sqrt(t2 + (weighted[~beyond] * inside ** 2).sum())
        bracketed &= lower <= dist <= upper
    # per-mode closed form against the solver
    eps = 1e-3
    v_eps = solve(op.with_eps(eps), load)
    v_0 = solve(op.with_eps(0.0), load)
    per_mode = np.abs(s * (v_eps.coeffs - v_0.coeffs)
                      + load.coeffs * eps ** 2 * q / (s + eps ** 2 * q)).max()
    closed_ok = per_mode < 1e-12
    ok = decreasing and bracketed and closed_ok
    return ok, (f"decreasing={decreasing}, final distance {dists[-1]:.3e} "
                f"within [T/2, U] = [{lower:.3e}, {upper:.3e}], "
                f"bracketed at all {len(eps_list)} eps: {bracketed}, "
                f"per-mode closed-form err {per_mode:.1e}")


def criterion_08_sensitivity():
    """Amplification 1/s(10) > 1e7 at eps=0; bounded by bending part beyond k*."""
    op0 = build_default_operator(theta=1.0, zeta=1.0, d=1.0, n_modes=128,
                                 eps=0.0)
    amp = sensitivity_probe(op0, 10)
    want = 1.0 / float(op0.s_symbol(10.0))
    formula_ok = abs(amp - want) <= 1e-10 * want and amp > 1e7
    op = op0.with_eps(1e-2)
    k_star = frequency_window(op)
    bound_ok = all(
        sensitivity_probe(op, k) <= 1.0 / (1e-4 * float(op.q_symbol(float(k))))
        for k in range(int(np.ceil(k_star)), 129))
    ok = formula_ok and bound_ok
    return ok, (f"amp(0, k=10) = {amp:.4e} vs 1/s(10) = {want:.4e}, "
                f"bending bound beyond k*: {bound_ok}")


def criterion_09_no_distribution_limit():
    """Fit log|v0_N| = a N + b log N + c: a within 5% of 2d, b = -5 +- 0.25.

    The truncated norm is dominated by its top modes ``|k| = N``, where
    ``|v0_N| = |F_N| / s(N) = (1+N^2)^-2 / ((1+N^2)^(1/2) e^{-2dN})``, so
    ``log |v0_N| = 2dN - 5 log N + c + O(1/N)``.  The secant
    ``slope_estimate`` still carries the ``-5 log(N)/N`` term at N = 40.
    Band-limited loads give flat norms.
    """
    d, decay = 1.0, 2.0
    op = build_default_operator(theta=1.0, zeta=1.0, d=d, n_modes=128,
                                eps=0.0)
    table = no_distribution_limit_probe(op, smooth_load(128, decay),
                                        truncations=list(range(10, 41, 5)))
    n, log_norm = np.array(table.rows, dtype=float).T
    design = np.column_stack([n, np.log(n), np.ones_like(n)])
    a, b, _ = np.linalg.lstsq(design, log_norm, rcond=None)[0]
    # |F_N| = (1+N^2)^-decay and s ~ (1+N^2)^(1/2): exponent -(2 decay + 1)
    b_want = -(2.0 * decay + 1.0)
    fit_ok = abs(a - 2.0 * d) <= 0.05 * 2.0 * d and abs(b - b_want) <= 0.25
    band = SpectralField.from_symbol(
        128, lambda k: np.where(np.abs(k) <= 5, 1.0, 0.0))
    flat_table = no_distribution_limit_probe(op, band,
                                             truncations=[5, 10, 20, 40])
    norms = [ln for _, ln in flat_table.rows]
    flat_ok = (not flat_table.diverges) and np.allclose(norms, norms[0],
                                                        atol=1e-12)
    ok = fit_ok and flat_ok
    return ok, (f"fitted a = {a:.4f} (want 2.00 +- 0.10), b = {b:.3f} "
                f"(want {b_want:.0f} +- 0.25), secant slope at N=40 "
                f"{table.slope_estimate():.3f}, "
                f"band-limited norms constant: {flat_ok}")


def criterion_10_noninhibited_rescale():
    """Kernel modes exact for all eps; off-kernel modes decay as O(eps^2)."""
    base = build_default_operator(theta=1.0, zeta=1.0, d=1.0, n_modes=64,
                                  eps=1e-2)
    op = with_kernel(base, [3])
    load = flat_load(64)
    limit, rows = noninhibited_rescale(op, load, [1e-2, 1e-4])
    q3 = float(op.q_symbol(3.0))
    kernel_ok = (limit.coeff(3) == 1.0 / q3
                 and all(r.kernel_error < 1e-14 for r in rows))
    k = load.wavenumbers
    s = op.s_symbol(k)
    off = np.abs(k) != 3
    bound_ok = all(np.all(np.abs(r.solution.coeffs[off])
                          <= r.eps ** 2 / s[off] * (1 + 1e-12)) for r in rows)
    w1 = [abs(r.solution.coeff(1)) for r in rows]
    rate_ok = abs(w1[1] / w1[0] - 1e-4) < 1e-6
    ok = kernel_ok and bound_ok and rate_ok
    return ok, (f"kernel exact: {kernel_ok}, off-kernel bound eps^2/s: "
                f"{bound_ok}, mode-1 ratio {w1[1] / w1[0]:.3e} (want 1e-4)")


def criterion_11_sublayer_scaling():
    """delta(eps) = sqrt(eps) exact; quartic roots at eps^(-1/2) to 1e-10."""
    exact = sublayer_scaling_check(1e-4).delta == 1e-2 \
        and sublayer_scaling_check(1.0).delta == 1.0
    worst = 0.0
    for eps in (1e-2, 1e-6):
        out = sublayer_scaling_check(eps)
        worst = max(worst, abs(out.quartic_root_magnitude - eps ** -0.5)
                    * eps ** 0.5)
    ok = exact and worst < 1e-10
    return ok, f"delta exact: {exact}, quartic-root rel err {worst:.2e}"


def criterion_12_cli_determinism():
    """Repeated CLI runs byte-identical; acceptance wall time bounded."""
    import tempfile
    from pathlib import Path
    t0 = time.perf_counter()
    with tempfile.TemporaryDirectory() as td:
        base = Path(td)
        cfg = base / "exp.cfg"
        cfg.write_text("b_coeffs = 1,0,1\nelasticity = identity\n"
                       "epsilon_list = 1e-2,1e-3,1e-4\nN = 64\nxi1_list = 1,3\n")
        identical = True
        for command in ("check-sl", "sweep-epsilon", "layer-modes",
                        "solve-reduced"):
            p1, p2 = base / "a.csv", base / "b.csv"
            rc1 = cli_main([command, "--config", str(cfg), "--out", str(p1)])
            rc2 = cli_main([command, "--config", str(cfg), "--out", str(p2)])
            identical &= rc1 == 0 and rc2 == 0 and \
                p1.read_bytes() == p2.read_bytes()
    elapsed = time.perf_counter() - t0
    ok = identical and elapsed < 60.0
    return ok, f"byte-identical reruns: {identical}, {elapsed:.2f} s"


CRITERIA = [
    (1, criterion_01_rigidity_determinant),
    (2, criterion_02_sl_verdict_matrix),
    (3, criterion_03_layer_root_cross_check),
    (4, criterion_04_jordan_mode_residual),
    (5, criterion_05_energy_scaling),
    (6, criterion_06_frequency_window),
    (7, criterion_07_va_convergence),
    (8, criterion_08_sensitivity),
    (9, criterion_09_no_distribution_limit),
    (10, criterion_10_noninhibited_rescale),
    (11, criterion_11_sublayer_scaling),
    (12, criterion_12_cli_determinism),
]


def _run(number, fn):
    ok, detail = fn()
    print(f"criterion {number:02d} [{'PASS' if ok else 'FAIL'}] {detail}")
    return ok, detail


def test_criterion_01():
    ok, detail = _run(1, criterion_01_rigidity_determinant)
    assert ok, detail


def test_criterion_02():
    ok, detail = _run(2, criterion_02_sl_verdict_matrix)
    assert ok, detail


def test_criterion_03():
    ok, detail = _run(3, criterion_03_layer_root_cross_check)
    assert ok, detail


def test_criterion_04():
    ok, detail = _run(4, criterion_04_jordan_mode_residual)
    assert ok, detail


def test_criterion_05():
    ok, detail = _run(5, criterion_05_energy_scaling)
    assert ok, detail


def test_criterion_06():
    ok, detail = _run(6, criterion_06_frequency_window)
    assert ok, detail


def test_criterion_07():
    ok, detail = _run(7, criterion_07_va_convergence)
    assert ok, detail


def test_criterion_08():
    ok, detail = _run(8, criterion_08_sensitivity)
    assert ok, detail


def test_criterion_09():
    ok, detail = _run(9, criterion_09_no_distribution_limit)
    assert ok, detail


def test_criterion_10():
    ok, detail = _run(10, criterion_10_noninhibited_rescale)
    assert ok, detail


def test_criterion_11():
    ok, detail = _run(11, criterion_11_sublayer_scaling)
    assert ok, detail


def test_criterion_12():
    ok, detail = _run(12, criterion_12_cli_determinism)
    assert ok, detail


def run_all() -> int:
    failures = 0
    for number, fn in CRITERIA:
        ok, _ = _run(number, fn)
        failures += 0 if ok else 1
    print(f"{len(CRITERIA) - failures}/{len(CRITERIA)} criteria passed")
    return 1 if failures else 0


if __name__ == "__main__":
    import sys
    sys.path.insert(0, str(__import__("pathlib").Path(__file__).parent))
    sys.exit(run_all())
