import dataclasses
import decimal
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize_scalar
from scipy.special import logsumexp

from shellsym.reduced import (
    AliasingError,
    KernelModeError,
    ReducedOperator,
    SpectralField,
    SymbolRangeError,
    WindowResolutionError,
    apply_variable_symbol,
    build_default_operator,
    coercivity_constant,
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


def default_op(eps, n=128, d=1.0):
    return build_default_operator(theta=1.0, zeta=1.0, d=d, n_modes=n, eps=eps)


# ---------------------------------------------------------------------------
# operator model
# ---------------------------------------------------------------------------

def test_default_symbol_values():
    op = default_op(1e-3)
    assert op.s_symbol(0.0) == pytest.approx(1.0)
    assert op.s_symbol(10.0) == pytest.approx(np.sqrt(101.0) * np.exp(-20.0),
                                              rel=1e-12)
    assert op.s_symbol(10.0) == pytest.approx(2.07e-8, rel=1e-2)
    assert op.q_symbol(2.0) / op.q_symbol(1.0) == pytest.approx(8.0)
    assert op.q_symbol(0.0) == pytest.approx(1e-2)   # floor keeps B positive


def test_smoothing_envelope_matches_scalar_maximization():
    # s(k) <= theta * sup_k (1+k^2)^(1/2) exp(-d k) * exp(-d k) on k = 0..N,
    # with the supremum from a scalar maximization oracle; at d < 1/2 the
    # envelope peaks away from k = 0
    for theta, d in ((1.0, 0.05), (1.0, 0.15), (1.0, 0.25), (1.0, 0.49),
                     (1.0, 0.5), (1.0, 0.51), (1.0, 1.0), (1.0, 2.0),
                     (0.7, 0.05), (2.5, 0.3)):
        op = build_default_operator(theta=theta, zeta=1.0, d=d, n_modes=128,
                                    eps=1e-3)
        res = minimize_scalar(lambda k: -np.sqrt(1.0 + k * k) * np.exp(-d * k),
                              bounds=(0.0, 40.0 / d), method="bounded",
                              options={"xatol": 1e-10})
        amp = theta * max(1.0, -res.fun)   # the supremum at k = 0 for d >= 1/2
        k = np.arange(0, op.n_modes + 1, dtype=float)
        assert np.all(op.s_symbol(k) <= amp * np.exp(-d * k) * (1.0 + 1e-12)), d


def test_order3_envelope():
    # 0.3 zeta <= q(k) / (1+k^2)^(3/2) <= 1.1 zeta away from k = 0
    for zeta in (1.0, 0.2, 7.5):
        op = build_default_operator(theta=1.0, zeta=zeta, d=1.0, n_modes=128,
                                    eps=1e-3)
        k = np.arange(1, op.n_modes + 1, dtype=float)
        ratio = op.q_symbol(k) / (1.0 + k ** 2) ** 1.5
        assert ratio.min() >= 0.3 * zeta * (1.0 - 1e-12)
        assert ratio.max() <= 1.1 * zeta * (1.0 + 1e-12)


def test_operator_copies_share_samples():
    # with_eps hands every eps-independent sample over; with_kernel resamples
    # s alone, zero on the kernel set
    op = default_op(1e-2, n=16)
    opk = with_kernel(op, [3, -5])
    assert opk.kernel == (3, 5)
    for copy in (op.with_eps(0.0), opk):
        assert copy.q is op.q
    assert op.with_eps(0.0).s is op.s
    on_kernel = np.isin(np.abs(op.wavenumbers), [3, 5])
    assert np.array_equal(opk.s, np.where(on_kernel, 0.0, op.s))
    assert np.array_equal(opk.s, opk.s_symbol(op.wavenumbers))


def test_symbols_even():
    op = default_op(1e-2)
    k = np.arange(-8, 9, dtype=float)
    assert np.allclose(op.s_symbol(k), op.s_symbol(-k))
    assert np.allclose(op.q_symbol(k), op.q_symbol(-k))


# ---------------------------------------------------------------------------
# diagonal solve
# ---------------------------------------------------------------------------

def test_solve_constructed_inverse():
    op = default_op(1e-3, n=64)
    k = np.arange(-64, 65)
    load = SpectralField(op.total_symbol(k).astype(complex))
    v = solve(op, load)
    assert np.allclose(v.coeffs, 1.0, atol=1e-14)


def test_delta_load_rejects_modes_beyond_cutoff():
    assert SpectralField.delta(16, -16).coeffs[0] == 1.0
    assert SpectralField.delta(16, 16).coeffs[-1] == 1.0
    for k in (17, -17, -200):
        with pytest.raises(ValueError):
            SpectralField.delta(16, k)


def test_solve_linearity():
    op = default_op(1e-2, n=32)
    rng = np.random.default_rng(7)
    f = SpectralField(rng.normal(size=65) + 1j * rng.normal(size=65))
    g = SpectralField(rng.normal(size=65) + 1j * rng.normal(size=65))
    lhs = solve(op, SpectralField(2.0 * f.coeffs + 3.0 * g.coeffs))
    rhs = SpectralField(2.0 * solve(op, f).coeffs + 3.0 * solve(op, g).coeffs)
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-12 * np.abs(rhs.coeffs).max()


def test_solve_preserves_realness():
    # a real field satisfies coeff(-k) == conj(coeff(k))
    op = default_op(1e-3, n=64)
    f = smooth_load(64)
    for field in (f, solve(op, f)):
        c = field.coeffs
        assert np.abs(c - np.conj(c[::-1])).max() <= 1e-12 * np.abs(c).max()


def test_kernel_modes_must_lie_within_the_cutoff():
    # a kernel mode beyond N used to be accepted, and noninhibited_rescale
    # then failed with numpy's "zero-size array" error
    op = build_default_operator(1.0, 1.0, 1.0, 16, 1e-2)
    for modes in ([40], [3, -17]):
        with pytest.raises(ValueError, match="exceeds the cutoff N = 16"):
            with_kernel(op, modes)
    assert with_kernel(op, [-16]).kernel == (16,)
    noninhibited_rescale(with_kernel(op, [16]), flat_load(16), [1e-2])


def test_operator_constructor_owns_the_kernel_rule():
    # direct construction used to keep any kernel as given: (-3, 99) zeroed
    # no mode, and int() truncated 2.5
    with pytest.raises(ValueError, match=r"kernel mode \|k\| = 99 exceeds the "
                                         r"cutoff N = 8"):
        ReducedOperator(1.0, 1.0, 1.0, 8, 0.1, kernel=(-3, 99))
    with pytest.raises(ValueError, match="must be integers"):
        ReducedOperator(1.0, 1.0, 1.0, 8, 0.1, kernel=(2.5,))
    op = ReducedOperator(1.0, 1.0, 1.0, 8, 0.1, kernel=(3, -5))
    assert op.kernel == (3, 5)
    assert op.with_eps(0.0).kernel == (3, 5)
    assert np.array_equal(op.s, with_kernel(default_op(0.1, n=8), [5, -3, 3]).s)
    with pytest.raises(ValueError, match="kernel set must be nonempty"):
        with_kernel(op, [])


def test_operator_samples_are_read_only():
    op = default_op(1e-2, n=8)
    opk = with_kernel(op, [3])
    for copy in (op, op.with_eps(0.1), opk, opk.with_eps(0.2)):
        for name in ("s", "q", "total"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(copy, name)[0] = 1.0
    # a kernel operator's eps copies share its s, and every copy q
    assert opk.with_eps(0.2).s is opk.s and opk.with_eps(0.2).q is op.q
    assert [f.name for f in dataclasses.fields(ReducedOperator)] == [
        "theta", "zeta", "d", "n_modes", "eps", "kernel"]
    # the samples are s, q and total; the order-3 weights are formed where read
    assert set(vars(op)) - {f.name for f in dataclasses.fields(op)} == {"s", "q", "total"}


def test_operator_parameters_must_be_positive_and_finite():
    # an infinite theta would make s = theta * ... * exp(-2 d |k|) nan wherever
    # the exponential underflows, and a nan fails no "<= 0" test
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="theta and zeta must be positive and finite"):
            ReducedOperator(bad, 1.0, 1.0, 8, 0.1)
        with pytest.raises(ValueError, match="theta and zeta must be positive and finite"):
            ReducedOperator(1.0, bad, 1.0, 8, 0.1)
        with pytest.raises(ValueError, match="d must be positive and finite"):
            ReducedOperator(1.0, 1.0, bad, 8, 0.1)


def test_operator_samples_share_one_range_rule():
    with pytest.raises(SymbolRangeError, match="bending symbol is not finite"):
        ReducedOperator(1.0, 1e308, 1.0, 64, 0.1)
    with pytest.raises(SymbolRangeError, match="smoothing symbol is not finite"):
        ReducedOperator(1e308, 1.0, 1.0, 64, 0.1)
    # a zeta at which zeta |k|^3 overflows at |k| = N alone
    for n in (8, 64, 4096):
        zeta = np.finfo(float).max / (n - 0.5) ** 3
        with pytest.raises(SymbolRangeError) as exc:
            ReducedOperator(1.0, zeta, 1.0, n, 0.1)
        assert str(exc.value) == (f"bending symbol is not finite on 2 modes with |k| in "
                                  f"[{n}, {n}]: zeta = {zeta!r} is too large")
        assert np.isfinite(ReducedOperator(1.0, zeta, 1.0, n - 1, 0.1).q).all()


def test_operator_total_is_the_total_symbol():
    for op in (default_op(1e-3, n=64), with_kernel(default_op(0.2, n=16), [2, 5]),
               build_default_operator(0.7, 1.9, 0.05, 4096, 0.0)):
        assert np.array_equal(op.total, op.total_symbol(op.wavenumbers))
        for eps in (0.0, 1e-300, 1e-4, 0.3):
            fresh = ReducedOperator(op.theta, op.zeta, op.d, op.n_modes, eps,
                                    op.kernel)
            assert np.array_equal(op.with_eps(eps).total, fresh.total)
    with pytest.raises(ValueError, match="eps must be nonnegative"):
        default_op(1e-3).with_eps(-1e-3)


def test_solve_kernel_mode_error():
    op = with_kernel(default_op(0.0, n=16), [3])
    with pytest.raises(KernelModeError) as exc:
        solve(op, flat_load(16))
    assert 3 in exc.value.modes and -3 in exc.value.modes
    assert str(exc.value) == ("smoothing symbol vanishes on 2 modes with |k| in "
                              "[3, 3]: [-3, 3]; use the non-inhibited rescaling")
    # s(k) underflows to 0.0 for |k| >= 373 at d = 1: a count and a range,
    # not 1304 listed modes; .modes keeps the full list
    with pytest.raises(KernelModeError) as exc:
        solve(default_op(0.0, n=1024), flat_load(1024))
    dead = list(range(-1024, -372)) + list(range(373, 1025))
    assert exc.value.modes == dead
    msg = str(exc.value)
    assert msg.startswith("smoothing symbol vanishes on 1304 modes with "
                          "|k| in [373, 1024]: [-1024, -1023, -1022, -1021, ..., "
                          "1021, 1022, 1023, 1024];")
    assert len(msg) < 160


def test_energy_identity():
    # discrete Lax-Milgram consistency: <v, (s + eps^2 q) v> = <v, F>
    op = default_op(1e-3, n=64)
    f = smooth_load(64)
    v = solve(op, f)
    sym = op.total_symbol(v.wavenumbers)
    lhs = np.sum(np.conj(v.coeffs) * sym * v.coeffs).real
    rhs = np.sum(np.conj(v.coeffs) * f.coeffs).real
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_coercivity_constant_scales_with_eps_squared():
    for eps in (1e-1, 1e-2, 1e-3):
        op = default_op(eps)
        c = coercivity_constant(op)
        assert c > 0.3 * eps ** 2   # zeta = 1, |k|^3/(1+k^2)^{3/2} -> 1
        assert c < 2.0 * eps ** 2 + 1.0


# ---------------------------------------------------------------------------
# frequency window
# ---------------------------------------------------------------------------

def test_frequency_window_matches_bisection_oracle():
    op = default_op(1e-4)
    k_star = frequency_window(op)
    # plain bisection on s(k) - eps^2 q(k)
    lo, hi = 1.0, 128.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if op.s_symbol(mid) > 1e-8 * op.q_symbol(mid):
            lo = mid
        else:
            hi = mid
    assert k_star == pytest.approx(0.5 * (lo + hi), abs=1e-6)
    assert k_star == pytest.approx(7.236, abs=2e-3)


def test_frequency_window_grows_as_eps_shrinks():
    values = [frequency_window(default_op(e)) for e in (1e-2, 1e-4, 1e-6, 1e-8)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_frequency_window_order_one_near_eps_one():
    assert frequency_window(default_op(0.9)) < 3.0


def test_frequency_window_asymptotic_ratio():
    # k*(eps)/log(1/eps) -> 1/d; the logarithmic correction decays like
    # log(k*)/log(1/eps), so the 10% band is only reached for tiny eps
    op = default_op(1e-20, n=512)
    ratio = frequency_window(op) / np.log(1e20)
    assert 0.9 < ratio < 1.1
    # at moderate eps the correction is still ~20%
    ratio_mod = frequency_window(default_op(1e-5)) / np.log(1e5)
    assert 0.75 < ratio_mod < 0.9


def test_frequency_window_resolution_error():
    with pytest.raises(WindowResolutionError):
        frequency_window(default_op(1e-30, n=8))


@pytest.mark.parametrize("d,n,eps,want", [
    # roots of the log gap from 50-digit mpmath; eps^2 is subnormal or zero
    # here, so neither resolves from the sampled symbols
    (0.05, 8192, 1e-160, 7190.6615286127696),
    (1.0, 4096, 1e-200, 454.39804624183753),
])
def test_frequency_window_at_underflowing_eps(d, n, eps, want):
    assert frequency_window(default_op(eps, n=n, d=d)) == pytest.approx(want, rel=1e-15)


def _decimal_window(theta, zeta, d, n, eps):
    # 200 bisection steps on the log gap in 50-digit decimal arithmetic;
    # None where the crossover is not below the cutoff
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        D = decimal.Decimal
        level = D(theta).ln() - D(zeta).ln() - 2 * D(eps).ln()

        def gap(k):
            return level + (1 + k * k).ln() / 2 - 2 * D(d) * k - 3 * k.ln()

        lo, hi = D("1e-6"), D(n)
        if gap(hi) >= 0:
            return None
        for _ in range(200):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return float(lo)


def test_frequency_window_matches_decimal_oracle():
    rng = np.random.default_rng(2009)
    resolved = 0
    for _ in range(40):
        theta, zeta = np.exp(rng.uniform(np.log(0.1), np.log(10.0), 2))
        d = float(np.exp(rng.uniform(np.log(0.1), np.log(2.0))))
        n = int(rng.choice([512, 4096, 8192]))
        eps = float(10.0 ** rng.uniform(-300.0, -1.0))
        op = build_default_operator(theta=float(theta), zeta=float(zeta), d=d,
                                    n_modes=n, eps=eps)
        want = _decimal_window(theta, zeta, d, n, eps)
        if want is None:
            with pytest.raises(WindowResolutionError):
                frequency_window(op)
        else:
            resolved += 1
            assert frequency_window(op) == pytest.approx(want, rel=1e-13)
    assert resolved >= 30


def test_window_sharpness_argmax():
    for eps in (1e-3, 1e-5, 1e-7, 1e-9):
        op = default_op(eps)
        k_star = frequency_window(op)
        assert abs(solution_argmax(solve(op, flat_load(128))) - k_star) <= 2.0


def test_argmax_against_dense_sweep_oracle():
    op = default_op(1e-3)
    k = np.arange(0, 129, dtype=float)
    oracle = int(np.argmin(op.total_symbol(k)))
    assert solution_argmax(solve(op, flat_load(128))) == oracle


def test_argmax_ties_match_lexsort_rule():
    # largest |v|, then smallest |k|: the order np.lexsort((|k|, -|v|)) gives
    k = np.arange(-32, 33)
    rng = np.random.default_rng(11)

    def lexsort_rule(v):
        return int(abs(k[np.lexsort((np.abs(k), -np.abs(v.coeffs)))[0]]))

    for peaks in ([5, -5], [9, -9, 5, -5], [-12, 7], [0, 3, -3], [32, -32]):
        phase = np.exp(2j * np.pi * rng.uniform(size=k.size))
        mags = rng.uniform(0.1, 0.5, size=k.size)
        mags[np.isin(k, peaks)] = 2.0
        v = SpectralField(mags * np.where(np.isin(k, peaks), 1.0, phase))
        assert solution_argmax(v) == lexsort_rule(v) == min(abs(p) for p in peaks)
    op = default_op(1e-3, n=32)
    flat = solve(op, flat_load(32))   # |v| ties at every +-k
    assert solution_argmax(flat) == lexsort_rule(flat)


# ---------------------------------------------------------------------------
# A-norm convergence
# ---------------------------------------------------------------------------

def test_va_convergence_monotone_and_matches_closed_form():
    op = default_op(1e-2, n=128)
    f = smooth_load(128)
    eps_list = [10.0 ** -j for j in range(1, 7)]
    rows = va_norm_convergence(op, eps_list, f)
    dists = [r.va_distance for r in rows]
    assert all(b < a for a, b in zip(dists, dists[1:]))
    assert all(rows[i].eps2_b_norm > rows[i + 1].eps2_b_norm
               for i in range(len(rows) - 1))
    # solver-based oracle at one eps
    eps = 1e-3
    v_eps = solve(op.with_eps(eps), f)
    v_0 = solve(op.with_eps(0.0), f)
    k = f.wavenumbers
    s = op.s_symbol(k)
    diff = SpectralField(s * (v_eps.coeffs - v_0.coeffs))
    want = diff.h_norm(-1.5)
    got = va_norm_convergence(op, [eps], f)[0].va_distance
    assert got == pytest.approx(want, rel=1e-12)


def test_va_distance_is_the_eps2_b_norm_bit_for_bit():
    # A (v_eps - v_0) = -eps^2 B v_eps mode by mode; the floating-point
    # arrays -F eps^2 q / (s + eps^2 q) and F eps^2 q / (s + eps^2 q) differ
    # only in sign, so the two columns are one number
    rng = np.random.default_rng(5)
    op = default_op(1e-2, n=64, d=0.3)
    eps_list = [1e-1, 1e-3, 1e-6, 1e-9]
    weight = (1.0 + op.wavenumbers.astype(float) ** 2) ** -1.5
    for f in (smooth_load(64), flat_load(64),
              SpectralField(rng.normal(size=129) + 1j * rng.normal(size=129))):
        rows = va_norm_convergence(op, eps_list, f)
        for eps, row in zip(eps_list, rows):
            a_diff = -f.coeffs * (eps ** 2 * op.q) / (op.s + eps ** 2 * op.q)
            want = float(np.sqrt(np.sum(weight * np.abs(a_diff) ** 2)))
            assert row.va_distance == row.eps2_b_norm == want


def test_h_norm_scaled_past_double_range():
    # max |v_k| ~ 2.7e174 at eps = 0: its square is not a double, the norm is
    op = build_default_operator(theta=0.7, zeta=1.0, d=0.05, n_modes=4096, eps=0.0)
    v = solve(op, flat_load(4096))
    assert np.abs(v.coeffs).max() > 1e170
    want = np.exp(0.5 * logsumexp(2.0 * np.log(np.abs(v.coeffs))))
    assert np.isfinite(v.l2_norm())
    assert v.l2_norm() == pytest.approx(want, rel=1e-12)
    assert SpectralField.zeros(4).h_norm(1.0) == 0.0


def test_va_single_mode_closed_form():
    op = default_op(1e-2, n=32)
    f = SpectralField.delta(32, 5)
    eps = 1e-2
    s = float(op.s_symbol(5.0))
    q = float(op.q_symbol(5.0))
    want = (26.0 ** -0.75) * eps ** 2 * q / (s + eps ** 2 * q)
    got = va_norm_convergence(op, [eps], f)[0].va_distance
    assert got == pytest.approx(want, rel=1e-12)


def test_va_zero_load():
    op = default_op(1e-2, n=32)
    rows = va_norm_convergence(op, [1e-1, 1e-3], SpectralField.zeros(32))
    assert all(r.va_distance == 0.0 for r in rows)


def test_va_refuses_kernel_modes():
    op = with_kernel(default_op(1e-2, n=32), [2])
    with pytest.raises(KernelModeError):
        va_norm_convergence(op, [1e-2], flat_load(32))


# ---------------------------------------------------------------------------
# sensitivity
# ---------------------------------------------------------------------------

def test_sensitivity_formula_and_size():
    op0 = default_op(0.0)
    amp = sensitivity_probe(op0, 10)
    assert amp == pytest.approx(1.0 / (np.sqrt(101.0) * np.exp(-20.0)), rel=1e-10)
    assert amp > 1e7
    # kernel modes elsewhere do not block a probe; probing one names only it
    opk = with_kernel(op0, [3])
    assert sensitivity_probe(opk, 10) == 1.0 / float(op0.s_symbol(10.0))
    with pytest.raises(KernelModeError) as err:
        sensitivity_probe(opk, 3)
    assert err.value.modes == [3]
    with pytest.raises(KernelModeError) as err:
        sensitivity_probe(opk, np.arange(-5, 6))
    assert err.value.modes == [-3, 3]
    # exp(2dk) / (theta sqrt(1+k^2)) stays finite up to ~1e178 at N = 4096
    k = np.arange(4097)
    wide = build_default_operator(theta=0.7, zeta=1.0, d=0.05, n_modes=4096, eps=0.0)
    amps = sensitivity_probe(wide, k)
    assert np.all(np.isfinite(amps))
    np.testing.assert_allclose(
        amps, np.exp(2.0 * 0.05 * k) / (0.7 * np.sqrt(1.0 + k ** 2.0)), rtol=1e-12)


def test_non_finite_quotients_raise_symbol_range_error():
    # at d = 1, N = 360 and eps = 0, s(k) is subnormal but not zero for
    # |k| = 358..360: 1 / s overflows there, and nowhere below
    op0 = build_default_operator(theta=1.0, zeta=1.0, d=1.0, n_modes=360, eps=0.0)
    assert sensitivity_probe(op0, 357) < np.inf
    for probe, modes in ((359, "1 mode with |k| in [359, 359]: [359]"),
                         (np.arange(-360, 361), "6 modes with |k| in [358, 360]: "
                                                "[-360, -359, -358, 358, 359, 360]")):
        with pytest.raises(SymbolRangeError) as err:
            sensitivity_probe(op0, probe)
        assert str(err.value) == ("amplification 1 / (s + eps^2 q) is not finite on "
                                  f"{modes}; s + eps^2 q is too small there at eps = 0.0")
    with pytest.raises(SymbolRangeError, match=r"^solution F / \(s \+ eps\^2 q\) is not "
                                               r"finite on 6 modes with \|k\| in \[358, 360\]"):
        solve(op0, flat_load(360))
    # eps > 0 keeps the divisor normal: the quotients are finite
    op = op0.with_eps(1e-3)
    np.testing.assert_array_equal(solve(op, flat_load(360)).coeffs, 1.0 / op.total)
    # where s vanishes, the kernel check comes first and names the dead modes
    with pytest.raises(KernelModeError):
        sensitivity_probe(default_op(0.0, n=400), np.arange(401))
    with pytest.raises(KernelModeError):
        solve(default_op(0.0, n=400), flat_load(400))


def test_sensitivity_bounded_by_bending_part():
    op = default_op(1e-2)
    k_star = frequency_window(op)
    for k in range(int(k_star) + 1, 129):
        amp = sensitivity_probe(op, k)
        assert amp <= 1.0 / (op.eps ** 2 * float(op.q_symbol(float(k))))


def test_sensitivity_peaks_at_window():
    op = default_op(1e-4)
    k_star = frequency_window(op)
    amps = np.array([sensitivity_probe(op, k) for k in range(0, 129)])
    assert abs(int(np.argmax(amps)) - k_star) <= 2.0
    for probed in (op, op.with_eps(0.0)):
        loop = np.array([sensitivity_probe(probed, k) for k in range(-128, 129)])
        assert np.array_equal(sensitivity_probe(probed, np.arange(-128, 129)), loop)


# ---------------------------------------------------------------------------
# no-distribution limit
# ---------------------------------------------------------------------------

def test_growth_table_diverges_for_polynomial_load():
    op = default_op(0.0, n=128)
    table = no_distribution_limit_probe(op, smooth_load(128))
    assert table.diverges
    slopes = dict(table.rows)
    # log ||v0_N|| / N creeps toward 2d = 2 from below
    assert table.slope_estimate() == pytest.approx(
        slopes[table.rows[-1][0]] / table.rows[-1][0])
    assert 1.5 < table.slope_estimate() < 2.0


def test_growth_slope_reaches_2d_for_large_truncation():
    # the polynomial weight (1+k^2)^{-5/2} costs 5 log(N)/N; within 5% of 2
    # only once N ~ 300.  Stable log-norms make this regime reachable.
    op = build_default_operator(theta=1.0, zeta=1.0, d=1.0, n_modes=360, eps=0.0)
    f = smooth_load(360)
    table = no_distribution_limit_probe(op, f, truncations=[40, 100, 200, 300])
    slopes = {n: ln / n for n, ln in table.rows}
    assert slopes[40] == pytest.approx(1.548, abs=5e-3)
    assert abs(slopes[300] - 2.0) < 0.1
    assert slopes[40] < slopes[100] < slopes[200] < slopes[300]


def test_growth_insensitive_to_polynomial_weight():
    op = default_op(0.0, n=128)
    t0 = no_distribution_limit_probe(op, smooth_load(128), weight_order=0.0)
    t10 = no_distribution_limit_probe(op, smooth_load(128), weight_order=10.0)
    assert t10.diverges
    # a polynomial weight only shifts the slope by r*log(1+N^2)/(2N): the
    # exponential divergence rate is unchanged
    n_last = t0.rows[-1][0]
    shift = 10.0 * np.log1p(float(n_last) ** 2) / (2.0 * n_last)
    assert t10.slope_estimate() == pytest.approx(t0.slope_estimate() - shift,
                                                 abs=0.02)
    assert t10.slope_estimate() > 1.0


def _masked_logsumexp_rows(op, load, truncations, weight_order):
    # per-truncation reference: masked logsumexp over the finite terms
    k = load.wavenumbers
    s = op.s_symbol(k)
    with np.errstate(divide="ignore"):
        terms = (2.0 * (np.log(np.abs(load.coeffs)) - np.log(s))
                 - weight_order * np.log1p(k.astype(float) ** 2))
    rows = []
    for n in truncations:
        t = terms[(np.abs(k) <= n) & np.isfinite(terms)]
        rows.append((n, -np.inf if t.size == 0 else 0.5 * float(logsumexp(t))))
    return rows


@pytest.mark.parametrize("weight_order", [0.0, 10.0])
@pytest.mark.parametrize("load_kind", ["smooth", "holes", "band"])
def test_growth_table_matches_masked_logsumexp(load_kind, weight_order):
    n = 300
    op = build_default_operator(theta=0.8, zeta=1.0, d=0.3, n_modes=n, eps=0.0)
    load = {
        "smooth": smooth_load(n),
        # zero coefficients through the spectrum, at k = 0 but not at |k| = N
        "holes": SpectralField.from_symbol(
            n, lambda k: np.where((k % 3 == 0) & (np.abs(k) < n), 0.0,
                                  (1.0 + k ** 2.0) ** -1.5)),
        "band": SpectralField.from_symbol(n, lambda k: np.where(np.abs(k) <= 7, 1.0, 0.0)),
    }[load_kind]
    truncations = [40, 3, 0, 40, 299, 300, 1000, 7, 6, 2, 2, 150]
    table = no_distribution_limit_probe(op, load, truncations, weight_order)
    want = _masked_logsumexp_rows(op, load, truncations, weight_order)
    assert [n for n, _ in table.rows] == truncations
    for (_, got), (_, ref) in zip(table.rows, want):
        if np.isinf(ref):
            assert got == ref
        else:
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
    assert table.diverges == (load_kind != "band")


def test_growth_table_band_limited_load_is_flat():
    op = default_op(0.0, n=64)
    f = SpectralField.from_symbol(64, lambda k: np.where(np.abs(k) <= 5, 1.0, 0.0))
    table = no_distribution_limit_probe(op, f, truncations=[5, 10, 20, 40])
    assert not table.diverges
    assert table.slope_estimate() is None
    norms = [ln for _, ln in table.rows]
    assert np.allclose(norms, norms[0], atol=1e-12)


# ---------------------------------------------------------------------------
# non-inhibited rescaling
# ---------------------------------------------------------------------------

def test_rescale_kernel_modes_exact():
    op = with_kernel(default_op(1e-2, n=64), [3])
    f = flat_load(64)
    limit, rows = noninhibited_rescale(op, f, [1e-2, 1e-4])
    q3 = float(op.q_symbol(3.0))
    assert limit.coeff(3) == pytest.approx(1.0 / q3, rel=1e-14)
    assert limit.coeff(-3) == pytest.approx(1.0 / q3, rel=1e-14)
    assert limit.coeff(5) == 0.0
    for row in rows:
        assert row.kernel_error < 1e-14 / q3
        assert row.solution.coeff(3) == pytest.approx(1.0 / q3, rel=1e-12)


def test_rescale_off_kernel_decay_rate():
    op = with_kernel(default_op(1e-2, n=64), [3])
    f = flat_load(64)
    _, rows = noninhibited_rescale(op, f, [1e-2, 1e-4])
    s, q = float(op.s_symbol(5.0)), float(op.q_symbol(5.0))
    for row in rows:
        want = row.eps ** 2 / (s + row.eps ** 2 * q)
        assert abs(row.solution.coeff(5)) == pytest.approx(want, rel=1e-12)
        # every off-kernel mode is bounded by eps^2 / s(k)
        k = row.solution.wavenumbers
        sk = op.s_symbol(k)
        off = np.abs(k) != 3
        assert np.all(np.abs(row.solution.coeffs[off])
                      <= row.eps ** 2 / sk[off] * (1 + 1e-12))
    # mode-wise O(eps^2) decay where the smoothing part dominates
    w1 = [abs(r.solution.coeff(1)) for r in rows]
    assert w1[1] / w1[0] == pytest.approx(1e-4, rel=1e-2)


def test_rescale_zero_load_on_kernel():
    op = with_kernel(default_op(1e-2, n=32), [3])
    f = SpectralField.from_symbol(32, lambda k: np.where(np.abs(k) == 3, 0.0, 1.0))
    limit, rows = noninhibited_rescale(op, f, [1e-2, 1e-3])
    assert limit.l2_norm() == 0.0
    assert rows[1].off_kernel_max < rows[0].off_kernel_max


@pytest.mark.parametrize("run", [
    pytest.param(lambda op, f: solve(op, f), id="solve"),
    pytest.param(lambda op, f: va_norm_convergence(op, [1e-2], f), id="va"),
    pytest.param(lambda op, f: no_distribution_limit_probe(op, f), id="growth"),
    pytest.param(lambda op, f: noninhibited_rescale(with_kernel(op, [3]), f, [1e-2]),
                 id="rescale"),
])
def test_load_modes_must_match_operator(run):
    for n_load in (16, 64):
        with pytest.raises(ValueError, match=f"load has N={n_load} modes, "
                                             "the operator N=32"):
            run(default_op(1e-2, n=32), flat_load(n_load))


def test_rescale_refuses_a_subnormal_divisor():
    # the kernel divisor eps^2 q(3) = 27 eps^2 is normal at eps = 1e-154 and
    # subnormal at 1e-155, where w = eps^2 F / (eps^2 q) overflowed to inf
    op = with_kernel(default_op(1e-2, n=64, d=0.5), [3])
    _, rows = noninhibited_rescale(op, flat_load(64), [1e-2, 1e-154])
    assert all(np.isfinite(row.solution.coeffs).all() for row in rows)
    for eps in (1e-155, 1e-160, 1e-163):
        with pytest.raises(SymbolRangeError, match=f"subnormal at eps = {eps!r}"):
            noninhibited_rescale(op, flat_load(64), [1e-2, eps])


def test_rescale_requires_kernel():
    op = default_op(1e-2, n=32)
    with pytest.raises(ValueError):
        noninhibited_rescale(op, flat_load(32), [1e-2])


# ---------------------------------------------------------------------------
# variable-symbol application
# ---------------------------------------------------------------------------

def test_apply_identity_symbol():
    f = smooth_load(32)
    out = apply_variable_symbol(lambda x, k: np.ones_like(x * k, dtype=complex),
                                f, 65)
    assert np.abs(out.coeffs - f.coeffs).max() < 1e-13


def test_apply_matches_diagonal_path():
    op = default_op(1e-3, n=128)
    f = smooth_load(128)
    sym = lambda x, k: op.total_symbol(k) * np.ones_like(x)
    out = apply_variable_symbol(sym, f, 257)
    want = op.total_symbol(f.wavenumbers) * f.coeffs
    assert np.abs(out.coeffs - want).max() < 1e-12 * np.abs(want).max()


def test_apply_modulation_shifts_modes():
    f = SpectralField.delta(16, 4)
    out = apply_variable_symbol(lambda x, k: np.exp(1j * x) * np.ones_like(k),
                                f, 64)
    assert abs(out.coeff(5) - 1.0) < 1e-12
    mask = np.abs(out.wavenumbers - 5) > 0
    assert np.abs(out.coeffs[mask]).max() < 1e-12


def _dense_apply(sigma, field, n_quad):
    # the whole (n_quad, 2N+1) quadrature matrix, then the FFT projection
    x = 2.0 * np.pi * np.arange(n_quad) / n_quad
    k = field.wavenumbers
    values = (sigma(x[:, None], k[None, :]) * np.exp(1j * np.outer(x, k))) @ field.coeffs
    return (np.fft.fft(values) / n_quad)[k % n_quad]


@pytest.mark.parametrize("symbol", ["complex", "real", "x-only"])
@pytest.mark.parametrize("n_modes,n_quad", [
    (8, 17), (8, 1000),              # one block: n_quad = 2N+1 and n_quad >> 2N+1
    (300, 601), (300, 2411),         # 218-row blocks; neither is a multiple
])
def test_apply_matches_dense_quadrature(rng, symbol, n_modes, n_quad):
    sigma = {
        "complex": lambda x, k: np.exp(1j * x * k / 7) / (1 + k ** 2),
        "real": lambda x, k: np.exp(-0.01 * np.abs(k)) * (1.0 + 0.4 * np.cos(3 * x)),
        "x-only": lambda x, k: np.exp(1j * x) + 0.5 * np.sin(x),
    }[symbol]
    f = SpectralField(rng.normal(size=2 * n_modes + 1)
                      + 1j * rng.normal(size=2 * n_modes + 1))
    got = apply_variable_symbol(sigma, f, n_quad).coeffs
    want = _dense_apply(sigma, f, n_quad)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def test_apply_working_memory_is_blocked(rng):
    # the three full (n_quad, 2N+1) complex arrays of a dense evaluation
    # would take about 200 MB here
    n_modes = 1024
    f = SpectralField(rng.normal(size=2 * n_modes + 1)
                      + 1j * rng.normal(size=2 * n_modes + 1))
    sigma = lambda x, k: np.exp(-0.01 * np.abs(k)) * (1.0 + 0.5 * np.cos(x))
    tracemalloc.start()
    try:
        apply_variable_symbol(sigma, f, 2 * n_modes + 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_apply_aliasing_guard():
    with pytest.raises(AliasingError):
        apply_variable_symbol(lambda x, k: np.ones_like(x * k), smooth_load(32), 60)
