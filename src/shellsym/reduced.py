"""Spectral solver for the reduced boundary problem on the circle.

After the layer reduction, the thin-shell problem collapses to an equation
for the free-edge trace,

    (A + eps^2 B) v = F,

where ``A`` is a smoothing operator (its symbol decays exponentially in the
mode number through the cross-domain transmission) and ``B`` is elliptic of
order 3.  With frozen coefficients both operators are diagonal on Fourier
modes, so fields are vectors of coefficients indexed ``k = -N..N`` and every
solve is a division by ``s(k) + eps^2 q(k)``.

The default model symbols are

    s(k) = theta * (1 + k^2)^(1/2) * exp(-2 d |k|),
    q(k) = zeta * |k|^3            (q(0) floored at zeta * Q_FLOOR),

with ``theta, zeta`` the boundary energy coefficients and ``d`` the
transmission decay rate; :func:`build_default_operator` takes all three,
with ``N`` and ``eps``, as required arguments, and ``Q_FLOOR = 1e-2``.  A
:class:`ReducedOperator` is these parameters and three read-only samples on
``k = -N..N``, taken once: ``s``, ``q`` and ``total = s + eps^2 q``, which
every solve divides by.  ``s`` and ``q`` share one range rule: a sample that
is not a finite double (``theta (1 + k^2)^(1/2)`` or ``zeta |k|^3``
overflows) raises :class:`SymbolRangeError`, and so does a quotient of a
:func:`solve` or a :func:`sensitivity_probe` that is not finite (a divisor
that is subnormal but not zero), after the check for vanishing divisors
that raises :class:`KernelModeError`.  The order-3 weights
``(1 + k^2)^(+-3/2)`` are formed where they are read: ``(1 + k^2)^(3/2)``
once per ``N``, and ``(1 + k^2)^(-3/2)`` once per ``A``-norm table.  A sweep
reads one operator and one :func:`sensitivity_probe` array per ``eps``, the
array being ``|v|`` of a flat load.  The crossover ``s(k) = eps^2 q(k)`` is
found from the closed-form log gap, so it resolves at every ``eps > 0``.  The
module exposes the phenomena that make the limit problem sensitive: the
balance window ``|k| ~ log(1/eps)``, strong convergence in the ``A``-norm
for every load, exponential amplification of single-mode load perturbations
at ``eps = 0``, divergence of truncated limit solutions in every
polynomially weighted norm, and the rescaled limit in the non-inhibited
(kernel) case.
"""

from __future__ import annotations

import copy
import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import NumericalError, _read_only

# q(0) / zeta: keeps B strictly positive on constants
Q_FLOOR = 1e-2


class KernelModeError(NumericalError):
    """Diagonal solve hit zero symbol values at eps = 0."""

    def __init__(self, modes):
        self.modes = list(modes)
        super().__init__(f"smoothing symbol vanishes on {_mode_list(self.modes)}; "
                         "use the non-inhibited rescaling")


def _mode_list(modes: list) -> str:
    """``n modes with |k| in [lo, hi]: [k, ...]``, with at most eight modes listed."""
    mags = [abs(int(k)) for k in modes]
    shown = modes if len(modes) <= 8 else modes[:4] + ["..."] + modes[-4:]
    noun = "mode" if len(modes) == 1 else "modes"
    return (f"{len(modes)} {noun} with |k| in [{min(mags)}, {max(mags)}]: "
            f"[{', '.join(map(str, shown))}]")


class WindowResolutionError(NumericalError):
    """No symbol crossover below the mode cutoff."""


class SymbolRangeError(NumericalError):
    """A sample of the smoothing or bending symbol is not finite, or a divisor is subnormal."""


class AliasingError(ValueError):
    """Quadrature grid too coarse for the field bandwidth."""


# ---------------------------------------------------------------------------
# spectral fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpectralField:
    """Complex Fourier coefficients on the circle, modes ``k = -N..N``.

    Real-valued fields satisfy ``coeff(-k) == conj(coeff(k))``.  Sobolev
    norms use the standard weight: ``|u|_{H^s}^2 = sum (1+k^2)^s |u_k|^2``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 != 1:
            raise ValueError("coeffs must be a 1-D array of odd length 2N+1")
        object.__setattr__(self, "coeffs", c)

    @property
    def n_modes(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def wavenumbers(self) -> np.ndarray:
        n = self.n_modes
        return np.arange(-n, n + 1)

    def coeff(self, k: int) -> complex:
        n = self.n_modes
        if abs(k) > n:
            return 0.0
        return complex(self.coeffs[k + n])

    @classmethod
    def zeros(cls, n_modes: int) -> "SpectralField":
        return cls(np.zeros(2 * n_modes + 1, dtype=complex))

    @classmethod
    def from_symbol(cls, n_modes: int, fn: Callable) -> "SpectralField":
        k = np.arange(-n_modes, n_modes + 1)
        return cls(np.asarray(fn(k), dtype=complex))

    @classmethod
    def delta(cls, n_modes: int, k: int) -> "SpectralField":
        if abs(k) > n_modes:
            raise ValueError(f"delta mode {k} beyond cutoff N={n_modes}")
        f = cls.zeros(n_modes)
        f.coeffs[k + n_modes] = 1.0
        return f

    def h_norm(self, s: float) -> float:
        # scaled by the largest magnitude so that squaring cannot overflow
        # or underflow where the norm itself is representable
        mags = np.abs(self.coeffs)
        m = float(mags.max())
        if m == 0.0 or not np.isfinite(m):
            return m
        k = self.wavenumbers.astype(float)
        return m * float(np.sqrt(np.sum((1.0 + k ** 2) ** s * (mags / m) ** 2)))

    def l2_norm(self) -> float:
        return self.h_norm(0.0)


def smooth_load(n_modes: int, decay: float = 2.0) -> SpectralField:
    """Real load with polynomially decaying spectrum ``(1 + k^2)^(-decay)``."""
    return SpectralField.from_symbol(n_modes,
                                     lambda k: (1.0 + k.astype(float) ** 2) ** (-decay))


def flat_load(n_modes: int) -> SpectralField:
    return SpectralField.from_symbol(n_modes, lambda k: np.ones_like(k, dtype=float))


# ---------------------------------------------------------------------------
# reduced operator
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ReducedOperator:
    """Diagonal-in-frequency model of ``A + eps^2 B`` on the modes ``k = -N..N``.

    ``kernel`` holds the ``|k|`` on which the smoothing symbol is zeroed
    (the non-inhibited model of :func:`with_kernel`).  The kernel rule lives
    here, so direct construction, :func:`with_kernel` and :meth:`with_eps`
    all meet it: integral modes within the cutoff ``N``, kept as their
    sorted distinct ``|k|``.  ``theta``, ``zeta`` and ``d`` must be positive
    and finite.  Construction samples ``s``, ``q`` and ``total = s + eps^2 q``
    once, read-only, and refuses an ``s`` or ``q`` that is not finite.
    :meth:`with_eps` shares ``s`` and ``q`` and forms ``total``;
    :func:`with_kernel` shares ``q`` and resamples the other two.
    """

    theta: float
    zeta: float
    d: float
    n_modes: int
    eps: float
    kernel: tuple = ()

    def __post_init__(self):
        if not 0 < self.d < math.inf:
            raise ValueError("transmission decay rate d must be positive and finite")
        if not (0 < self.theta < math.inf and 0 < self.zeta < math.inf):
            raise ValueError("theta and zeta must be positive and finite")
        vars(self)["q"] = self._sample(self.q_symbol, "bending", "zeta")
        self._settle(self.eps, self.kernel)

    def _settle(self, eps: float, kernel) -> "ReducedOperator":
        """Set ``eps`` and ``kernel``, with ``s`` for a new kernel and ``total``."""
        if eps < 0:
            raise ValueError("eps must be nonnegative")
        if not all(float(m).is_integer() for m in kernel):
            raise ValueError(f"kernel modes {kernel} must be integers")
        kernel = tuple(sorted({abs(int(m)) for m in kernel}))
        if kernel and kernel[-1] > self.n_modes:
            raise ValueError(f"kernel mode |k| = {kernel[-1]} exceeds the cutoff "
                             f"N = {self.n_modes}")
        if kernel != self.kernel or "s" not in vars(self):
            vars(self)["kernel"] = kernel     # s_symbol reads it
            vars(self)["s"] = self._sample(self.s_symbol, "smoothing", "theta")
        vars(self).update(eps=eps, total=self.s + eps ** 2 * self.q)
        _read_only(self.s, self.q, self.total)
        return self

    def _sample(self, symbol: Callable, name: str, param: str) -> np.ndarray:
        """``symbol`` on the modes; :class:`SymbolRangeError` if a sample is not finite."""
        with np.errstate(over="ignore", invalid="ignore"):
            values = symbol(self.wavenumbers)
        if np.isfinite(values).all():
            return values
        k = np.abs(self.wavenumbers[~np.isfinite(values)])
        raise SymbolRangeError(
            f"{name} symbol is not finite on {k.size} modes with |k| in "
            f"[{k.min()}, {k.max()}]: {param} = {getattr(self, param)!r} is too large")

    @property
    def wavenumbers(self) -> np.ndarray:
        return np.arange(-self.n_modes, self.n_modes + 1)

    def with_eps(self, eps: float) -> "ReducedOperator":
        """The same operator at another ``eps``, sharing the samples."""
        return copy.copy(self)._settle(eps, self.kernel)

    def s_symbol(self, k) -> np.ndarray:
        """``theta (1 + k^2)^(1/2) exp(-2 d |k|)``, zero on the kernel set."""
        k = np.abs(np.asarray(k, dtype=float))
        s = self.theta * np.sqrt(1.0 + k ** 2) * np.exp(-2.0 * self.d * k)
        if not self.kernel:
            return np.asarray(s)
        return np.where(np.isin(k, self.kernel), 0.0, s)

    def q_symbol(self, k) -> np.ndarray:
        """``zeta |k|^3``, floored at ``zeta * Q_FLOOR`` at ``k = 0``."""
        k = np.abs(np.asarray(k, dtype=float))
        return np.where(k == 0, self.zeta * Q_FLOOR, self.zeta * k ** 3)

    def total_symbol(self, k) -> np.ndarray:
        return self.s_symbol(k) + self.eps ** 2 * self.q_symbol(k)


def build_default_operator(theta: float, zeta: float, d: float,
                           n_modes: int, eps: float) -> ReducedOperator:
    """Default model operator from the boundary energy coefficients.

    ``theta`` and ``zeta`` are the membrane and bending coefficients of the
    layer analysis (``layers.layer_energy_coefficient`` and
    ``layers.bending_symbol_coefficient``).  ``d > 0`` is the
    transmission decay rate: the harmonic extension across the domain is
    modeled as ``exp(-d |k|)``, and it enters squared because the smoothing
    operator is the two-sided composition with the layer form.  ``q(0)`` is
    ``zeta * Q_FLOOR``.
    """
    return ReducedOperator(theta, zeta, d, n_modes, eps)


def with_kernel(op: ReducedOperator, kernel_modes: Sequence[int]) -> ReducedOperator:
    """Zero the smoothing symbol on ``|k|`` in ``kernel_modes`` (non-inhibited model).

    The set must be nonempty; :class:`ReducedOperator` checks and
    normalises its modes.
    """
    if not len(kernel_modes):
        raise ValueError("kernel set must be nonempty")
    return copy.copy(op)._settle(op.eps, tuple(kernel_modes))


# ---------------------------------------------------------------------------
# solves and probes
# ---------------------------------------------------------------------------

def _same_modes(op: ReducedOperator, load: SpectralField) -> None:
    if load.n_modes != op.n_modes:
        raise ValueError(f"load has N={load.n_modes} modes, the operator "
                         f"N={op.n_modes}")


def _positive(values: np.ndarray, k) -> np.ndarray:
    """``values``; :class:`KernelModeError` listing the modes ``k`` where they vanish."""
    dead = k[values <= 0.0]
    if dead.size:
        raise KernelModeError(dead.tolist())
    return values


def _finite(quotient: np.ndarray, k, name: str, eps: float) -> np.ndarray:
    """``quotient``; :class:`SymbolRangeError` listing the modes ``k`` where it is not finite."""
    bad = k[~np.isfinite(quotient)]
    if bad.size:
        raise SymbolRangeError(f"{name} is not finite on {_mode_list(bad.tolist())}; "
                               f"s + eps^2 q is too small there at eps = {eps!r}")
    return quotient


def solve(op: ReducedOperator, load: SpectralField) -> SpectralField:
    """Diagonal solve ``v_k = F_k / (s(k) + eps^2 q(k))``.

    Exact for the frozen-coefficient model.  At ``eps = 0`` a vanishing
    symbol value raises :class:`KernelModeError` listing the dead modes;
    after that check, a ``v_k`` that is not finite (a subnormal divisor)
    raises :class:`SymbolRangeError` listing its modes.
    """
    _same_modes(op, load)
    k = op.wavenumbers
    total = _positive(op.total, k)
    with np.errstate(over="ignore", invalid="ignore"):
        v = load.coeffs / total
    return SpectralField(_finite(v, k, "solution F / (s + eps^2 q)", op.eps))


def coercivity_constant(op: ReducedOperator) -> float:
    """``min_k (s + eps^2 q)(k) / (1 + k^2)^(3/2)`` over the resolved modes.

    For ``eps > 0`` this stays above ``c * eps^2`` with ``c`` set by the
    order-3 lower bound; it is the discrete coercivity constant of the
    quadratic form.
    """
    return float((op.total / _order3(op.n_modes)).min())


@functools.lru_cache(maxsize=1)
def _order3(n_modes: int) -> np.ndarray:
    """``(1 + k^2)^(3/2)`` on ``k = -N..N``, read-only: a sweep reads it once per eps."""
    weight = (1.0 + np.arange(-n_modes, n_modes + 1).astype(float) ** 2) ** 1.5
    return _read_only(weight)[0]


def frequency_window(op: ReducedOperator) -> float:
    """Continuous crossover ``k*`` solving ``s(k) = eps^2 q(k)``.

    The balance frequency of the smoothing and bending parts; it grows like
    ``log(1/eps) / d`` (with a slowly decaying logarithmic correction).  The
    root is that of the closed-form log gap

        log theta - log zeta - 2 log eps + log1p(k^2) / 2 - 2 d k - 3 log k,

    which is strictly decreasing on ``k > 0`` and has no term that under- or
    overflows at any ``eps > 0``.  Bisection on ``(1e-6, N)`` narrows it to
    adjacent doubles.  The kernel set, which zeroes ``s`` at integer modes
    only, is ignored.  Returns 0.0 when the bending part dominates already
    at ``k = 1e-6``; raises :class:`WindowResolutionError` when no crossover
    exists below the cutoff.
    """
    if op.eps <= 0:
        raise ValueError("frequency window needs eps > 0")
    level = math.log(op.theta) - math.log(op.zeta) - 2.0 * math.log(op.eps)

    def gap(k):
        return level + 0.5 * math.log1p(k * k) - 2.0 * op.d * k - 3.0 * math.log(k)

    lo, hi = 1e-6, float(op.n_modes)
    if gap(lo) <= 0:
        return 0.0
    if gap(hi) >= 0:
        raise WindowResolutionError(
            f"no crossover below N={op.n_modes}; increase the cutoff")
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if gap(mid) > 0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def solution_argmax(v: SpectralField) -> int:
    """Nonnegative mode index maximizing ``|v_k|`` of a solved field.

    Of the modes with the largest ``|v_k|`` the smallest ``|k|`` is returned.
    """
    return _argmax(np.abs(v.coeffs), v.wavenumbers)


def _argmax(mags: np.ndarray, k: np.ndarray) -> int:
    """The rule of :func:`solution_argmax` on the magnitudes ``mags`` of the modes ``k``."""
    return int(np.abs(k[mags == mags.max()]).min())


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    va_distance: float
    eps2_b_norm: float


def va_norm_convergence(op: ReducedOperator, eps_list: Sequence[float],
                        load: SpectralField) -> list:
    """``A``-norm distance table ``|A (v_eps - v_0)|_{H^{-3/2}}`` over eps.

    Also reports ``|eps^2 B v_eps|_{H^{-3/2}}``, the quantity whose decay
    drives the limit argument.  The two are one norm: ``A (v_eps - v_0) =
    -eps^2 B v_eps`` mode by mode, and in floating point the two arrays
    differ only in sign, so one array gives both fields, bit for bit.
    Requires a strictly positive smoothing symbol (inhibited case): the
    limit ``v_0`` is the eps = 0 diagonal solve.
    """
    return _va_rows(op, map(op.with_eps, eps_list), load)


def _va_rows(op: ReducedOperator, ops, load: SpectralField) -> list:
    """The rows of :func:`va_norm_convergence` for ``ops``, ``op`` at each ``eps``."""
    _same_modes(op, load)
    _positive(op.s, op.wavenumbers)
    weight = (1.0 + op.wavenumbers.astype(float) ** 2) ** -1.5
    rows = []
    for each in ops:
        b_part = each.eps ** 2 * op.q * load.coeffs / each.total   # eps^2 q v_eps
        norm = float(np.sqrt(np.sum(weight * np.abs(b_part) ** 2)))
        rows.append(ConvergenceRow(float(each.eps), norm, norm))
    return rows


def sensitivity_probe(op: ReducedOperator, k_probe):
    """Amplification ``1 / (s(k) + eps^2 q(k))`` of a mode-``k`` load perturbation.

    Exponentially large at ``eps = 0``, capped by ``1 / (eps^2 q(k))``
    otherwise.  ``k_probe`` is one mode (a float is returned) or an array of
    modes (an array is returned).  The symbol is inverted directly, so the
    value is finite wherever ``1 / (s + eps^2 q)`` is, including the top
    modes at ``eps = 0`` where the L2 ratio of a solved delta load squared
    past the double range.  Raises :class:`KernelModeError` for probed
    modes whose symbol vanishes and, after that check,
    :class:`SymbolRangeError` for those where the amplification overflows.
    """
    k = np.asarray(k_probe)
    if np.any(np.abs(k) > op.n_modes):
        raise ValueError("probe mode beyond cutoff")
    total = _positive(op.total[k + op.n_modes], k)
    with np.errstate(over="ignore"):
        amp = 1.0 / total
    amp = _finite(amp, k, "amplification 1 / (s + eps^2 q)", op.eps)
    return float(amp) if amp.ndim == 0 else amp


# ---------------------------------------------------------------------------
# no-distribution-limit probe
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GrowthTable:
    """Log-norms of truncated limit solutions against the truncation order.

    ``rows`` are ``(N, log |v0_N|)`` pairs (natural log; computed stably so
    arbitrarily large norms are representable).  ``diverges`` is False for
    band-limited loads, which do admit a genuine limit solution.
    """

    rows: list
    weight_order: float
    diverges: bool

    def slope_estimate(self) -> float | None:
        """``log |v0_N| / N`` at the largest truncation (None if bounded)."""
        if not self.diverges:
            return None
        n, log_norm = self.rows[-1]
        return log_norm / n


def no_distribution_limit_probe(op: ReducedOperator, load: SpectralField,
                                truncations: Sequence[int] | None = None,
                                weight_order: float = 0.0) -> GrowthTable:
    """Growth of ``|v0_N|_{H^{-r}}`` for the formal limit ``v0 = F / s``.

    For any load whose spectrum is not band-limited, the exponential decay
    of ``s`` beats every polynomial weight and the truncated norms diverge
    with slope ``log |v0_N| / N -> 2d``; a band-limited load gives constant
    norms beyond its support (a genuine solution exists, so there is no
    divergence to probe).

    All truncations are read from one running log-sum over the modes
    ordered by ``|k|``: one O(N log N) pass, whatever their number.
    """
    _same_modes(op, load)
    k = op.wavenumbers
    s = _positive(op.s, k)
    if truncations is None:
        truncations = list(range(5, load.n_modes + 1, 5))
    support = np.abs(k[np.abs(load.coeffs) > 0])
    band_limited = support.size == 0 or support.max() < load.n_modes
    with np.errstate(divide="ignore"):
        log_v = np.log(np.abs(load.coeffs)) - np.log(s)
    terms = 2.0 * log_v - weight_order * np.log1p(k.astype(float) ** 2)
    terms[~np.isfinite(terms)] = -np.inf
    order = np.argsort(np.abs(k), kind="stable")
    running = np.logaddexp.accumulate(terms[order])
    counts = np.searchsorted(np.abs(k)[order], truncations, side="right")
    logs = np.where(counts > 0, 0.5 * running[counts - 1], -np.inf)
    rows = [(int(n), log) for n, log in zip(truncations, logs.tolist())]
    return GrowthTable(rows, weight_order, not band_limited)


# ---------------------------------------------------------------------------
# non-inhibited rescaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RescaleRow:
    eps: float
    kernel_error: float        # max |w_eps(k) - F(k)/q(k)| over the kernel set
    off_kernel_max: float      # max |w_eps(k)| off the kernel set
    solution: SpectralField


def noninhibited_rescale(op: ReducedOperator, load: SpectralField,
                         eps_list: Sequence[float]) -> tuple:
    """Rescaled solutions ``w_eps = eps^2 v_eps`` for a kernel-bearing operator.

    The kernel set is the operator's (:func:`with_kernel`).  On it the
    rescaled solution equals ``F(k)/q(k)`` for every ``eps``; off the kernel
    it decays like ``eps^2 / s(k)`` mode-wise.  The limit field (``F/q`` on
    the kernel, zero off it) is returned along with one row per ``eps``.
    After the check for off-kernel zeros of ``s``, an ``eps`` at which
    ``s + eps^2 q`` is subnormal on some mode (on the kernel, from about
    ``eps = 1e-154`` on) raises :class:`SymbolRangeError`.
    """
    if not op.kernel:
        raise ValueError("kernel set is empty; use va_norm_convergence")
    _same_modes(op, load)
    k = op.wavenumbers
    on_kernel = np.isin(np.abs(k), op.kernel)
    off_kernel = ~on_kernel
    _positive(op.s[off_kernel], k[off_kernel])

    limit = np.where(on_kernel, load.coeffs / op.q, 0.0)
    kernel_limit = limit[on_kernel]
    rows = []
    for eps in eps_list:
        if eps <= 0:
            raise ValueError("eps values must be positive")
        total = op.s + eps ** 2 * op.q       # the total of op.with_eps(eps)
        if total.min() < np.finfo(float).tiny:     # w would overflow
            raise SymbolRangeError(f"s + eps^2 q is subnormal at eps = {eps!r}: eps is too small")
        w = eps ** 2 * load.coeffs / total
        kernel_err = float(np.abs(w[on_kernel] - kernel_limit).max())
        off = np.abs(w[off_kernel])
        rows.append(RescaleRow(float(eps), kernel_err,
                               float(off.max()) if off.size else 0.0,
                               SpectralField(w)))
    return SpectralField(limit), rows


# ---------------------------------------------------------------------------
# variable-symbol application
# ---------------------------------------------------------------------------

def apply_variable_symbol(sigma: Callable, field: SpectralField,
                          n_quad: int) -> SpectralField:
    """Apply an ``x``-dependent symbol by quadrature on the circle.

    Computes ``(S u)(x_j) = sum_k sigma(x_j, k) u_k exp(i k x_j)`` on
    ``n_quad`` equispaced points and projects back onto the ``2N+1`` modes.
    ``sigma`` must accept array arguments broadcast over ``(x, k)``.  For an
    ``x``-independent symbol this reduces exactly to mode-wise
    multiplication.  Requires ``n_quad >= 2N + 1``.

    The quadrature rows are processed in blocks of about ``2**17`` entries,
    so the working memory is O(block * (2N+1)), not O(n_quad * N).
    """
    n = field.n_modes
    if n_quad < 2 * n + 1:
        raise AliasingError(f"n_quad={n_quad} under-resolves 2N+1={2 * n + 1} modes")
    x = 2.0 * np.pi * np.arange(n_quad) / n_quad
    k = field.wavenumbers
    # exp(i k x_j) = roots[(j k) mod n_quad], and a row j = start + r of a
    # block factors as roots[(start k) mod n_quad] * roots[(r k) mod n_quad]
    roots = np.exp(1j * x)
    k_mod = k % n_quad
    rows = min(n_quad, max(1, 2 ** 17 // k.size))
    block_phase = roots[np.outer(np.arange(rows), k_mod) % n_quad]
    values = np.empty(n_quad, dtype=complex)
    for start in range(0, n_quad, rows):
        stop = min(start + rows, n_quad)
        shifted = roots[start * k_mod % n_quad] * field.coeffs
        weights = np.asarray(sigma(x[start:stop, None], k[None, :]))
        values[start:stop] = (weights * block_phase[:stop - start]) @ shifted
    hat = np.fft.fft(values) / n_quad
    return SpectralField(hat[k_mod])
