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
with ``N`` and ``eps``, as required arguments, and ``Q_FLOOR = 1e-2``.  The
module exposes the phenomena that make the limit problem sensitive: the
balance window ``|k| ~ log(1/eps)``, strong convergence in the ``A``-norm
for every load, exponential amplification of single-mode load
perturbations at ``eps = 0``, divergence of truncated limit solutions in
every polynomially weighted norm, and the rescaled limit in the
non-inhibited (kernel) case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np


# q(0) / zeta: keeps B strictly positive on constants
Q_FLOOR = 1e-2


class KernelModeError(ValueError):
    """Diagonal solve hit zero symbol values at eps = 0."""

    def __init__(self, modes):
        self.modes = list(modes)
        mags = [abs(int(k)) for k in self.modes]
        shown = self.modes if len(self.modes) <= 8 else \
            self.modes[:4] + ["..."] + self.modes[-4:]
        listed = ", ".join(str(k) for k in shown)
        noun = "mode" if len(self.modes) == 1 else "modes"
        super().__init__(
            f"smoothing symbol vanishes on {len(self.modes)} {noun} with "
            f"|k| in [{min(mags)}, {max(mags)}]: [{listed}]; "
            "use the non-inhibited rescaling")


class WindowResolutionError(ValueError):
    """No symbol crossover below the mode cutoff."""


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

@dataclass(frozen=True)
class ReducedOperator:
    """Diagonal-in-frequency model of ``A + eps^2 B``.

    ``s_symbol`` and ``q_symbol`` are vectorized even functions of the mode
    number.
    """

    s_symbol: Callable
    q_symbol: Callable
    eps: float
    n_modes: int = 128

    def __post_init__(self):
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")

    def with_eps(self, eps: float) -> "ReducedOperator":
        """The same symbols at another ``eps``, sharing the mode grids."""
        op = replace(self, eps=eps)
        op.__dict__["_grids"] = self._grids
        return op

    @cached_property
    def _grids(self) -> dict:
        # n -> ModeGrid; shared by with_eps copies, which keep both symbols
        return {}

    def grid(self, n_modes: int | None = None) -> "ModeGrid":
        """The eps-independent samples on ``k = -n..n`` (default ``n = N``).

        Made once per ``n`` for this operator and every ``with_eps`` copy of
        it, so an eps sweep samples ``s`` and ``q`` once.
        """
        n = self.n_modes if n_modes is None else n_modes
        if n not in self._grids:
            self._grids[n] = ModeGrid(self, n)
        return self._grids[n]

    def symbol_values(self, k) -> tuple:
        k = np.asarray(k, dtype=float)
        return (np.asarray(self.s_symbol(k), dtype=float),
                np.asarray(self.q_symbol(k), dtype=float))

    def total_symbol(self, k) -> np.ndarray:
        s, q = self.symbol_values(k)
        return s + self.eps ** 2 * q


class ModeGrid:
    """Samples of an operator's symbols on the modes ``k = -n..n``.

    ``s`` and ``q`` are taken on construction; the order-3 weights
    ``(1 + k^2)^(3/2)`` and ``(1 + k^2)^(-3/2)`` on first use.
    """

    def __init__(self, op: ReducedOperator, n_modes: int):
        self.k = np.arange(-n_modes, n_modes + 1)
        self.s, self.q = op.symbol_values(self.k)

    @cached_property
    def order3(self) -> np.ndarray:
        return (1.0 + self.k.astype(float) ** 2) ** 1.5

    @cached_property
    def order3_inverse(self) -> np.ndarray:
        return (1.0 + self.k.astype(float) ** 2) ** -1.5


def build_default_operator(theta: float, zeta: float, d: float,
                           n_modes: int, eps: float) -> ReducedOperator:
    """Default model operator from the boundary energy coefficients.

    ``theta`` and ``zeta`` are the membrane and bending coefficients of the
    layer analysis (``layers.energy_symbols``).  ``d > 0`` is the
    transmission decay rate: the harmonic extension across the domain is
    modeled as ``exp(-d |k|)``, and it enters squared because the smoothing
    operator is the two-sided composition with the layer form.  ``q(0)`` is
    ``zeta * Q_FLOOR``.
    """
    if d <= 0:
        raise ValueError("transmission decay rate d must be positive")
    if theta <= 0 or zeta <= 0:
        raise ValueError("theta and zeta must be positive")

    def s_symbol(k, _t=theta, _d=d):
        k = np.abs(np.asarray(k, dtype=float))
        return _t * np.sqrt(1.0 + k ** 2) * np.exp(-2.0 * _d * k)

    def q_symbol(k, _z=zeta):
        k = np.abs(np.asarray(k, dtype=float))
        out = _z * k ** 3
        return np.where(k == 0, _z * Q_FLOOR, out)

    return ReducedOperator(s_symbol, q_symbol, eps, n_modes)


def with_kernel(op: ReducedOperator, kernel_modes: Sequence[int]) -> ReducedOperator:
    """Zero the smoothing symbol on ``|k|`` in ``kernel_modes`` (non-inhibited model)."""
    kset = sorted({abs(int(k)) for k in kernel_modes})
    if not kset:
        raise ValueError("kernel set must be nonempty")
    base = op.s_symbol

    def s_symbol(k, _base=base, _kset=tuple(kset)):
        k = np.asarray(k, dtype=float)
        out = np.asarray(_base(k), dtype=float).copy()
        mask = np.isin(np.abs(k), _kset)
        return np.where(mask, 0.0, out)

    return replace(op, s_symbol=s_symbol)


# ---------------------------------------------------------------------------
# solves and probes
# ---------------------------------------------------------------------------

def solve(op: ReducedOperator, load: SpectralField) -> SpectralField:
    """Diagonal solve ``v_k = F_k / (s(k) + eps^2 q(k))``.

    Exact for the frozen-coefficient model.  At ``eps = 0`` a vanishing
    symbol value raises :class:`KernelModeError` listing the dead modes.
    """
    g = op.grid(load.n_modes)
    return SpectralField(load.coeffs / _nonzero_symbol(op, g.k, g.s, g.q))


def _nonzero_symbol(op: ReducedOperator, k, s, q) -> np.ndarray:
    """``s + eps^2 q`` at the modes ``k``; :class:`KernelModeError` where it vanishes."""
    denom = s + op.eps ** 2 * q
    dead = k[denom <= 0.0]
    if dead.size:
        raise KernelModeError(dead.tolist())
    return denom


def coercivity_constant(op: ReducedOperator, n_modes: int | None = None) -> float:
    """``min_k (s + eps^2 q)(k) / (1 + k^2)^(3/2)`` over the resolved modes.

    For ``eps > 0`` this stays above ``c * eps^2`` with ``c`` set by the
    order-3 lower bound; it is the discrete coercivity constant of the
    quadratic form.
    """
    g = op.grid(n_modes)
    return float(((g.s + op.eps ** 2 * g.q) / g.order3).min())


def frequency_window(op: ReducedOperator) -> float:
    """Continuous crossover ``k*`` solving ``s(k) = eps^2 q(k)``.

    The balance frequency of the smoothing and bending parts; for the
    default model it grows like ``log(1/eps) / d`` (with a slowly decaying
    logarithmic correction).  Raises :class:`WindowResolutionError` when no
    crossover exists below the cutoff.
    """
    from scipy.optimize import brentq

    if op.eps <= 0:
        raise ValueError("frequency window needs eps > 0")

    tiny = np.finfo(float).tiny

    def gap(k):
        s, q = op.symbol_values(np.array([k]))
        with np.errstate(divide="ignore"):   # eps^2 q underflows to 0 below eps ~ 1e-162
            return float(np.log(max(s[0], tiny)) - np.log(op.eps ** 2 * q[0]))

    lo = 1e-6
    if gap(lo) <= 0:
        return 0.0
    hi = float(op.n_modes)
    if gap(hi) >= 0:
        raise WindowResolutionError(
            f"no crossover below N={op.n_modes}; increase the cutoff")
    return float(brentq(gap, lo, hi, xtol=1e-10))


def solution_argmax(v: SpectralField) -> int:
    """Nonnegative mode index maximizing ``|v_k|`` of a solved field.

    Of the modes with the largest ``|v_k|`` the smallest ``|k|`` is returned.
    """
    mags = np.abs(v.coeffs)
    return int(np.abs(v.wavenumbers[mags == mags.max()]).min())


@dataclass(frozen=True)
class ConvergenceRow:
    eps: float
    va_distance: float
    eps2_b_norm: float


def va_norm_convergence(op: ReducedOperator, eps_list: Sequence[float],
                        load: SpectralField) -> list:
    """``A``-norm distance table ``|A (v_eps - v_0)|_{H^{-3/2}}`` over eps.

    Also reports ``|eps^2 B v_eps|_{H^{-3/2}}``, the quantity whose decay
    drives the limit argument.  Requires a strictly positive smoothing
    symbol (inhibited case): the limit ``v_0`` is the eps = 0 diagonal solve.
    """
    g = op.grid(load.n_modes)
    k, s, q, weight = g.k, g.s, g.q, g.order3_inverse
    if np.any(s <= 0):
        raise KernelModeError(k[s <= 0].tolist())
    rows = []
    for eps in eps_list:
        denom = s + eps ** 2 * q
        a_diff = -load.coeffs * (eps ** 2 * q) / denom   # s * (v_eps - v_0)
        b_part = load.coeffs * (eps ** 2 * q) / denom    # eps^2 q v_eps
        rows.append(ConvergenceRow(
            float(eps),
            float(np.sqrt(np.sum(weight * np.abs(a_diff) ** 2))),
            float(np.sqrt(np.sum(weight * np.abs(b_part) ** 2))),
        ))
    return rows


def sensitivity_probe(op: ReducedOperator, k_probe):
    """Amplification ``1 / (s(k) + eps^2 q(k))`` of a mode-``k`` load perturbation.

    Exponentially large at ``eps = 0``, capped by ``1 / (eps^2 q(k))``
    otherwise.  ``k_probe`` is one mode (a float is returned) or an array of
    modes (an array is returned).  The symbol is inverted directly, so the
    value is finite wherever ``1 / (s + eps^2 q)`` is, including the top
    modes at ``eps = 0`` where the L2 ratio of a solved delta load squared
    past the double range.  Raises :class:`KernelModeError` only for probed
    modes whose symbol vanishes.
    """
    k = np.asarray(k_probe)
    if np.any(np.abs(k) > op.n_modes):
        raise ValueError("probe mode beyond cutoff")
    g = op.grid()
    i = k + op.n_modes
    amp = 1.0 / _nonzero_symbol(op, k, g.s[i], g.q[i])
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
    g = op.grid(load.n_modes)
    k, s = g.k, g.s
    if np.any(s <= 0):
        raise KernelModeError(k[s <= 0].tolist())
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
    rows = [(int(n), -np.inf if c == 0 else 0.5 * float(running[c - 1]))
            for n, c in zip(truncations, counts)]
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
                         eps_list: Sequence[float],
                         kernel_modes: Sequence[int]) -> tuple:
    """Rescaled solutions ``w_eps = eps^2 v_eps`` for a kernel-bearing operator.

    On the kernel set the rescaled solution equals ``F(k)/q(k)`` for every
    ``eps``; off the kernel it decays like ``eps^2 / s(k)`` mode-wise.  The
    limit field (``F/q`` on the kernel, zero off it) is returned along with
    one row per ``eps``.
    """
    kset = sorted({abs(int(k)) for k in kernel_modes})
    if not kset:
        raise ValueError("kernel set is empty; use va_norm_convergence")
    g = op.grid(load.n_modes)
    k, s, q = g.k, g.s, g.q
    on_kernel = np.isin(np.abs(k), kset)
    if np.any(s[on_kernel] > 0):
        raise ValueError("operator smoothing symbol must vanish on the kernel set")
    if np.any(s[~on_kernel] <= 0):
        raise KernelModeError(k[(~on_kernel) & (s <= 0)].tolist())

    limit = np.where(on_kernel, load.coeffs / q, 0.0)
    rows = []
    for eps in eps_list:
        if eps <= 0:
            raise ValueError("eps values must be positive")
        w = eps ** 2 * load.coeffs / (s + eps ** 2 * q)
        kernel_err = float(np.abs(w[on_kernel] - limit[on_kernel]).max())
        off = np.abs(w[~on_kernel])
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
