"""Boundary-layer modes of the fixed-edge membrane problem.

The layer reads the symbols of :mod:`shellsym.symbols` in its own
variables: with the edge at ``y2 = 0`` and the shell at ``y2 > 0``, ``xi1``
is reflected and ``d/dy2 = lam = i*xi2``.  So the first-order strain pencil
is ``G0 + lam*G1 = L'_rigidity(-xi1, -i*lam)``, whose characteristic
exponents are the roots of ``b11*lam^2 + 2i*b12*xi1*lam - b22*xi1^2 = 0``:

    lam_pm(xi1) = -i*xi1*b12/b11 +- |xi1|/b11 * sqrt(b11*b22 - b12^2).

``lam_minus`` decays into the domain.  The fourth-order membrane operator in
the layer is ``P(lam) = L'_membrane(-xi1, -i*lam)``, which factorizes as
``(G0c^T - lam*G1^T) A (G0 + lam*G1)`` with ``A`` the reduced membrane
rigidity matrix; each exponent is a double root of its characteristic
determinant, and the second solution is the Jordan profile
``(y2*w + v) exp(lam*y2)``.  Every link of that Jordan chain is closed-form:

* ``w = (i*lam/xi1 * b11/b22, 1, lam/b22)`` spans ``ker(G0 + lam*G1)``;
* ``u0 ~ (-i*lam/xi1, i*xi1/lam, 1)`` spans ``ker(G0c^T - lam*G1^T)``: rows 1
  and 2 fix it, and row 3 is the characteristic equation;
* the profile has the constant strain ``r = (G0 + lam*G1) v + G1 w`` and
  solves the operator exactly when ``A r`` lies along ``u0``; the Fredholm
  alternative under the bilinear pairing then gives ``r = tau A^{-1} u0`` with
  ``tau = u0^T G1 w / u0^T A^{-1} u0``;
* rows 1 and 2 of ``(G0 + lam*G1) v = r - G1 w`` give
  ``v = (i*rho1/xi1, rho2/lam, 0)`` with ``rho = r - G1 w``; its component
  along ``w`` is then removed.

:func:`jordan_residual` checks the chain ``P(lam) w = 0``,
``P(lam) v + P'(lam) w = 0``.  This module builds those modes, the matched
layer correction that enforces the tangential boundary conditions, and the
two boundary energy coefficients: ``theta`` for the membrane layer symbol
``theta*|xi1|``, proportional to ``<A r, r> = |tau|^2 u0^H A^{-1} u0``, and
``zeta`` for the bending symbol ``zeta*|xi1|^3``.

At an umbilic point (``b12 = 0``, ``b11 = b22``) with the ``frobenius`` or
``isotropic`` rigidity the pairing ``u0^T A^{-1} u0`` vanishes: the double
exponent is semisimple, no Jordan profile exists, and :class:`StructureError`
is raised.  Near such a point the pairing falls like the distance squared,
so ``theta``, which carries ``|tau|^2``, grows like its inverse square, the
fourth power of the inverse distance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import NumericalError
from .geometry import frozen_point, surface_elliptic_triple
from .symbols import _coefficients_at, _gram, builtin_system


class DegenerateModeError(ValueError):
    """A mode construction hit a numerically defective configuration."""


class StructureError(NumericalError):
    """Eigenstructure does not match the expected simple/Jordan layout."""


def rigidity_roots(b11: float, b12: float, b22: float, xi1: float) -> tuple:
    """Closed-form layer exponents ``(lam_plus, lam_minus)``.

    Homogeneous of degree one in ``xi1 > 0``; ``Re(lam_minus) < 0``.
    """
    b11, b12, b22 = surface_elliptic_triple((b11, b12, b22))
    if xi1 == 0:
        raise ValueError("xi1 must be nonzero")
    root = np.sqrt(b11 * b22 - b12 ** 2)
    drift = -1j * xi1 * b12 / b11
    spread = abs(xi1) * root / b11
    return drift + spread, drift - spread


def layer_eigenvector(lam: complex, xi1: float, b) -> np.ndarray:
    """Null vector of ``G0 + lam*G1``, normalized to unit second component.

    ``w = (i*lam/xi1 * b11/b22, 1, lam/b22)``.
    """
    b11, b12, b22 = surface_elliptic_triple(b)
    if xi1 == 0:
        raise ValueError("xi1 must be nonzero")
    return np.array([1j * lam / xi1 * b11 / b22, 1.0, lam / b22], dtype=complex)


@dataclass(frozen=True)
class LayerMode:
    """One characteristic layer mode of the rigidity system.

    ``v`` is the generalized (Jordan) vector; the associated profiles are
    ``w*exp(lam*y2)`` and ``(y2*w + v)*exp(lam*y2)``.
    """

    lam: complex
    w: np.ndarray
    v: np.ndarray
    xi1: float
    b: tuple


def fourth_order_symbol(b, a_membrane: np.ndarray, xi1: float) -> np.ndarray:
    """Coefficients ``(P0, P1, P2)`` of ``P(lam) = L'_membrane(-xi1, -i*lam)``.

    The Gram product of the rigidity strain stack at ``-xi1`` is the membrane
    stack in ``xi2``; ``xi2 = -i*lam`` multiplies its ``m``-th coefficient by
    ``(-i)^m``.
    """
    point = frozen_point(*surface_elliptic_triple(b))
    strain = _coefficients_at(builtin_system("rigidity", point), point, -xi1)
    membrane = _gram(strain, np.asarray(a_membrane, dtype=float), strain)
    return membrane * np.array([1.0, -1j, -1.0])[:, None, None]


def _jordan_chain(lam: complex, w: np.ndarray, a_membrane: np.ndarray,
                  xi1: float, b) -> tuple:
    """Closed-form Jordan chain ``(u0, tau, r, v)`` of the exponent ``lam``.

    ``u0`` is the unit kernel vector of ``G0c^T - lam*G1^T``, ``tau`` the
    solvability scalar under the bilinear pairing, ``r = tau A^{-1} u0`` the
    constant strain ``(G0 + lam*G1) v + G1 w`` of the Jordan profile, and
    ``v`` the Jordan vector with no component along ``w``.
    """
    u0 = np.array([-1j * lam / xi1, 1j * xi1 / lam, 1.0])
    u0 /= np.linalg.norm(u0)
    a_inv_u0 = np.linalg.solve(a_membrane, u0)
    denom = complex(u0 @ a_inv_u0)                      # bilinear pairing
    # |u0^T A^-1 u0| / u0^H A^-1 u0 lies in [0, 1] whatever the scale of A
    if abs(denom) < 1e-10 * np.vdot(u0, a_inv_u0).real:
        raise StructureError(
            "double exponent is semisimple for this rigidity tensor; "
            "no Jordan profile exists "
            f"(b={tuple(b)}, xi1={xi1})")
    g1_w = np.array([0.0, w[1], w[0]])                  # G1 w
    tau = complex(u0 @ g1_w) / denom
    r = tau * a_inv_u0
    rho = r - g1_w
    # rows 1 and 2 of (G0 + lam*G1) v = rho with v3 = 0; row 3 then holds
    v = np.array([1j * rho[0] / xi1, rho[1] / lam, 0.0])
    v -= (np.vdot(w, v) / np.vdot(w, w)) * w
    return u0, tau, r, v


def _layer_mode(lam: complex, b: tuple, a_membrane: np.ndarray,
                xi1: float) -> LayerMode:
    """The :class:`LayerMode` of exponent ``lam`` with its Jordan vector."""
    w = layer_eigenvector(lam, xi1, b)
    return LayerMode(lam, w, _jordan_chain(lam, w, a_membrane, xi1, b)[3], xi1, b)


def build_layer_modes(b, a_membrane: np.ndarray, xi1: float) -> tuple:
    """(decaying, growing) :class:`LayerMode` pair with Jordan vectors."""
    b = surface_elliptic_triple(b)
    lam_p, lam_m = rigidity_roots(*b, xi1)
    return tuple(_layer_mode(lam, b, a_membrane, xi1) for lam in (lam_m, lam_p))


def jordan_residual(mode: LayerMode, a_membrane: np.ndarray) -> float:
    """Larger norm of the Jordan-chain residuals ``P(lam) v + P'(lam) w`` and
    ``P(lam) w`` of ``(y2*w + v) exp(lam*y2)``, relative to the data size."""
    p0, p1, p2 = coeffs = fourth_order_symbol(mode.b, a_membrane, mode.xi1)
    p_lam = (p2 * mode.lam + p1) * mode.lam + p0
    dp_lam = 2 * p2 * mode.lam + p1
    scale = max(np.linalg.norm(coeffs), 1.0) \
        * (np.linalg.norm(mode.w) + np.linalg.norm(mode.v))
    return max(np.linalg.norm(p_lam @ mode.v + dp_lam @ mode.w),
               np.linalg.norm(p_lam @ mode.w)) / scale


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def _edge_amplitude(b11: float, b12: float, b22: float, xi1: float) -> float:
    """Layer amplitude per unit edge trace ``b11*b22 / (2|xi1| sqrt(b11*b22 - b12^2))``."""
    return b11 * b22 / (2.0 * abs(xi1) * np.sqrt(b11 * b22 - b12 ** 2))


@dataclass(frozen=True)
class MatchingResult:
    """Constants of the modified layer profile.

    ``c1 .. c4`` multiply, in order: ``w_p e^{lam_p y2}``,
    ``w_m e^{lam_m y2}``, ``(y2 w_p + v_p) e^{lam_p y2}`` and
    ``(y2 w_m + v_m) e^{lam_m y2}``.  Matching out of the layer forces
    ``c3 = 0`` and pins ``c1``; the edge conditions on the first two
    components determine ``(c2, c4)``.  ``alpha = c2/c1``, ``beta = c4/c1``.
    """

    c1: complex
    c2: complex
    c3: complex
    c4: complex
    alpha: complex
    beta: complex
    mode_minus: LayerMode
    mode_plus: LayerMode

    def edge_trace(self) -> np.ndarray:
        """The matched profile at ``y2 = 0``; components 1 and 2 vanish."""
        return self.c1 * self.mode_plus.w + self.c2 * self.mode_minus.w \
            + self.c4 * self.mode_minus.v


def matching_constants(xi1: float, b, a_membrane: np.ndarray,
                       w3_trace_hat: complex = 1.0) -> MatchingResult:
    """Solve the layer-matching problem for a given edge trace.

    The 2x2 system ``[[w_m1, v_m1], [w_m2, v_m2]] (c2, c4) = -c1 (w_p1, w_p2)``
    enforces the first two components of the modified profile to vanish at
    the edge.
    """
    b = surface_elliptic_triple(b)
    mode_m, mode_p = build_layer_modes(b, a_membrane, xi1)
    c1 = _edge_amplitude(*b, xi1) * w3_trace_hat
    sys2 = np.array([[mode_m.w[0], mode_m.v[0]],
                     [mode_m.w[1], mode_m.v[1]]], dtype=complex)
    cond = np.linalg.cond(sys2)
    if not np.isfinite(cond) or cond > 1e10:
        raise DegenerateModeError(
            f"edge-matching system singular at xi1={xi1}, b={tuple(b)}")
    c2, c4 = np.linalg.solve(sys2, -c1 * np.array([mode_p.w[0], mode_p.w[1]]))
    return MatchingResult(c1, complex(c2), 0.0, complex(c4),
                          complex(c2 / c1), complex(c4 / c1), mode_m, mode_p)


def frequency_cutoff(xi1: float, eps: float) -> float:
    """High-pass window ``H(xi1 / sqrt(log(1/eps)))``.

    Vanishes for ``|z| <= 1/2``, equals one for ``|z| >= 1``, quintic
    smoothstep (monotone, C^2) in between.  Requires ``0 < eps < 1``.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    z = abs(xi1) / np.sqrt(np.log(1.0 / eps))
    if z <= 0.5:
        return 0.0
    if z >= 1.0:
        return 1.0
    t = 2.0 * (z - 0.5)
    return float(t ** 3 * (10.0 - 15.0 * t + 6.0 * t ** 2))


# ---------------------------------------------------------------------------
# boundary energy coefficients
# ---------------------------------------------------------------------------

def layer_energy_coefficient(b, a_membrane: np.ndarray) -> float:
    """Membrane-layer energy coefficient ``theta``.

    Evaluates, in stretched layer coordinates ``s = |xi1| y2``, the exact
    exponential integral of the rigidity-contracted strain of the matched
    correction: with ``r = (G0 + lam_m G1) v_m + G1 w_m = tau A^{-1} u0``
    the strain of the Jordan chain and ``c`` the edge amplitude, both at
    ``xi1 = 1``,

        theta = c^2 * <A r, r> / (2 |Re lam_m|).

    ``r`` is invariant under ``xi1 -> s*xi1`` (s > 0), and ``c`` and
    ``lam_m`` scale as ``1/xi1`` and ``xi1``, so ``theta`` is a
    frequency-independent positive constant of the data ``(A, b)``.
    """
    b = surface_elliptic_triple(b)
    _, lam_m = rigidity_roots(*b, 1.0)
    w = layer_eigenvector(lam_m, 1.0, b)
    _, _, r, _ = _jordan_chain(lam_m, w, a_membrane, 1.0, b)
    theta = _edge_amplitude(*b, 1.0) ** 2 \
        * float(np.vdot(r, np.asarray(a_membrane) @ r).real) / (2.0 * abs(lam_m.real))
    if not 0 < theta < np.inf:      # a nan is not positive
        raise StructureError("layer energy coefficient must be "
                             + ("finite" if theta > 0 else "positive"))
    return theta


def membrane_layer_energy(xi1: float, w3_hat: complex, b,
                          a_membrane: np.ndarray) -> float:
    """Single-frequency membrane-layer energy ``theta * |xi1| * |w3_hat|^2``.

    This is the boundary quadratic form whose symbol defines the order-1/2
    operator ``P``; the first power of ``|xi1|`` carries the first-derivative
    strain content against the ``1/|xi1|`` layer width.
    """
    theta = layer_energy_coefficient(b, a_membrane)
    return theta * abs(xi1) * abs(w3_hat) ** 2


def bending_symbol_coefficient(b, b_bending: np.ndarray) -> float:
    """Free-edge bending energy coefficient ``zeta``.

    The decaying near-edge mode ``u3 = u3_hat * exp(lam_m y2)`` has bending
    strain vector ``xi1^2 * (-1, mu^2, -2i*mu*sign(xi1)) u3_hat`` with
    ``mu = lam_m/|xi1|``, the ``u3`` column of the bending rows at
    ``(-xi1, -i*lam_m)``; integrating its rigidity contraction in ``y2``
    yields ``zeta * |xi1|^3 * |u3_hat|^2`` with

        zeta = <B rho_unit, rho_unit> / (2 |Re mu|),

    ``rho_unit`` and ``mu`` taken at ``xi1 = 1``.
    """
    _, mu = rigidity_roots(*b, 1.0)
    rho_unit = np.array([-1.0, mu ** 2, -2j * mu], dtype=complex)
    zeta = float(np.vdot(rho_unit, np.asarray(b_bending) @ rho_unit).real) \
        / (2.0 * abs(mu.real))
    if not 0 < zeta < np.inf:
        raise StructureError("bending symbol coefficient must be "
                             + ("finite" if zeta > 0 else "positive"))
    return zeta


def bending_layer_energy(xi1: float, u3_hat: complex, b,
                         b_bending: np.ndarray) -> float:
    """Single-frequency bending energy ``zeta * |xi1|^3 * |u3_hat|^2``.

    Exactly the ``y2`` quadrature of second-derivative products of
    ``exp(lam_m y2)``: two powers of ``xi1^2`` against one layer width.
    """
    zeta = bending_symbol_coefficient(b, b_bending)
    return zeta * abs(xi1) ** 3 * abs(u3_hat) ** 2


# ---------------------------------------------------------------------------
# sublayer scaling
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SublayerScaling:
    """Width of the clamping sublayer and the quartic-balance cross-check."""

    delta: float
    quartic_root_magnitude: float


def sublayer_scaling_check(eps: float) -> SublayerScaling:
    """Width ``delta = sqrt(eps)`` of the normal-clamping sublayer.

    Balancing fourth-order terms of size ``1/delta^4`` against
    ``eps^2/delta^8`` gives ``delta = eps^(1/2)``; the roots of
    ``1 + eps^2 lam^4 = 0`` all have magnitude ``eps^(-1/2)``, returned as a
    cross-check.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    delta = float(np.sqrt(eps))
    roots = np.roots([eps ** 2, 0.0, 0.0, 0.0, 1.0])
    return SublayerScaling(delta, float(np.abs(roots).mean()))
