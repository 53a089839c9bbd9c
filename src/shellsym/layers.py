"""Boundary-layer modes of the fixed-edge membrane problem.

Near the fixed edge the frozen first-order strain system in the tangential
Fourier variable ``xi1`` reads ``(G0 + G1 d/dy2) F(w) = 0`` with

    G0 = [[-i*xi1, 0, -b11], [0, 0, -b22], [0, -i*xi1, -2*b12]],
    G1 = [[0, 0, 0], [0, 1, 0], [1, 0, 0]],

whose characteristic exponents are the roots of
``b11*lam^2 + 2i*b12*xi1*lam - b22*xi1^2 = 0``:

    lam_pm(xi1) = -i*xi1*b12/b11 +- |xi1|/b11 * sqrt(b11*b22 - b12^2).

``lam_minus`` decays into the domain.  The fourth-order membrane operator in
the layer factorizes as ``(G0c^T - G1^T d/dy2) A (G0 + G1 d/dy2)`` with ``A``
the reduced membrane rigidity matrix; each exponent is a double root of its
characteristic determinant, and the second solution is the Jordan profile
``(y2*w + v) exp(lam*y2)``.  This module builds those modes, the matched
layer correction that enforces the tangential boundary conditions, and the
two boundary energy coefficients: ``theta`` for the membrane layer symbol
``theta*|xi1|`` and ``zeta`` for the bending symbol ``zeta*|xi1|^3``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import ElasticityTensor, SurfaceEllipticityError
from .polymat import ExpPolyMode, PolyMatrix, apply_layer_ode
from .symbols import DegenerateModeError


class StructureError(ValueError):
    """Eigenstructure does not match the expected simple/Jordan layout."""


def _b_triple(b) -> tuple:
    b11, b12, b22 = (float(x) for x in b)
    if b11 <= 0 or b11 * b22 - b12 ** 2 <= 0:
        raise SurfaceEllipticityError(
            f"need b11 > 0 and b11*b22 - b12^2 > 0, got b=({b11}, {b12}, {b22})")
    return b11, b12, b22


def layer_matrices(b, xi1: float) -> tuple:
    """The pair ``(G0, G1)`` of the first-order layer system."""
    b11, b12, b22 = _b_triple(b)
    g0 = np.array([[-1j * xi1, 0.0, -b11],
                   [0.0, 0.0, -b22],
                   [0.0, -1j * xi1, -2.0 * b12]], dtype=complex)
    g1 = np.array([[0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0],
                   [1.0, 0.0, 0.0]], dtype=complex)
    return g0, g1


def rigidity_roots(b11: float, b12: float, b22: float, xi1: float) -> tuple:
    """Closed-form layer exponents ``(lam_plus, lam_minus)``.

    Homogeneous of degree one in ``xi1 > 0``; ``Re(lam_minus) < 0``.
    """
    b11, b12, b22 = _b_triple((b11, b12, b22))
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
    b11, b12, b22 = _b_triple(b)
    if xi1 == 0:
        raise ValueError("xi1 must be nonzero")
    return np.array([1j * lam / xi1 * b11 / b22, 1.0, lam / b22], dtype=complex)


@dataclass(frozen=True)
class LayerMode:
    """One characteristic layer mode of the rigidity system.

    ``v`` is the generalized (Jordan) vector when one exists; the associated
    profiles are ``w*exp(lam*y2)`` and ``(y2*w + v)*exp(lam*y2)``.
    """

    lam: complex
    w: np.ndarray
    v: np.ndarray | None
    xi1: float
    b: tuple

    def jordan_profile(self) -> ExpPolyMode:
        if self.v is None:
            raise StructureError("mode carries no generalized vector")
        return ExpPolyMode(self.lam, [self.v, self.w])


def fourth_order_polymatrix(b, a_membrane: np.ndarray, xi1: float) -> PolyMatrix:
    """``(G0c^T - G1^T z) A (G0 + G1 z)`` as a quadratic polynomial matrix."""
    g0, g1 = layer_matrices(b, xi1)
    l0, l1 = g0.conj().T, -g1.T
    a = np.asarray(a_membrane, dtype=float)
    return PolyMatrix(np.stack([
        l0 @ a @ g0,
        l1 @ a @ g0 + l0 @ a @ g1,
        l1 @ a @ g1,
    ]))


def generalized_eigenvector(lam: complex, w: np.ndarray,
                            a_membrane: np.ndarray, xi1: float, b) -> tuple:
    """Jordan vector ``v`` of the fourth-order layer operator, with ``(tau, u0)``.

    ``u0`` is the unit kernel vector of ``G0c^T - lam*G1^T`` and ``tau`` the
    solvability scalar ``<G1 w, u0> / <A^{-1} u0, u0>`` of the Fredholm
    alternative, taken with the bilinear pairing ``<x, y> = sum x_i y_i``
    (the kernel of the transposed pencil equals that of the adjoint factor,
    so this pairing is the one under which the alternative closes).  The
    returned ``v`` solves ``(G0 + lam*G1) v + G1 w = A^{-1} (tau*u0)`` and is
    gauged to have no component along the eigenvector ``w``.
    """
    g0, g1 = layer_matrices(b, xi1)
    a = np.asarray(a_membrane, dtype=float)
    big_m = g0 + lam * g1
    big_l = g0.conj().T - lam * g1.T

    _, sv, vh = np.linalg.svd(big_l)
    if sv[-1] > 1e-8 * sv[0]:
        raise StructureError(f"lam={lam} is not a characteristic exponent")
    if sv[-2] < 1e-8 * sv[0]:
        raise StructureError("adjoint kernel is not one-dimensional")
    u0 = vh[-1].conj()

    a_inv_u0 = np.linalg.solve(a, u0)
    denom = complex(u0 @ a_inv_u0)                      # bilinear pairing
    if abs(denom) < 1e-10:
        raise StructureError(
            "double exponent is semisimple for this rigidity tensor; "
            "no Jordan profile exists "
            f"(b={tuple(b)}, xi1={xi1})")
    tau = complex(u0 @ (g1 @ w)) / denom
    rhs = tau * a_inv_u0 - g1 @ w
    v, *_ = np.linalg.lstsq(big_m, rhs, rcond=None)
    if np.linalg.norm(big_m @ v - rhs) > 1e-8 * (np.linalg.norm(rhs) + 1.0):
        raise DegenerateModeError(
            f"generalized-eigenvector system inconsistent at lam={lam}")
    v = v - (np.vdot(w, v) / np.vdot(w, w)) * w
    return v, tau, u0


def _layer_mode(lam: complex, b: tuple, a_membrane: np.ndarray,
                xi1: float) -> LayerMode:
    """The :class:`LayerMode` of exponent ``lam`` with its Jordan vector."""
    w = layer_eigenvector(lam, xi1, b)
    v, _, _ = generalized_eigenvector(lam, w, a_membrane, xi1, b)
    return LayerMode(lam, w, v, xi1, b)


def build_layer_modes(b, a_membrane: np.ndarray, xi1: float) -> tuple:
    """(decaying, growing) :class:`LayerMode` pair with Jordan vectors."""
    b = _b_triple(b)
    lam_p, lam_m = rigidity_roots(*b, xi1)
    return tuple(_layer_mode(lam, b, a_membrane, xi1) for lam in (lam_m, lam_p))


def jordan_residual(mode: LayerMode, a_membrane: np.ndarray) -> float:
    """Largest polynomial-coefficient norm of the fourth-order operator
    applied to ``(y2*w + v) exp(lam*y2)``, relative to the data size."""
    pm = fourth_order_polymatrix(mode.b, a_membrane, mode.xi1)
    out = apply_layer_ode(pm, mode.jordan_profile())
    scale = max(np.linalg.norm(np.asarray(pm.coeffs)), 1.0) \
        * (np.linalg.norm(mode.w) + np.linalg.norm(mode.v))
    return max(np.linalg.norm(c) for c in out.coeffs) / scale


def strain_residual_vector(mode: LayerMode) -> np.ndarray:
    """First-order strain of the Jordan profile: the constant vector
    ``(G0 + lam*G1) v + G1 w`` driving the layer energy."""
    g0, g1 = layer_matrices(mode.b, mode.xi1)
    return (g0 + mode.lam * g1) @ mode.v + g1 @ mode.w


# ---------------------------------------------------------------------------
# decaying profiles and matching
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayingProfile:
    """Two-exponential near-edge profile of a zero-strain displacement.

    The profile with tangential-normal trace removed at the edge and third
    component ``w3_hat`` is ``C * (w_plus e^{lam_p y2} - w_minus e^{lam_m y2})``
    with ``C = b11*b22 / (2 |xi1| sqrt(b11*b22 - b12^2)) * w3_hat``.
    """

    amplitude: complex
    modes: tuple          # pair of ExpPolyMode

    def eval(self, y2) -> np.ndarray:
        return sum(m.eval(y2) for m in self.modes)

    def value_at_zero(self) -> np.ndarray:
        return sum(m.value_at_zero() for m in self.modes)


def _edge_amplitude(b11: float, b12: float, b22: float, xi1: float) -> float:
    """Layer amplitude per unit edge trace ``b11*b22 / (2|xi1| sqrt(b11*b22 - b12^2))``."""
    return b11 * b22 / (2.0 * abs(xi1) * np.sqrt(b11 * b22 - b12 ** 2))


def decaying_profile(w3_trace_hat: complex, xi1: float, b) -> DecayingProfile:
    """Near-edge mode profile reconstructed from its third-component trace."""
    b11, b12, b22 = _b_triple(b)
    if xi1 == 0:
        raise ValueError("xi1 = 0: low frequencies are handled by the cutoff")
    lam_p, lam_m = rigidity_roots(b11, b12, b22, xi1)
    w_p = layer_eigenvector(lam_p, xi1, b)
    w_m = layer_eigenvector(lam_m, xi1, b)
    amp = _edge_amplitude(b11, b12, b22, xi1) * w3_trace_hat
    return DecayingProfile(amp, (
        ExpPolyMode(lam_p, [amp * w_p]),
        ExpPolyMode(lam_m, [-amp * w_m]),
    ))


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

    def modified_profile(self) -> list:
        """Exp-poly modes of the matched profile (components 1, 2 vanish at 0)."""
        w_p = self.mode_plus.w
        w_m, v_m = self.mode_minus.w, self.mode_minus.v
        return [
            ExpPolyMode(self.mode_plus.lam, [self.c1 * w_p]),
            ExpPolyMode(self.mode_minus.lam,
                        [self.c2 * w_m + self.c4 * v_m, self.c4 * w_m]),
        ]


def matching_constants(xi1: float, b, a_membrane: np.ndarray,
                       w3_trace_hat: complex = 1.0) -> MatchingResult:
    """Solve the layer-matching problem for a given edge trace.

    The 2x2 system ``[[w_m1, v_m1], [w_m2, v_m2]] (c2, c4) = -c1 (w_p1, w_p2)``
    enforces the first two components of the modified profile to vanish at
    the edge.
    """
    b11, b12, b22 = _b_triple(b)
    mode_m, mode_p = build_layer_modes(b, a_membrane, xi1)
    c1 = _edge_amplitude(b11, b12, b22, xi1) * w3_trace_hat
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

def layer_energy_coefficient(b, a_membrane: np.ndarray,
                             xi1: float = 1.0) -> float:
    """Membrane-layer energy coefficient ``theta``.

    Evaluates, in stretched layer coordinates ``s = |xi1| y2``, the exact
    exponential integral of the rigidity-contracted strain of the matched
    correction: with ``r = (G0 + lam_m G1) v_m + G1 w_m`` and
    ``mu = lam_m/|xi1|``,

        theta = (b11*b22 / (2 sqrt(b11*b22 - b12^2)))^2
                * <A r, r> / (2 |Re mu|).

    ``r`` is invariant under ``xi1 -> c*xi1`` (c > 0), so ``theta`` is a
    frequency-independent positive constant of the data ``(A, b)``.
    """
    b11, b12, b22 = b = _b_triple(b)
    _, lam_m = rigidity_roots(*b, xi1)
    mode_m = _layer_mode(lam_m, b, a_membrane, xi1)
    r = strain_residual_vector(mode_m)
    mu = mode_m.lam / abs(xi1)
    pref = (b11 * b22 / (2.0 * np.sqrt(b11 * b22 - b12 ** 2))) ** 2
    theta = pref * float(np.vdot(r, np.asarray(a_membrane) @ r).real) \
        / (2.0 * abs(mu.real))
    if theta <= 0:
        raise StructureError("layer energy coefficient must be positive")
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


def layer_correction_energy_quadrature(xi1: float, w3_hat: complex, b,
                                       a_membrane: np.ndarray) -> float:
    """Direct quadrature of the matched correction's membrane energy.

    The correction normalized by the edge trace of the third component has
    the constant strain vector ``c1 * r`` and decays like
    ``exp(lam_m y2)``; its energy is ``|c1|^2 <A r, r> / (2 |Re lam_m|)``
    and falls off like ``|xi1|^{-3}`` at fixed trace: the layer motion is
    near-rigid, which is the amplification mechanism.
    """
    b = _b_triple(b)
    _, lam_m = rigidity_roots(*b, xi1)
    mode_m = _layer_mode(lam_m, b, a_membrane, xi1)
    r = strain_residual_vector(mode_m)
    c1 = _edge_amplitude(*b, xi1) * w3_hat
    quad = float(np.vdot(r, np.asarray(a_membrane) @ r).real) \
        / (2.0 * abs(mode_m.lam.real))
    return abs(c1) ** 2 * quad


def bending_symbol_coefficient(b, b_bending: np.ndarray,
                               xi1: float = 1.0) -> float:
    """Free-edge bending energy coefficient ``zeta``.

    The decaying near-edge mode ``u3 = u3_hat * exp(lam_m y2)`` has bending
    strain vector ``xi1^2 * (-1, mu^2, -2i*mu*sign(xi1)) u3_hat`` with
    ``mu = lam_m/|xi1|``; integrating its rigidity contraction in ``y2``
    yields ``zeta * |xi1|^3 * |u3_hat|^2`` with

        zeta = <B rho_unit, rho_unit> / (2 |Re mu|).
    """
    b11, b12, b22 = _b_triple(b)
    _, lam_m = rigidity_roots(b11, b12, b22, xi1)
    mu = lam_m / abs(xi1)
    rho_unit = np.array([-1.0, mu ** 2, -2j * mu * np.sign(xi1)], dtype=complex)
    zeta = float(np.vdot(rho_unit, np.asarray(b_bending) @ rho_unit).real) \
        / (2.0 * abs(mu.real))
    if zeta <= 0:
        raise StructureError("bending symbol coefficient must be positive")
    return zeta


def bending_layer_energy(xi1: float, u3_hat: complex, b,
                         b_bending: np.ndarray) -> float:
    """Single-frequency bending energy ``zeta * |xi1|^3 * |u3_hat|^2``.

    Exactly the ``y2`` quadrature of second-derivative products of
    ``exp(lam_m y2)``: two powers of ``xi1^2`` against one layer width.
    """
    zeta = bending_symbol_coefficient(b, b_bending)
    return zeta * abs(xi1) ** 3 * abs(u3_hat) ** 2


def energy_symbols(b, elasticity: ElasticityTensor) -> tuple:
    """The boundary energy coefficients ``(theta, zeta)`` for curvature ``b``.

    ``theta`` weighs the order-1/2 membrane symbol ``theta*|xi1|`` and
    ``zeta`` the order-3/2 bending symbol ``zeta*|xi1|^3``.
    """
    return (layer_energy_coefficient(b, elasticity.membrane),
            bending_symbol_coefficient(b, elasticity.bending))


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
