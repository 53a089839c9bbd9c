"""Douglis-Nirenberg systems, ellipticity and the Shapiro-Lopatinskii test.

A system is described by integer indices ``t_j`` (unknowns) and ``s_k``
(equations) and by the stack ``C_m`` of its frozen-coefficient principal
symbol ``L'(x, (1, z)) = sum_m C_m z^m``.  Entry ``(k, j)`` is homogeneous in
``xi`` of degree ``s_k + t_j``, so the stack fixes ``L'(x, xi)`` at every
frequency; the built-in stacks are written in closed form from the strain
and bending rows, and every value and pencil coefficient is read from them.
Ellipticity asks ``det L'`` not to vanish for real ``xi != 0``; the
Shapiro-Lopatinskii (SL) condition asks whether a set of half of the
characteristic boundary data determines the decaying half-space solutions
uniquely.  Both the characteristic roots and the SL test read one object,
built once per system, point and sign of ``xi1``: the decaying subspace of
the block-companion pencil, found with numpy's eigenvalue solver and SVD
alone (:func:`decaying_solution_basis`).

``det L'`` is homogeneous of degree ``T = sum s + sum t``, so on the unit
circle it is fixed by the ``T + 1`` coefficients of ``det L'(+-1, z)``,
found from ``T + 1`` small determinants.  Ellipticity has one verdict,
read from those coefficients alone (:func:`_elliptic`): ``|det L'|`` on a
fixed sample of ``N_ANGLES`` angles, and at the angles of the roots of the
determinant polynomial where the sample cannot prove it.
:func:`ellipticity_check` and :func:`decaying_solution_basis` both take it;
the reports of several systems at one point come from one ``np.linalg.det``
call on their stacked samples (:func:`_ellipticity_checks`), bit-equal to
one call per system.

Constants are built once, on first use, and kept read-only: the Vandermonde
per sample count and stack length, the powers of ``sign cos`` on the
``N_ANGLES`` sample per ``(T, sign)``, cast to complex once, and the
exponents of ``xi1`` per index set.

The boundary frame convention is the usual one: ``x1`` tangential, ``x2``
the inward normal, symbols written in ``D = -i d/dx`` so that solutions of
the half-space ODE system are ``exp(i*xi2*x2)`` times vector polynomials
with ``Im(xi2) > 0`` for decay.

Four built-in systems are provided on surface-elliptic points: the
first-order rigidity system (zero membrane strain), its adjoint tension
system, the second-order membrane system and the fourth-order
membrane+bending system with thickness weight ``eps**2``.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import NumericalError, _read_only
from .geometry import ElasticityTensor, MetricData
from .polymat import _dft, _inverse_dft

DET_RTOL = 1e-8       # relative threshold for "determinant is nonzero"


class EllipticityError(NumericalError):
    """The system fails Douglis-Nirenberg ellipticity where it is required."""


class _HomogeneousSymbol:
    """A matrix symbol fixed by the stack ``C_m`` of ``L'(x, (1, z)) = sum_m C_m z^m``.

    ``coefficients(point)`` returns that stack.  Entry ``(k, j)`` is
    homogeneous of degree ``d_kj = degrees[k][j]``, so ``C_m`` vanishes there
    for ``m > d_kj`` and ``L'(x, xi) = sum_m C_m xi1^(d_kj - m) xi2^m``.
    """

    def symbol_gen(self, point: MetricData, xi) -> np.ndarray:
        """``L'(x, xi)`` for a complex 2-vector ``xi``; components that are
        arrays broadcasting to ``shape`` give the stack ``shape + (rows, cols)``,
        each matrix bit-equal to the one a scalar call gives."""
        return _evaluate(self.coefficients(point), self.degrees, *xi)


@dataclass(frozen=True)
class DNSystem(_HomogeneousSymbol):
    """Douglis-Nirenberg system: entry ``(k, j)`` has degree ``s_k + t_j``."""

    name: str
    t_indices: tuple
    s_indices: tuple
    coefficients: Callable[[MetricData], np.ndarray]

    def __post_init__(self):
        if self.total_order % 2 != 0:
            raise ValueError("total order must be even")

    @property
    def n_unknowns(self) -> int:
        return len(self.t_indices)

    @property
    def n_equations(self) -> int:
        return len(self.s_indices)

    @property
    def degrees(self) -> tuple:
        return _degree_matrix(tuple(self.s_indices), tuple(self.t_indices))

    @property
    def total_order(self) -> int:
        return sum(self.s_indices) + sum(self.t_indices)

    @property
    def half_order(self) -> int:
        return self.total_order // 2

    @property
    def max_entry_degree(self) -> int:
        return max(max(self.s_indices) + max(self.t_indices), 0)


@dataclass(frozen=True)
class BoundaryConditionSet(_HomogeneousSymbol):
    """``m`` boundary operators of indices ``r_k``: entry ``(k, j)`` has degree ``r_k + t_j``."""

    name: str
    r_indices: tuple
    t_indices: tuple
    coefficients: Callable[[MetricData], np.ndarray]

    @property
    def count(self) -> int:
        return len(self.r_indices)

    @property
    def degrees(self) -> tuple:
        return _degree_matrix(tuple(self.r_indices), tuple(self.t_indices))


@dataclass
class SLReport:
    """Outcome of a Shapiro-Lopatinskii check at one boundary point.

    ``margin`` is ``sigma_min / |C|_2`` of the SL matrix; ``check-sl`` does
    not write it.
    """

    point_id: str
    xi1: float
    half_order: int
    decaying_roots: np.ndarray
    sl_determinant: complex
    margin: float
    satisfied: bool
    witness: np.ndarray | None = None   # Cauchy data of a nonzero null solution


# ---------------------------------------------------------------------------
# coefficient stacks: reading and evaluation
# ---------------------------------------------------------------------------

@functools.cache
def _degree_matrix(rows: tuple, t_indices: tuple) -> tuple:
    """The entry degrees ``d_kj = r_k + t_j``, as a tuple of rows."""
    return tuple(tuple(r + t for t in t_indices) for r in rows)


@functools.cache
def _exponent_table(degrees: tuple, length: int) -> np.ndarray:
    """The powers ``max(d_kj - m, 0)`` of ``xi1`` in ``C_m``, read-only."""
    return _read_only(np.maximum(np.array(degrees) - np.arange(length)[:, None, None], 0))[0]


def _scaled(coeffs, degrees: tuple, x1) -> np.ndarray:
    """``C_m x1^(d_kj - m)``, stacked over the shape of ``x1``."""
    return coeffs * np.asarray(x1)[..., None, None, None] ** _exponent_table(degrees, len(coeffs))


def _coefficients_at(symbol, point: MetricData, xi1: float) -> np.ndarray:
    """The coefficients ``C_m xi1^(d_kj - m)`` of ``L'(x, (xi1, z))`` in ``z``."""
    coeffs = symbol.coefficients(point)
    if xi1 == 1.0:     # the stack holds the coefficients of L'(x, (1, z))
        return coeffs
    return _scaled(coeffs, symbol.degrees, float(xi1))


def _evaluate(coeffs, degrees, x1, x2) -> np.ndarray:
    """``sum_m C_m x1^(d_kj - m) x2^m``, stacked over the shape of ``(x1, x2)``.

    The coefficients in ``x2`` are those :func:`_coefficients_at` reads, and
    the sum is Horner's rule in ``x2``.  Every operation is elementwise on
    arrays, so a stacked evaluation rounds exactly as the scalar one.
    """
    scaled = _scaled(coeffs, tuple(map(tuple, degrees)), x1)
    x2 = np.asarray(x2)[..., None, None]
    out = 0.0
    for m in range(len(coeffs) - 1, -1, -1):
        out = out * x2 + scaled[..., m, :, :]
    return out


# ---------------------------------------------------------------------------
# built-in systems and boundary conditions
# ---------------------------------------------------------------------------

def _strain_coefficients(point: MetricData) -> np.ndarray:
    """``S0 + S1 z``: the strain rows ``(g11, g22, 2*g12)`` at ``xi = (1, z)``."""
    b11, b12, b22 = point.b_triple
    out = np.zeros((2, 3, 3), dtype=complex)
    out[0, 0, 0] = out[0, 2, 1] = 1j     # i*xi1
    out[1, 1, 1] = out[1, 2, 0] = 1j     # i*xi2
    out[0, :, 2] = (-b11, -b22, -2.0 * b12)
    return out


def _bending_coefficients(point: MetricData) -> np.ndarray:
    """``R0 + R1 z + R2 z^2``: the curvature-change rows ``(r11, r22, 2*r12)`` at
    ``xi = (1, z)``.  Row ``ab`` has ``u_k`` entry ``i*(b^k_b xi_a + b^k_a xi_b)``
    and ``u3`` entry ``-xi_a xi_b``, both doubled on the shear row."""
    bm = 2j * point.b_mixed
    out = np.zeros((3, 3, 3), dtype=complex)
    out[0, 0, :2] = out[1, 2, :2] = bm[:, 0]    # b^k_1 in r11 and 2*r12
    out[1, 1, :2] = out[0, 2, :2] = bm[:, 1]    # b^k_2 in r22 and 2*r12
    out[0, 0, 2] = out[2, 1, 2] = -1.0          # -xi1^2, -xi2^2
    out[1, 2, 2] = -2.0                         # -2*xi1*xi2
    return out


def _gram(p: np.ndarray, w: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Coefficients ``sum_(i+j=k) conj(P_i)^T W Q_j`` of ``conj(P)^T W Q``."""
    out = np.zeros((len(p) + len(q) - 1, p.shape[2], q.shape[2]), dtype=complex)
    for i, left in enumerate(p.conj().transpose(0, 2, 1) @ w):
        out[i:i + len(q)] += left @ q
    return out


def _system_coefficients(point: MetricData, name: str,
                         elasticity: ElasticityTensor | None, eps2: float) -> np.ndarray:
    strain = _strain_coefficients(point)
    if name == "rigidity":
        return strain
    if name == "membrane_tension":          # the formal adjoint of the strain
        return strain.conj().transpose(0, 2, 1)
    if name == "membrane":
        return _gram(strain, elasticity.membrane, strain)
    bend = _bending_coefficients(point)
    out = eps2 * _gram(bend, elasticity.bending, bend)
    # membrane terms are principal only in the tangential block, and only
    # the tangential strain columns enter it
    tangential = strain[..., :2]
    out[:3, :2, :2] += _gram(tangential, elasticity.membrane, tangential)
    return out


# (t, s) indices of the built-in systems
_SYSTEMS = {"rigidity": ((1, 1, 0), (0, 0, 0)), "membrane_tension": ((0, 0, 0), (1, 1, 0)),
            "membrane": ((1, 1, 0), (1, 1, 0)), "koiter": ((1, 1, 2), (1, 1, 2))}


def builtin_system(name: str, point: MetricData,
                   elasticity: ElasticityTensor | None = None,
                   eps: float = 0.0) -> DNSystem:
    """One of the four built-in shell systems at a boundary-frame point.

    The coefficient builders read the curvature data from the point they are
    handed, so a system built here can be evaluated at other points;
    ``elasticity`` and ``eps`` are bound at construction.  Points are assumed
    expressed in the orthonormal boundary frame.
    """
    if name not in _SYSTEMS:
        raise ValueError(f"unknown system {name!r}; choose from {tuple(_SYSTEMS)}")
    if name != "rigidity":
        point.require_surface_elliptic()
    if name in ("membrane", "koiter") and elasticity is None:
        raise ValueError(f"{name} system needs an elasticity tensor")
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    return DNSystem(name, *_SYSTEMS[name], functools.partial(
        _system_coefficients, name=name, elasticity=elasticity, eps2=eps ** 2))


def _boundary_coefficients(point: MetricData, name: str,
                           elasticity: ElasticityTensor | None) -> np.ndarray:
    if name == "membrane_traction":   # the normal stress rows (T21, T22)
        return (elasticity.membrane @ _strain_coefficients(point))[:, [2, 1]]
    if name == "koiter_clamped":      # u1, u2, u3 and d_n u3, whose symbol is i*xi2
        out = np.zeros((2, 4, 3), dtype=complex)
        out[0, :3] = np.eye(3)
        out[1, 3, 2] = 1j
        return out
    rows = {"u1": [0], "u2": [1], "u3": [2], "membrane_dirichlet": [0, 1]}[name]
    return np.eye(3, dtype=complex)[None, rows]


# (r, t) indices of the built-in boundary sets
_BOUNDARY_SETS = {"u1": ((-1,), (1, 1, 0)), "u2": ((-1,), (1, 1, 0)), "u3": ((0,), (1, 1, 0)),
                  "membrane_dirichlet": ((-1, -1), (1, 1, 0)),
                  "membrane_traction": ((0, 0), (1, 1, 0)),
                  "koiter_clamped": ((-1, -1, -2, -1), (1, 1, 2))}


def builtin_boundary_conditions(name: str,
                                elasticity: ElasticityTensor | None = None
                                ) -> BoundaryConditionSet:
    """Standard boundary-condition sets.

    ``u1`` / ``u2`` / ``u3``
        single Dirichlet condition for the rigidity system;
    ``membrane_dirichlet``
        tangential-displacement pair ``u1 = u2 = 0``;
    ``membrane_traction``
        traction-free pair ``T^{2b}(u) = 0`` (normal rows of the stress);
    ``koiter_clamped``
        ``u1 = u2 = u3 = d_n u3 = 0``.
    """
    if name not in _BOUNDARY_SETS:
        raise ValueError(f"unknown boundary condition set {name!r}")
    if name == "membrane_traction" and elasticity is None:
        raise ValueError("traction conditions need an elasticity tensor")
    return BoundaryConditionSet(name, *_BOUNDARY_SETS[name], functools.partial(
        _boundary_coefficients, name=name, elasticity=elasticity))


# ---------------------------------------------------------------------------
# determinant and ellipticity
# ---------------------------------------------------------------------------

def principal_determinant(system: DNSystem, point: MetricData, xi) -> complex:
    """Determinant of the principal symbol at ``xi`` (complex 2-vector)."""
    if abs(complex(xi[0])) == 0 and abs(complex(xi[1])) == 0:
        raise ValueError("xi must be nonzero")
    return complex(np.linalg.det(system.symbol_gen(point, xi)))


@dataclass(frozen=True)
class EllipticityReport:
    elliptic: bool
    min_abs_det: float
    max_abs_det: float


# the fixed sample of the unit circle on which |det L'| is read
N_ANGLES = 360
_THETAS = np.linspace(0.0, 2.0 * np.pi, N_ANGLES, endpoint=False)
_CIRCLE = _read_only(np.cos(_THETAS), np.sin(_THETAS))
# sin on the sample as complex: numpy casts a real operand of a complex
# product to ``x + 0j``, so a product with it rounds as one with the real sin
_COMPLEX_SIN = _read_only(_CIRCLE[1].astype(complex))[0]


def _powers(x, order: int):
    """``x^k`` for ``k = 1 .. order``, each the product of the one before and ``x``."""
    return itertools.accumulate([x] * order, np.multiply)


@functools.cache
def _circle_powers(order: int, sign: float) -> tuple:
    """:func:`_powers` of ``sign cos`` on the ``N_ANGLES`` sample, cast to
    complex as :data:`_COMPLEX_SIN` is, read-only."""
    return _read_only(*(power.astype(complex) for power in _powers(sign * _CIRCLE[0], order)))


def _abs_det(d, sign, cos, sin) -> np.ndarray:
    """``|D(cos, sin)|`` from the coefficients ``d_j`` of ``D(sign, z)``.

    By homogeneity ``D(xi1, xi2) = sum_j d_j xi2^j (sign xi1)^(T - j)``,
    evaluated by Horner in ``xi2``, in place: each step's operations are
    those of ``values * sin + d_j * power``.
    """
    order = len(d) - 1
    if cos is _CIRCLE[0]:
        powers, sin = _circle_powers(order, sign), _COMPLEX_SIN
    else:
        powers = _powers(sign * cos, order)
    values = np.full(np.shape(cos), d[-1])
    term = np.empty_like(values)
    for d_j, power in zip(d[-2::-1], powers):
        values *= sin
        values += np.multiply(d_j, power, out=term)
    return np.abs(values)


@functools.cache
def _vandermonde(n_samp: int, length: int) -> np.ndarray:
    """``z_s^m`` for the ``n_samp`` roots of unity and ``m < length``, read-only."""
    return _read_only(_dft(n_samp)[0][:, None] ** np.arange(length))[0]


def _determinant_scan(coeffs, order, sign, cos, sin):
    """The coefficients ``d_j`` of ``D(sign, z) = det L'(sign, z)`` and
    ``|det L'(cos, sin)|``.

    ``coeffs`` are the matrix coefficients of ``L'(sign, z)`` in ``z``.  Its
    determinant has degree at most ``order`` in ``z``, so the ``d_j`` follow
    from the determinants at the ``order + 1`` roots of unity; the values,
    read from them by :func:`_abs_det`, carry rounding errors of a few
    ``eps_mach`` times the largest product of row norms of those matrices.
    This is the one-stack case of :func:`_determinant_scans`.
    """
    return _determinant_scans([(coeffs, order)], sign, cos, sin)[0]


def _determinant_scans(stacks, sign, cos, sin) -> list:
    """:func:`_determinant_scan` of each ``(coeffs, order)`` of ``stacks``.

    The matrices of every stack, all of one shape, at their ``order + 1``
    roots of unity go to one ``np.linalg.det`` call, which runs the same
    LAPACK factorisation on each matrix of the concatenation, so each
    determinant is bit-equal to that of a call on its stack alone.
    """
    samples = [(_vandermonde(order + 1, len(coeffs)) @ coeffs.reshape(len(coeffs), -1)
                ).reshape(-1, *coeffs.shape[1:]) for coeffs, order in stacks]
    dets = np.linalg.det(np.concatenate(samples))
    scans, start = [], 0
    for mats in samples:
        d = _inverse_dft(dets[start:start + len(mats)])
        scans.append((d, _abs_det(d, sign, cos, sin)))
        start += len(mats)
    return scans


def _elliptic(d, sign, lo, hi) -> bool:
    """Whether ``min |D| > DET_RTOL * max |D|`` on the whole unit circle.

    ``d`` are the coefficients of ``D(sign, z)``, ``lo`` and ``hi`` the
    extremes of ``|D|`` on the ``N_ANGLES`` sample.  ``D`` on the circle is
    a trigonometric polynomial of degree ``T``, so by Bernstein's inequality
    ``|D|`` moves by at most ``w * max |D|``, ``w = T pi / N_ANGLES``,
    between a sample angle and its neighbours, and
    ``lo > (DET_RTOL + w) / (1 - w) * hi`` proves the verdict.  Otherwise a
    near-zero of ``D`` on the circle lies near a root ``z`` of ``D(sign, .)``
    with a small imaginary part, and ``|D|`` is read also at the angles
    ``arctan(sign Re z)``.  The roots are those of ``d / max |d_j|`` with
    every coefficient below ``eps_mach``, within its rounding error, set to
    zero, so that no ratio of coefficients overflows.  A NaN, an infinity
    or a vanishing ``d`` reads not elliptic.
    """
    size = np.abs(d)
    top = size.max()
    if not (0.0 < top < np.inf and math.isfinite(lo) and math.isfinite(hi)):
        return False
    w = (len(d) - 1) * np.pi / N_ANGLES
    if lo > (DET_RTOL + w) / (1.0 - w) * hi:
        return True
    # the parts are divided apart: numpy's complex division overflows on
    # subnormal operands
    unit = np.where(size > np.finfo(float).eps * top, d.real / top + 1j * (d.imag / top), 0.0)
    angles = np.arctan(sign * np.roots(unit[::-1]).real)
    return bool(_abs_det(d, sign, np.cos(angles), np.sin(angles)).min(initial=lo)
                > DET_RTOL * hi)


def ellipticity_check(system: DNSystem, point: MetricData) -> EllipticityReport:
    """Douglis-Nirenberg ellipticity of ``system`` at ``point``.

    Homogeneity reduces real ``xi != 0`` to the unit circle.  The report
    holds the extremes of ``|D|`` over ``N_ANGLES`` equally spaced angles,
    read from the determinant polynomial (:func:`_determinant_scan`) with
    no symbol evaluation, and the verdict of :func:`_elliptic` on the whole
    circle.  This is the one-system case of :func:`_ellipticity_checks`.
    """
    return _ellipticity_checks((system,), point)[0]


def _ellipticity_checks(systems, point: MetricData) -> list:
    """The :func:`ellipticity_check` report of each of ``systems`` at ``point``.

    The systems share one ``np.linalg.det`` call (:func:`_determinant_scans`),
    so they must have one number of unknowns; each report is bit-equal to
    that of a call on its system alone.
    """
    scans = _determinant_scans([(system.coefficients(point), system.total_order)
                                for system in systems], 1.0, *_CIRCLE)
    reports = []
    for d, values in scans:
        lo, hi = float(values.min()), float(values.max())
        reports.append(EllipticityReport(_elliptic(d, 1.0, lo, hi), lo, hi))
    return reports


# ---------------------------------------------------------------------------
# decaying solutions, characteristic roots, Shapiro-Lopatinskii check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DecayingBasis:
    """Finite roots ``xi2`` of the pencil, the ``m`` decaying ones first, and
    the orthonormal ``basis`` of the decaying Cauchy data of ``L'(sign, D)``."""

    system: DNSystem
    point: MetricData
    sign: float
    roots: np.ndarray
    basis: np.ndarray


def decaying_solution_basis(system: DNSystem, point: MetricData,
                            xi1: float) -> DecayingBasis:
    """The decaying half-space solutions of ``system`` at ``sign(xi1)``.

    The symbols are homogeneous, so only ``s = sign(xi1)`` matters.  The
    matrix coefficients of ``L'(s, xi2) = sum_i A_i xi2^i`` also give the
    determinant polynomial (:func:`_determinant_scan`) and the ellipticity
    verdict (:func:`_elliptic`) that :func:`ellipticity_check` reports.
    ``L'(s, D)`` is then linearised as the block-companion pencil on the
    Cauchy data
    ``(u, D u, ..., D^(deg-1) u)`` at ``x2 = 0``.  Its reciprocal eigenvalues
    ``mu = 1 / xi2`` are those of ``P = lhs^-1 rhs``; an infinite ``xi2``
    gives ``mu = 0``.  Exactly ``m`` finite roots must lie in each open
    half-plane.  The decaying Cauchy data is the kernel of
    ``K = prod_j (I - P / mu_j)`` over the ``m`` decaying ``mu_j``: the
    right singular vectors of its ``m`` smallest singular values span it
    orthonormally, whatever the root multiplicities or Jordan structure.
    """
    if xi1 == 0:
        raise ValueError("xi1 must be nonzero")
    m, n, deg = system.half_order, system.n_unknowns, system.max_entry_degree
    s = float(np.sign(xi1))
    coeffs = _coefficients_at(system, point, s)
    d, values = _determinant_scan(coeffs, system.total_order, s, *_CIRCLE)
    if not _elliptic(d, s, values.min(), values.max()):
        raise EllipticityError(
            f"{system.name}: not elliptic at this point "
            f"(min |D| = {values.min():.3e})")

    size = n * deg
    # lhs Y = xi2 rhs Y for Y_i = D^i u: a block shift, and in the last block
    # row A_deg D^deg u = -sum_(i<deg) A_i D^i u
    lhs = np.eye(size, k=n, dtype=complex)
    lhs[-n:] = -coeffs[:deg].transpose(1, 0, 2).reshape(n, size)
    rhs = np.eye(size, dtype=complex)
    rhs[-n:, -n:] = coeffs[deg]
    # det lhs = +-det A_0 = +-det L'(s, 0), and (s, 0) is on the circle of
    # the verdict, so an elliptic system has an invertible lhs
    pencil = np.linalg.solve(lhs, rhs)
    if not np.isfinite(pencil).all():
        # a subnormal det A_0 passes the relative verdict, yet its solve overflows
        raise EllipticityError(f"{system.name}: non-finite companion pencil "
                               f"(min |D| = {values.min():.3e})")
    mu = np.linalg.eigvals(pencil)
    # an elliptic system has exactly total_order finite roots (the leading
    # coefficient D(0, 1) is nonzero): the largest |mu|.  The rest are
    # infinite roots, whose Jordan blocks can leak far above sqrt(eps_mach)
    finite = np.zeros(size, dtype=bool)
    finite[np.argsort(np.abs(mu))[size - system.total_order:]] = True
    decaying = finite & (mu.imag < 0)       # Im xi2 > 0
    above, below = np.count_nonzero(decaying), np.count_nonzero(finite & (mu.imag > 0))
    if (above, below) != (m, m):
        raise EllipticityError(f"{system.name}: expected {m} roots in each half-plane, "
                               f"found {above} above and {below} below")
    kernel = np.eye(size, dtype=complex)
    for mu_j in mu[decaying]:
        kernel -= kernel @ pencil / mu_j
    basis = np.linalg.svd(kernel)[2][-m:].conj().T
    roots = 1.0 / np.concatenate([mu[decaying], mu[finite & ~decaying]])
    return DecayingBasis(system, point, s, roots, basis)


def characteristic_roots(system: DNSystem, point: MetricData,
                         xi1: float) -> np.ndarray:
    """Roots in ``xi2`` of ``det L'(x, xi1, xi2) = 0``, with multiplicity.

    By homogeneity they are the pencil eigenvalues of
    :func:`decaying_solution_basis` scaled by ``|xi1|``, the ``m`` decaying
    ones first.
    """
    return abs(xi1) * decaying_solution_basis(system, point, xi1).roots


def sl_verdict(decaying: DecayingBasis, bc: BoundaryConditionSet, xi1: float,
               point_id: str = "") -> SLReport:
    """Shapiro-Lopatinskii verdict of ``bc`` on the decaying basis of ``xi1``'s sign.

    The boundary rows ``C = [C_0 ... C_(deg-1)]`` at the unit cosphere, each
    scaled to unit norm, give ``M = C Z[:, :m]``.  The condition holds iff
    ``margin = sigma_min(M) / |C|_2 > DET_RTOL``; ``|det M|`` does not depend
    on the choice of the orthonormal basis, and nothing but the roots and
    the witness depends on ``|xi1|``.  The witness is the Cauchy data,
    rescaled to ``xi1``, of a decaying solution that every boundary
    operator annihilates.  This is the one-set case of :func:`_sl_verdicts`.
    """
    return _sl_verdicts(decaying, (bc,), xi1, (point_id,))[0]


def _sl_verdicts(decaying: DecayingBasis, bcs, xi1: float, point_ids) -> list:
    """The :func:`sl_verdict` of each boundary set in ``bcs`` on one basis.

    Each set is checked as :func:`sl_verdict` checks it (count, ``t_indices``,
    the sign of ``xi1``, order ``< deg``), and its normalised Cauchy rows go
    in one ``(k, m, n deg)`` stack.  One matmul, one SVD, one norm SVD and
    one ``det`` then serve every set: numpy runs the same LAPACK routine on
    each matrix of a stack, so each report is bit-equal to a one-set call.
    ``point_ids`` names the reports; an empty name reads ``b=(b11, b12, b22)``.
    """
    system, point, s = decaying.system, decaying.point, decaying.sign
    m, n, deg = system.half_order, system.n_unknowns, system.max_entry_degree
    for bc in bcs:
        if bc.count != m:
            raise ValueError(
                f"{bc.name}: {bc.count} boundary conditions, system needs {m}")
        if tuple(bc.t_indices) != tuple(system.t_indices):
            raise ValueError(f"{bc.name}: unknowns of indices {bc.t_indices}, "
                             f"not {system.t_indices}")
    if np.sign(xi1) != s:
        raise ValueError(f"xi1={xi1} does not have the sign of the basis ({s:+g})")

    cauchy = np.zeros((len(bcs), m, deg, n), dtype=complex)
    for i, bc in enumerate(bcs):
        bcoeffs = _coefficients_at(bc, point, s)
        if len(bcoeffs) > deg and np.abs(bcoeffs[deg:]).max() > 1e-12 * np.abs(bcoeffs).max():
            raise ValueError(f"{bc.name}: boundary operators must have order < {deg}")
        cauchy[i, :, :len(bcoeffs)] = bcoeffs[:deg].transpose(1, 0, 2)
    cauchy = cauchy.reshape(len(bcs), m, n * deg)
    # the row norms and |C|_2 as np.linalg.norm computes them
    cauchy /= np.sqrt((cauchy.conj() * cauchy).real.sum(axis=2, keepdims=True))

    sl_matrices = cauchy @ decaying.basis
    _, sv, vh = np.linalg.svd(sl_matrices)
    margins = sv[:, -1] / np.linalg.svd(cauchy, compute_uv=False)[:, 0]
    dets = np.linalg.det(sl_matrices)
    reports = []
    for i, (point_id, margin, det) in enumerate(zip(point_ids, margins.tolist(),
                                                    dets.tolist())):
        satisfied = margin > DET_RTOL
        witness = None
        if not satisfied:
            # u(x2) at xi1 is diag(|xi1|^-t_j) times the unit-frequency u(|xi1| x2)
            powers = np.arange(deg)[:, None] - np.asarray(system.t_indices)
            witness = (decaying.basis @ vh[i, -1].conj()) * (abs(float(xi1)) ** powers).ravel()
        reports.append(SLReport(point_id or f"b={point.b_triple}", float(xi1), m,
                                abs(xi1) * decaying.roots[:m], det, margin, satisfied,
                                witness))
    return reports


def sl_check(system: DNSystem, bc: BoundaryConditionSet, point: MetricData,
             xi1: float, point_id: str = "") -> SLReport:
    """Shapiro-Lopatinskii verdict for ``system`` with conditions ``bc``."""
    return sl_verdict(decaying_solution_basis(system, point, xi1), bc, xi1,
                      point_id)


def rigidity_strain_residual(witness: np.ndarray, point: MetricData,
                             xi1: float) -> float:
    """Membrane strain of an SL witness, relative to the witness size.

    ``witness`` is the Cauchy data ``(u, D u, ...)`` at ``x2 = 0`` of a
    decaying membrane solution at tangential frequency ``xi1``, as
    :func:`sl_check` returns it.  The stress of such a solution solves the
    first-order tension system, whose decaying solutions are fixed by their
    value at the edge, so the strain vanishes identically iff it vanishes
    at ``x2 = 0``, where it is ``S_0 u + S_1 D u``.
    """
    data = np.asarray(witness).reshape(-1, 3)
    s0, s1 = _coefficients_at(builtin_system("rigidity", point), point, xi1)
    return float(np.linalg.norm(s0 @ data[0] + s1 @ data[1]) / np.linalg.norm(data))
