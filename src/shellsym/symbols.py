"""Douglis-Nirenberg systems, ellipticity and the Shapiro-Lopatinskii test.

A system is described by integer indices ``t_j`` (unknowns) and ``s_k``
(equations) together with a generator for its frozen-coefficient principal
symbol ``L'(x, xi)``: entry ``(k, j)`` is homogeneous in ``xi`` of degree
``s_k + t_j`` (or identically zero).  Ellipticity asks the determinant of
``L'`` not to vanish for real ``xi != 0``; the Shapiro-Lopatinskii (SL)
condition asks whether a set of half of the characteristic boundary data
determines the decaying half-space solutions uniquely.  Both the
characteristic roots and the SL test read one object, built once per
system, point and sign of ``xi1``: the decaying subspace of the ordered-QZ
block-companion pencil (:func:`decaying_solution_basis`).

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

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import ElasticityTensor, MetricData
from .polymat import PolyMatrix

DET_RTOL = 1e-8       # relative threshold for "determinant is nonzero"
# |beta / alpha| below which a pencil eigenvalue counts as infinite; the
# index-2 infinite eigenvalues of mixed orders leak out near sqrt(eps_mach)
INFINITE_RTOL = 1e-6


class EllipticityError(ValueError):
    """The system fails Douglis-Nirenberg ellipticity where it is required."""


class DegenerateModeError(ValueError):
    """A mode construction hit a numerically defective configuration."""


@dataclass(frozen=True)
class DNSystem:
    """Douglis-Nirenberg system with a principal-symbol generator.

    ``symbol_gen(point, xi)`` must return the complex ``n x n`` matrix
    ``L'(x, xi)`` for ``xi`` a complex 2-vector; entries are polynomials of
    degree ``s_k + t_j`` in ``xi``.  The generator broadcasts: when the
    components of ``xi`` are arrays that broadcast to ``shape``, it returns
    the stack ``shape + (n, n)``, each matrix bit-equal to the one a scalar
    call would give.  Scans and interpolations call it once per stack.
    """

    name: str
    n_unknowns: int
    n_equations: int
    t_indices: tuple
    s_indices: tuple
    symbol_gen: Callable[[MetricData, Sequence[complex]], np.ndarray]

    def __post_init__(self):
        if len(self.t_indices) != self.n_unknowns:
            raise ValueError("one t index per unknown")
        if len(self.s_indices) != self.n_equations:
            raise ValueError("one s index per equation")
        if self.total_order % 2 != 0:
            raise ValueError("total order must be even")

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
class BoundaryConditionSet:
    """``m`` boundary operators with indices ``r_k``; entry degrees ``r_k + t_j``.

    ``symbol_gen(point, xi)`` returns the ``m x n`` boundary symbol and
    broadcasts over stacked ``xi`` components like :class:`DNSystem`'s.
    """

    name: str
    r_indices: tuple
    symbol_gen: Callable[[MetricData, Sequence[complex]], np.ndarray]

    @property
    def count(self) -> int:
        return len(self.r_indices)


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
    sl_matrix: np.ndarray
    sl_determinant: complex
    margin: float
    satisfied: bool
    witness: np.ndarray | None = None   # Cauchy data of a nonzero null solution


# ---------------------------------------------------------------------------
# built-in symbol matrices
# ---------------------------------------------------------------------------

def _symbol_array(xi, rows: int) -> np.ndarray:
    """Zero complex symbol of shape ``shape + (rows, 3)`` for frequencies ``xi``.

    ``shape`` is the broadcast shape of the two frequency components; with
    scalar components the symbol is a plain ``rows x 3`` matrix.
    """
    shape = np.broadcast_shapes(np.shape(xi[0]), np.shape(xi[1]))
    return np.zeros(shape + (rows, 3), dtype=complex)


def _cmul(a, b):
    """``a * b`` rounded as the scalar complex product.

    numpy's array loop for complex * complex may fuse a multiply and an add,
    so a stacked evaluation would differ from a per-point one in the last bit.
    """
    return ((a.real * b.real - a.imag * b.imag)
            + 1j * (a.real * b.imag + a.imag * b.real))


def _strain_rows(point: MetricData, xi, s: complex) -> np.ndarray:
    b11, b12, b22 = point.b_triple
    x1, x2 = xi
    out = _symbol_array(xi, 3)
    out[..., 0, 0] = s * x1
    out[..., 1, 1] = s * x2
    out[..., 2, 0] = s * x2
    out[..., 2, 1] = s * x1
    out[..., :, 2] = (-b11, -b22, -2.0 * b12)
    return out


def strain_symbol(point: MetricData, xi) -> np.ndarray:
    """Symbol of the strain operator rows ``(g11, g22, 2*g12)``, ``d -> i*xi``."""
    return _strain_rows(point, xi, 1j)


def strain_symbol_conj(point: MetricData, xi) -> np.ndarray:
    """Coefficient-conjugated strain symbol (the formal-adjoint factor)."""
    return _strain_rows(point, xi, -1j)


def bending_strain_symbol(point: MetricData, xi, conj: bool = False) -> np.ndarray:
    """Principal symbol of the curvature-change rows ``(r11, r22, 2*r12)``.

    Tangential entries are first order through the mixed curvature tensor,
    the normal entry second order.
    """
    bm = point.b_mixed
    x1, x2 = xi
    m = _symbol_array(xi, 3)
    s = -1j if conj else 1j
    # rho_ab row: u_k coefficient  s*(b^k_b * xi_a + b^k_a * xi_b);
    #             u3  coefficient  -xi_a * xi_b  (doubled on the shear row)
    pairs = [(x1, x1, 0, 0), (x2, x2, 1, 1), (x1, x2, 0, 1)]
    for r, (xa, xb, a, b) in enumerate(pairs):
        scale = 2.0 if r == 2 else 1.0
        for k in range(2):
            m[..., r, k] = scale * s * (bm[k, b] * xa + bm[k, a] * xb)
        m[..., r, 2] = _cmul(-scale * xa, xb)
    return m


def _require_kind(name):
    kinds = ("rigidity", "membrane_tension", "membrane", "koiter")
    if name not in kinds:
        raise ValueError(f"unknown system {name!r}; choose from {kinds}")


def builtin_system(name: str, point: MetricData,
                   elasticity: ElasticityTensor | None = None,
                   eps: float = 0.0) -> DNSystem:
    """One of the four built-in shell systems at a boundary-frame point.

    The generators re-read the curvature data from the point they are handed,
    so a system built here can be evaluated at other points; ``elasticity``
    and ``eps`` are bound at construction.  Points are assumed expressed in
    the orthonormal boundary frame.
    """
    _require_kind(name)
    if name != "rigidity":
        point.require_surface_elliptic()
    if name in ("membrane", "koiter") and elasticity is None:
        raise ValueError(f"{name} system needs an elasticity tensor")
    if eps < 0:
        raise ValueError("eps must be nonnegative")

    if name == "rigidity":
        return DNSystem("rigidity", 3, 3, (1, 1, 0), (0, 0, 0), strain_symbol)

    if name == "membrane_tension":
        def gen(pt, xi):
            return strain_symbol_conj(pt, xi).swapaxes(-1, -2)
        return DNSystem("membrane_tension", 3, 3, (0, 0, 0), (1, 1, 0), gen)

    ma = elasticity.membrane if elasticity is not None else None

    if name == "membrane":
        def gen(pt, xi, _ma=ma):
            g = strain_symbol(pt, xi)
            gc = strain_symbol_conj(pt, xi)
            return gc.swapaxes(-1, -2) @ _ma @ g
        return DNSystem("membrane", 3, 3, (1, 1, 0), (1, 1, 0), gen)

    mb = elasticity.bending

    def gen(pt, xi, _ma=ma, _mb=mb, _e2=eps ** 2):
        g = strain_symbol(pt, xi)
        gc = strain_symbol_conj(pt, xi)
        membrane = gc.swapaxes(-1, -2) @ _ma @ g
        r = bending_strain_symbol(pt, xi)
        rc = bending_strain_symbol(pt, xi, conj=True)
        out = _e2 * (rc.swapaxes(-1, -2) @ _mb @ r)
        # membrane terms are principal only in the tangential block; the
        # remaining membrane entries are of lower order for indices (1,1,2)
        out[..., :2, :2] += membrane[..., :2, :2]
        return out

    return DNSystem("koiter", 3, 3, (1, 1, 2), (1, 1, 2), gen)


_DIRICHLET_ROWS = {"u1": 0, "u2": 1, "u3": 2}


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
    if name in _DIRICHLET_ROWS:
        row = _DIRICHLET_ROWS[name]

        def gen(pt, xi, _row=row):
            out = _symbol_array(xi, 1)
            out[..., 0, _row] = 1.0
            return out
        r = (-1,) if row < 2 else (0,)
        return BoundaryConditionSet(name, r, gen)

    if name == "membrane_dirichlet":
        def gen(pt, xi):
            out = _symbol_array(xi, 2)
            out[..., [0, 1], [0, 1]] = 1.0
            return out
        return BoundaryConditionSet(name, (-1, -1), gen)

    if name == "membrane_traction":
        if elasticity is None:
            raise ValueError("traction conditions need an elasticity tensor")

        def gen(pt, xi, _ma=elasticity.membrane):
            stress = _ma @ strain_symbol(pt, xi)   # rows (T11, T22, T12)
            return stress[..., [2, 1], :]          # (T21, T22) = normal rows
        return BoundaryConditionSet("membrane_traction", (0, 0), gen)

    if name == "koiter_clamped":
        def gen(pt, xi):
            out = _symbol_array(xi, 4)
            out[..., [0, 1, 2], [0, 1, 2]] = 1.0
            out[..., 3, 2] = 1j * xi[1]
            return out
        return BoundaryConditionSet("koiter_clamped", (-1, -1, -2, -1), gen)

    raise ValueError(f"unknown boundary condition set {name!r}")


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
    n_angles: int


def ellipticity_check(system: DNSystem, point: MetricData,
                      n_angles: int = 360) -> EllipticityReport:
    """Scan ``|det L'|`` over the unit circle of real frequencies.

    Homogeneity reduces real ``xi != 0`` to the unit circle.  The verdict is
    relative: elliptic iff ``min |D| > DET_RTOL * max |D|``.
    """
    if n_angles < 8:
        raise ValueError("n_angles must be at least 8")
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dets = np.linalg.det(system.symbol_gen(point, (np.cos(thetas), np.sin(thetas))))
    # hypot rounds as the scalar abs(complex); numpy's complex abs does not
    vals = np.hypot(dets.real, dets.imag)
    lo, hi = float(vals.min()), float(vals.max())
    return EllipticityReport(lo > DET_RTOL * hi, lo, hi, n_angles)


def verify_homogeneity(system: DNSystem, point: MetricData,
                       rng=None, n_samples: int = 20) -> float:
    """Max relative error of the per-entry scaling ``L'(c xi) = c^(s+t) L'(xi)``."""
    rng = np.random.default_rng(0) if rng is None else rng
    worst = 0.0
    s, t = system.s_indices, system.t_indices
    for _ in range(n_samples):
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        c = rng.normal() + 1j * rng.normal()
        left = system.symbol_gen(point, tuple(c * np.asarray(xi)))
        base = system.symbol_gen(point, tuple(xi))
        for k in range(system.n_equations):
            for j in range(system.n_unknowns):
                want = c ** (s[k] + t[j]) * base[k, j]
                err = abs(left[k, j] - want) / max(abs(want), 1.0)
                worst = max(worst, err)
    return worst


# ---------------------------------------------------------------------------
# decaying solutions, characteristic roots, Shapiro-Lopatinskii check
# ---------------------------------------------------------------------------

def _entry_polymatrix(gen, point, xi1, degree) -> PolyMatrix:
    return PolyMatrix.from_samples(lambda z: gen(point, (xi1, z)), max(degree, 0))


def _decaying(alpha, beta):
    """Finite pencil eigenvalues ``alpha / beta`` in the upper half-plane."""
    finite = np.abs(beta) > INFINITE_RTOL * np.abs(alpha)
    return finite & ((alpha * beta.conj()).imag > 0)


@dataclass(frozen=True)
class DecayingBasis:
    """Finite pencil eigenvalues ``roots``, the ``m`` decaying ones first, and
    the orthonormal ``basis`` of the decaying Cauchy data of ``L'(sign, D)``."""

    system: DNSystem
    point: MetricData
    sign: float
    roots: np.ndarray
    basis: np.ndarray


def decaying_solution_basis(system: DNSystem, point: MetricData,
                            xi1: float) -> DecayingBasis:
    """The decaying half-space solutions of ``system`` at ``sign(xi1)``.

    The symbols are homogeneous, so only ``s = sign(xi1)`` matters.  After a
    64-angle ellipticity scan, ``L'(s, xi2) = sum_i A_i xi2^i`` is linearised
    as the block-companion pencil on the Cauchy data
    ``(u, D u, ..., D^(deg-1) u)`` at ``x2 = 0``.  Exactly ``m`` finite
    eigenvalues must lie in each open half-plane.  An ordered complex QZ puts
    those with positive imaginary part first, so the unitary ``Z[:, :m]``
    spans the decaying Cauchy data whatever the root multiplicities or
    Jordan structure.
    """
    from scipy.linalg import ordqz

    if xi1 == 0:
        raise ValueError("xi1 must be nonzero")
    report = ellipticity_check(system, point, n_angles=64)
    if not report.elliptic:
        raise EllipticityError(
            f"{system.name}: not elliptic at this point "
            f"(min |D| = {report.min_abs_det:.3e})")

    m, n, deg = system.half_order, system.n_unknowns, system.max_entry_degree
    s = float(np.sign(xi1))
    coeffs = _entry_polymatrix(system.symbol_gen, point, s, deg).coeffs
    size = n * deg
    # lhs Y = xi2 rhs Y for Y_i = D^i u: a block shift, and in the last block
    # row A_deg D^deg u = -sum_(i<deg) A_i D^i u
    lhs = np.eye(size, k=n, dtype=complex)
    lhs[-n:] = -coeffs[:deg].transpose(1, 0, 2).reshape(n, size)
    rhs = np.eye(size, dtype=complex)
    rhs[-n:, -n:] = coeffs[deg]
    _, _, alpha, beta, _, z = ordqz(lhs, rhs, sort=_decaying, output="complex")
    finite = np.abs(beta) > INFINITE_RTOL * np.abs(alpha)
    # the sort key's half-plane test, so that Z[:, :m] is the selection
    side = (alpha * beta.conj()).imag[finite]
    above, below = np.count_nonzero(side > 0), np.count_nonzero(side < 0)
    if (above, below) != (m, m):
        raise EllipticityError(f"{system.name}: expected {m} roots in each half-plane, "
                               f"found {above} above and {below} below")
    return DecayingBasis(system, point, s, alpha[finite] / beta[finite], z[:, :m])


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
    operator annihilates.
    """
    system, point, s = decaying.system, decaying.point, decaying.sign
    m, n, deg = system.half_order, system.n_unknowns, system.max_entry_degree
    if bc.count != m:
        raise ValueError(
            f"{bc.name}: {bc.count} boundary conditions, system needs {m}")
    if np.sign(xi1) != s:
        raise ValueError(f"xi1={xi1} does not have the sign of the basis ({s:+g})")

    bdeg = max(max(bc.r_indices) + max(system.t_indices), 0)
    bcoeffs = _entry_polymatrix(bc.symbol_gen, point, s, bdeg).coeffs
    if np.abs(bcoeffs[deg:]).max(initial=0.0) > 1e-12 * np.abs(bcoeffs).max():
        raise ValueError(f"{bc.name}: boundary operators must have order < {deg}")
    cauchy = np.zeros((m, deg, n), dtype=complex)
    cauchy[:, :bdeg + 1] = bcoeffs[:deg].transpose(1, 0, 2)
    cauchy = cauchy.reshape(m, n * deg)
    cauchy /= np.linalg.norm(cauchy, axis=1, keepdims=True)

    sl_matrix = cauchy @ decaying.basis
    _, sv, vh = np.linalg.svd(sl_matrix)
    margin = float(sv[-1] / np.linalg.norm(cauchy, 2))
    satisfied = margin > DET_RTOL
    witness = None
    if not satisfied:
        # u(x2) at xi1 is diag(|xi1|^-t_j) times the unit-frequency u(|xi1| x2)
        powers = np.arange(deg)[:, None] - np.asarray(system.t_indices)
        witness = (decaying.basis @ vh[-1].conj()) * (abs(float(xi1)) ** powers).ravel()
    return SLReport(point_id or f"b={point.b_triple}", float(xi1), m,
                    abs(xi1) * decaying.roots[:m], sl_matrix,
                    complex(np.linalg.det(sl_matrix)), margin, bool(satisfied),
                    witness)


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
    s0, s1 = _entry_polymatrix(strain_symbol, point, xi1, 1).coeffs
    return float(np.linalg.norm(s0 @ data[0] + s1 @ data[1]) / np.linalg.norm(data))
