"""Surface data and the two-dimensional shell strain measures.

The shell model lives on a single chart.  A :class:`MetricField` carries the
first and second fundamental forms, the mixed curvature tensor and the
Christoffel symbols sampled on a rectangular grid; a :class:`MetricData` is
the same data frozen at one point, which is what the symbol machinery
consumes.  Displacements are triples ``(u1, u2, u3)`` of covariant tangential
components plus the normal component on the same grid.

Chart arrays store components first, ``(2, 2, n1, n2)``, so every
contraction runs over contiguous grids; the strain functions return the
``(n1, n2, 2, 2)`` layout as a view.  Two strain measures are evaluated by
second-order finite differences, both from one covariant gradient
``u_{a|b}`` per field:

* the membrane strain
  ``gamma_ab(u) = (u_{a|b} + u_{b|a}) / 2 - b_ab u3``,
* the change-of-curvature strain
  ``rho_ab(u) = u3_{|ab} + b^l_{b|a} u_l + b^l_b u_{l|a} + b^l_a u_{l|b}
  - b^l_a b_lb u3``,

with ``|`` the covariant derivative of the surface.  The quadratic energy
forms contract these with the membrane and bending rigidity tensors and sum
over the grid nodes with the weight ``h^2 sqrt(det a)`` at every node, edge
rows included.  A field keeps the strains of the last chart it was used on,
so pairwise energy forms differentiate each field once per chart; this rests
on fields and charts being immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import NumericalError, _read_only


class InvariantError(NumericalError):
    """Input data violates a structural invariant (symmetry, positivity)."""


class GridMismatchError(ValueError):
    """Fields are sampled on incompatible grids."""


class SurfaceEllipticityError(NumericalError):
    """The second fundamental form is not elliptic (b11*b22 - b12^2 <= 0)."""


_SYM_TOL = 1e-12


# ---------------------------------------------------------------------------
# point data and charts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MetricData:
    """First/second fundamental forms and Christoffel symbols at a point.

    ``b_mixed[i, j]`` stores the mixed tensor with the upper index first,
    ``b^i_j = a^{is} b_{sj}``.  ``christoffel[l, a, b]`` is ``Gamma^l_ab``.
    The forms and the symbols must be symmetric, and ``a`` positive
    definite: a 2x2 ``a`` is proved so in closed form, ``a11 > 0`` and
    ``a11 a22 - a21^2`` above its rounding error on the entries divided by
    the largest (:func:`_proves_positive_definite`), and where that proof
    fails, ``eigvalsh`` decides, so every verdict is the eigenvalue one.
    """

    a_cov: np.ndarray
    b_cov: np.ndarray
    b_mixed: np.ndarray
    christoffel: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_cov, dtype=float)
        b = np.asarray(self.b_cov, dtype=float)
        g = np.asarray(self.christoffel, dtype=float)
        bm = np.asarray(self.b_mixed, dtype=float)
        object.__setattr__(self, "a_cov", a)
        object.__setattr__(self, "b_cov", b)
        object.__setattr__(self, "b_mixed", bm)
        object.__setattr__(self, "christoffel", g)
        top = np.abs(a).max()
        if np.abs(a - a.T).max() > _SYM_TOL * max(top, 1.0):
            raise InvariantError("first fundamental form must be symmetric")
        if not _proves_positive_definite(a, top) and np.linalg.eigvalsh(a).min() <= 0:
            raise InvariantError("first fundamental form must be positive definite")
        if np.abs(b - b.T).max() > _SYM_TOL * max(np.abs(b).max(), 1.0):
            raise InvariantError("second fundamental form must be symmetric")
        if np.abs(g - np.swapaxes(g, 1, 2)).max() > _SYM_TOL * max(np.abs(g).max(), 1.0):
            raise InvariantError("Christoffel symbols must be symmetric in the lower indices")

    @property
    def b_triple(self) -> tuple:
        """(b11, b12, b22) of the second fundamental form."""
        return (float(self.b_cov[0, 0]), float(self.b_cov[0, 1]),
                float(self.b_cov[1, 1]))

    def require_surface_elliptic(self):
        surface_elliptic_triple(self.b_triple)


# On the entries divided by max |a_ij|, each within eps_mach / 2 of exact,
# a11 a22 - a21^2 is computed within 4 eps_mach.  Above 64 eps_mach, the
# smaller eigenvalue of that matrix (norm at most 2) exceeds 30 eps_mach,
# beyond the backward error of LAPACK's symmetric eigensolver on a 2x2
# matrix, so eigvalsh reads it positive too.
_PD_MARGIN = 64 * np.finfo(float).eps


def _proves_positive_definite(a: np.ndarray, top) -> bool:
    """Whether the 2x2 ``a``, with ``top = max |a_ij|``, is positive definite
    beyond doubt: ``a11 > 0`` and ``a11 a22 - a21^2 > _PD_MARGIN`` on the
    entries divided by ``top``.  It reads the lower triangle, as
    ``eigvalsh`` does; ``False`` leaves the verdict to ``eigvalsh``.
    """
    top = float(top)
    if a.shape != (2, 2) or not 0.0 < top < np.inf:
        return False
    a11, _, a21, a22 = (x / top for x in a.ravel().tolist())
    return a11 > 0.0 and a11 * a22 - a21 * a21 > _PD_MARGIN


def surface_elliptic_triple(b) -> tuple:
    """The curvature triple ``(b11, b12, b22)`` as floats, if it is surface-elliptic.

    Raises :class:`SurfaceEllipticityError` unless ``b11 > 0`` and
    ``b11*b22 - b12^2 > 0``.
    """
    b11, b12, b22 = (float(x) for x in b)
    if not (b11 > 0 and b11 * b22 - b12 ** 2 > 0):
        raise SurfaceEllipticityError(
            f"not surface-elliptic: need b11 > 0 and b11*b22 - b12^2 > 0, "
            f"got b=({b11}, {b12}, {b22})")
    return b11, b12, b22


def frozen_point(b11: float, b12: float, b22: float) -> MetricData:
    """Constant-coefficient boundary-frame point: a = I, Gamma = 0."""
    b = np.array([[b11, b12], [b12, b22]], dtype=float)
    return MetricData(np.eye(2), b, b.copy(), np.zeros((2, 2, 2)))


class ChartTerms(NamedTuple):
    """Strain terms that depend on the chart only, as read-only arrays."""

    bcov: np.ndarray    # (2, 2, 2, n1, n2), b^l_{b|a} in [l, a, b]
    bb: np.ndarray      # (2, 2, n1, n2), sum_l b^l_a b_lb in [a, b]
    area: np.ndarray    # (n1, n2), sqrt(det a)


@dataclass(frozen=True)
class MetricField:
    """Chart metric data sampled on an ``(n1, n2)`` grid with spacing ``h``.

    Components come first: ``a_cov[a, b]`` is the ``(n1, n2)`` grid of
    ``a_ab``, and ``christoffel[l, a, b]`` that of ``Gamma^l_ab``.  The
    chart-only strain terms are built once, in :attr:`chart_terms`.
    """

    a_cov: np.ndarray          # (2, 2, n1, n2)
    b_cov: np.ndarray          # (2, 2, n1, n2)
    b_mixed: np.ndarray        # (2, 2, n1, n2), b^i_j in [i, j]
    christoffel: np.ndarray    # (2, 2, 2, n1, n2), Gamma^l_ab in [l, a, b]
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise InvariantError("grid spacing must be positive")
        grid = (2, 2) + self.shape
        if (len(grid) != 4 or self.christoffel.shape != (2,) + grid
                or any(x.shape != grid for x in (self.a_cov, self.b_cov, self.b_mixed))):
            raise GridMismatchError("metric components must share one (n1, n2) grid")
        # validate invariants on a sample of points (corners + center)
        n1, n2 = self.shape
        for i, j in {(0, 0), (0, n2 - 1), (n1 - 1, 0), (n1 - 1, n2 - 1),
                     (n1 // 2, n2 // 2)}:
            self.point(i, j)

    @property
    def shape(self) -> tuple:
        return self.a_cov.shape[2:]

    def point(self, i: int, j: int) -> MetricData:
        return MetricData(*(np.ascontiguousarray(x[..., i, j]) for x in (
            self.a_cov, self.b_cov, self.b_mixed, self.christoffel)))

    @cached_property
    def chart_terms(self) -> ChartTerms:
        """The chart-only strain terms, built on first use.

        ``b^l_{b|a} = d_a b^l_b + Gamma^l_an b^n_b - Gamma^n_ba b^l_n``.
        """
        bm, gam = self.b_mixed, self.christoffel
        bcov = np.stack(np.gradient(bm, self.h, axis=(2, 3), edge_order=2), axis=1)
        bcov += np.einsum("lanxy,nbxy->labxy", gam, bm)
        bcov -= np.einsum("nbaxy,lnxy->labxy", gam, bm)
        bb = np.einsum("laxy,lbxy->abxy", bm, self.b_cov)
        a = self.a_cov
        area = np.sqrt(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
        return ChartTerms(*_read_only(bcov, bb, area))

    def area_element(self) -> np.ndarray:
        return self.chart_terms.area


def frozen_chart(b11: float, b12: float, b22: float,
                 shape: tuple = (24, 24), h: float = 0.05) -> MetricField:
    """Constant-coefficient chart: identity metric, flat frame, constant b.

    This is the frozen-coefficient setting in which all principal symbols are
    evaluated; the curvature triple is the only free data.
    """
    ones = np.ones(shape)
    a = np.eye(2)[:, :, None, None] * ones
    b = np.array([[b11, b12], [b12, b22]])[:, :, None, None] * ones
    return MetricField(a, b, b.copy(), np.zeros((2, 2, 2) + tuple(shape)), h)


_CAP_SHAPE, _CAP_H, _CAP_THETA0 = (24, 24), 0.02, 0.7     # the default sphere-cap grid


def _cap_radius_fits(radius: float, n1: int = _CAP_SHAPE[0], h: float = _CAP_H,
                     theta0: float = _CAP_THETA0) -> bool:
    """Whether ``diag(R^2, (R sin th)^2)`` on rows ``theta0 + i*h`` is finite and nonzero."""
    r = float(radius)
    low = r * float(np.sin(theta0 + h * np.arange(n1)).min())   # R^2 is the largest entry
    return low * low > 0.0 and r * r < np.inf


def sphere_cap_chart(radius: float = 1.0, shape: tuple = _CAP_SHAPE,
                     h: float = _CAP_H, theta0: float = _CAP_THETA0) -> MetricField:
    """Spherical cap in colatitude/longitude coordinates ``(y1, y2)``.

    ``y1 = theta0 + i*h`` is the colatitude, ``y2 = j*h`` the longitude.  All
    geometric data is analytic: ``a = diag(R^2, R^2 sin^2 th)``,
    ``b = a / R``, ``Gamma^1_22 = -sin th cos th``,
    ``Gamma^2_12 = cos th / sin th``.
    """
    if not 0 < theta0 < np.pi / 2:
        raise InvariantError("theta0 must lie in (0, pi/2)")
    n1, n2 = shape
    theta = theta0 + h * np.arange(n1)
    if theta.max() >= np.pi:
        raise InvariantError("chart extends past the south pole")
    if not _cap_radius_fits(radius, n1, h, theta0):
        raise InvariantError("radius must have a finite, nonzero square")
    sin_t = np.sin(theta)[:, None] * np.ones((1, n2))
    cos_t = np.cos(theta)[:, None] * np.ones((1, n2))
    a = np.zeros((2, 2, n1, n2))
    a[0, 0] = radius ** 2
    a[1, 1] = (radius * sin_t) ** 2
    b = a / radius
    b_mixed = np.zeros_like(a)
    b_mixed[0, 0] = b_mixed[1, 1] = 1.0 / radius
    gamma = np.zeros((2, 2, 2, n1, n2))
    gamma[0, 1, 1] = -sin_t * cos_t                   # Gamma^1_22
    gamma[1, 0, 1] = gamma[1, 1, 0] = cos_t / sin_t   # Gamma^2_12 = Gamma^2_21
    return MetricField(a, b, b_mixed, gamma, h)


# ---------------------------------------------------------------------------
# rigidity tensors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ElasticityTensor:
    """Membrane and bending rigidity tensors.

    Both tensors are stored in the reduced 3x3 form acting on the strain
    vector ``g = (g11, g22, 2*g12)``: the energy density is ``g^T M g``, which
    fixes the correspondence ``A^{abcd} = M[I(ab), I(cd)]`` with
    ``I(11)=0, I(22)=1, I(12)=I(21)=2``.  The index symmetries of the full
    four-index tensor are automatic in this representation, and coercivity on
    symmetric strains is equivalent to positive definiteness of ``M``.
    """

    membrane: np.ndarray
    bending: np.ndarray

    def __post_init__(self):
        for name in ("membrane", "bending"):
            m = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, m)
            if m.shape != (3, 3):
                raise InvariantError(f"{name} matrix must be 3x3")
            if np.abs(m - m.T).max() > _SYM_TOL * max(np.abs(m).max(), 1.0):
                raise InvariantError(f"{name} rigidity matrix must be symmetric")
            if np.linalg.eigvalsh(m).min() <= 0:
                raise InvariantError(f"{name} rigidity must be positive definite")

    @classmethod
    def identity(cls) -> "ElasticityTensor":
        """Unit rigidity matrices (A^1111 = A^2222 = A^1212 = 1)."""
        return cls(np.eye(3), np.eye(3))

    @classmethod
    def frobenius_identity(cls) -> "ElasticityTensor":
        """Rigidities whose energy density is the Frobenius norm of the strain.

        This is the symmetrized Kronecker tensor (A^1212 = 1/2), for which
        ``A:g:g = sum_ab g_ab^2``.
        """
        m = np.diag([1.0, 1.0, 0.5])
        return cls(m, m.copy())

    @classmethod
    def isotropic(cls, lam: float = 1.0, mu: float = 1.0) -> "ElasticityTensor":
        m = np.array([[lam + 2 * mu, lam, 0.0],
                      [lam, lam + 2 * mu, 0.0],
                      [0.0, 0.0, mu]])
        return cls(m, m.copy())

    @classmethod
    def from_matrices(cls, membrane, bending) -> "ElasticityTensor":
        return cls(np.asarray(membrane, float), np.asarray(bending, float))


# ---------------------------------------------------------------------------
# displacement fields and finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisplacementField:
    """Covariant components ``(u1, u2)`` and normal component ``u3`` on a grid.

    The components are stored as read-only views, and the caller must not
    write to the arrays it passed in afterwards: a field is immutable after
    construction.  That is what lets it keep the strain vectors of the last
    chart it was evaluated on, keyed by the identity of that
    :class:`MetricField`, so that :func:`energy_forms` differentiates it once
    per chart however many pairs it enters.
    """

    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    h: float

    def __post_init__(self):
        for name in ("u1", "u2", "u3"):
            object.__setattr__(self, name, _read_only(np.asarray(getattr(self, name)).view())[0])
        object.__setattr__(self, "_strain_cache", (None, None))   # (chart, vectors)
        if self.h <= 0:
            raise InvariantError("grid spacing must be positive")
        if not (self.u1.shape == self.u2.shape == self.u3.shape):
            raise GridMismatchError("displacement components live on different grids")
        if min(self.u1.shape) < 4:
            raise GridMismatchError("grids must have at least 4 points per direction")

    @property
    def shape(self) -> tuple:
        return self.u1.shape

    @classmethod
    def zeros(cls, shape, h) -> "DisplacementField":
        z = np.zeros(shape)
        return cls(z, z.copy(), z.copy(), h)

    @classmethod
    def from_functions(cls, f1, f2, f3, shape, h) -> "DisplacementField":
        n1, n2 = shape
        y1 = h * np.arange(n1)[:, None] * np.ones((1, n2))
        y2 = h * np.arange(n2)[None, :] * np.ones((n1, 1))
        return cls(np.asarray(f1(y1, y2), float), np.asarray(f2(y1, y2), float),
                   np.asarray(f3(y1, y2), float), h)

    def combine(self, alpha, other, beta) -> "DisplacementField":
        return DisplacementField(alpha * self.u1 + beta * other.u1,
                                 alpha * self.u2 + beta * other.u2,
                                 alpha * self.u3 + beta * other.u3, self.h)


def second_derivative(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order pure second derivative with one-sided edge stencils."""
    g = np.moveaxis(f, axis, 0)
    out = np.empty_like(g)
    out[1:-1] = g[2:] - 2.0 * g[1:-1] + g[:-2]
    out[0] = 2.0 * g[0] - 5.0 * g[1] + 4.0 * g[2] - g[3]
    out[-1] = 2.0 * g[-1] - 5.0 * g[-2] + 4.0 * g[-3] - g[-4]
    return np.moveaxis(out, 0, axis) / h ** 2


# ---------------------------------------------------------------------------
# strain measures
# ---------------------------------------------------------------------------

def _strains(u: DisplacementField, m: MetricField) -> tuple:
    """``(gamma, rho)`` of ``u``, components first, from one covariant gradient.

    First derivatives are second order: centered inside, one-sided at edges.
    """
    if u.shape != m.shape or u.h != m.h:
        raise GridMismatchError(
            f"displacement grid {u.shape} at spacing {u.h} does not match "
            f"metric grid {m.shape} at spacing {m.h}")
    h = u.h
    ut = np.stack((u.u1, u.u2))
    cov = np.stack(np.gradient(ut, h, axis=(1, 2), edge_order=2), axis=1)
    cov -= np.einsum("labxy,lxy->abxy", m.christoffel, ut)     # cov[a, b] = u_{a|b}
    gamma = 0.5 * (cov + cov.swapaxes(0, 1))
    gamma -= m.b_cov * u.u3
    tangential = np.einsum("lbxy,laxy->abxy", m.b_mixed, cov)  # b^l_b u_{l|a}
    del cov                # lowers the peak memory of energy_forms
    # second covariant derivative of the normal component
    d3 = np.array(np.gradient(u.u3, h, edge_order=2))
    rho = np.empty(tangential.shape)
    rho[0, 0] = second_derivative(u.u3, h, axis=0)
    rho[1, 1] = second_derivative(u.u3, h, axis=1)
    rho[0, 1] = rho[1, 0] = np.gradient(d3[0], h, axis=1, edge_order=2)
    rho -= np.einsum("labxy,lxy->abxy", m.christoffel, d3)
    rho += np.einsum("labxy,lxy->abxy", m.chart_terms.bcov, ut)
    rho += tangential
    rho += tangential.swapaxes(0, 1)
    rho -= m.chart_terms.bb * u.u3
    return gamma, rho


def strain_tensor(u: DisplacementField, m: MetricField) -> np.ndarray:
    """Membrane strain ``gamma_ab(u)`` as an ``(n1, n2, 2, 2)`` array.

    Symmetric by construction.
    """
    return np.moveaxis(_strains(u, m)[0], (0, 1), (2, 3))


def curvature_change_tensor(u: DisplacementField, m: MetricField) -> np.ndarray:
    """Change-of-curvature strain ``rho_ab(u)`` as an ``(n1, n2, 2, 2)`` array."""
    return np.moveaxis(_strains(u, m)[1], (0, 1), (2, 3))


_UPPER = np.triu_indices(3)
# density g^T M g: half the diagonal and the symmetrized off-diagonal entries
_UPPER_COEFF = np.where(_UPPER[0] == _UPPER[1], 0.25, 0.5)


def _strain_vectors(u: DisplacementField, m: MetricField) -> list:
    """``(g11, g22, 2*g12)`` rows of both strains of ``u``, a column per node.

    ``u`` keeps the vectors of the last chart it saw, holding that chart by
    reference, so another chart can never hit them.
    """
    chart, vectors = u._strain_cache
    if chart is not m:
        vectors = [np.stack([g[0, 0], g[1, 1], 2.0 * g[0, 1]]).reshape(3, -1)
                   for g in _strains(u, m)]
        object.__setattr__(u, "_strain_cache", (m, vectors))
    return vectors


def _form(mat: np.ndarray, su: np.ndarray, sv: np.ndarray, weight: np.ndarray) -> float:
    products = np.empty((len(_UPPER[0]), weight.size))
    for k, (i, j) in enumerate(zip(*_UPPER)):
        np.multiply(su[i], sv[j], out=products[k])
        products[k] += sv[i] * su[j]
    return float(_UPPER_COEFF * (mat + mat.T)[_UPPER] @ (products @ weight))


def energy_forms(u: DisplacementField, v: DisplacementField,
                 m: MetricField, e: ElasticityTensor) -> tuple:
    """Membrane and bending energy forms ``(a(u, v), b(u, v))``.

    A node sum with the weight ``h^2 sqrt(det a)`` at every grid node, edge
    rows included.  Both strains of a field come from its one covariant
    gradient, taken once per (field, chart): calls that reuse a field on the
    same ``m``, such as ``(u, v)``, ``(v, u)`` and ``(u, u)``, reuse its
    strains, since fields and charts do not change.  The six upper-triangle
    products ``g_i(u) g_j(v) + g_i(v) g_j(u)`` of each form are summed against
    the weights in one matrix-vector product, so exchanging ``u`` and ``v``
    returns bitwise-identical values.
    """
    weight = (m.area_element() * u.h ** 2).ravel()
    return tuple(_form(mat, a, b, weight) for mat, a, b in zip(
        (e.membrane, e.bending), _strain_vectors(u, m), _strain_vectors(v, m)))
