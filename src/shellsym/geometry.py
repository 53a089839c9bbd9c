"""Surface data and the two-dimensional shell strain measures.

The shell model lives on a single chart.  A :class:`MetricField` carries the
first and second fundamental forms, the mixed curvature tensor and the
Christoffel symbols sampled on a rectangular grid; a :class:`MetricData` is
the same data frozen at one point, which is what the symbol machinery
consumes.  Displacements are triples ``(u1, u2, u3)`` of covariant tangential
components plus the normal component on the same grid.

Two strain measures are evaluated by second-order finite differences:

* the membrane strain
  ``gamma_ab(u) = (u_{a|b} + u_{b|a}) / 2 - b_ab u3``,
* the change-of-curvature strain
  ``rho_ab(u) = u3_{|ab} + b^l_{b|a} u_l + b^l_b u_{l|a} + b^l_a u_{l|b}
  - b^l_a b_lb u3``,

with ``|`` the covariant derivative of the surface.  The quadratic energy
forms contract these with the membrane and bending rigidity tensors and
integrate with the midpoint rule against the area element ``sqrt(det a)``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class InvariantError(ValueError):
    """Input data violates a structural invariant (symmetry, positivity)."""


class GridMismatchError(ValueError):
    """Fields are sampled on incompatible grids."""


class SurfaceEllipticityError(ValueError):
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
        scale = max(np.abs(a).max(), 1.0)
        if np.abs(a - a.T).max() > _SYM_TOL * scale:
            raise InvariantError("first fundamental form must be symmetric")
        if np.linalg.eigvalsh(a).min() <= 0:
            raise InvariantError("first fundamental form must be positive definite")
        if np.abs(b - b.T).max() > _SYM_TOL * max(np.abs(b).max(), 1.0):
            raise InvariantError("second fundamental form must be symmetric")
        if np.abs(g - np.swapaxes(g, 1, 2)).max() > _SYM_TOL * max(np.abs(g).max(), 1.0):
            raise InvariantError("Christoffel symbols must be symmetric in the lower indices")

    @property
    def is_surface_elliptic(self) -> bool:
        b = self.b_cov
        return bool(b[0, 0] * b[1, 1] - b[0, 1] ** 2 > 0 and b[0, 0] > 0)

    @property
    def b_triple(self) -> tuple:
        """(b11, b12, b22) of the second fundamental form."""
        return (float(self.b_cov[0, 0]), float(self.b_cov[0, 1]),
                float(self.b_cov[1, 1]))

    def require_surface_elliptic(self):
        if not self.is_surface_elliptic:
            b11, b12, b22 = self.b_triple
            raise SurfaceEllipticityError(
                f"point is not surface-elliptic: b=({b11}, {b12}, {b22})")


def frozen_point(b11: float, b12: float, b22: float) -> MetricData:
    """Constant-coefficient boundary-frame point: a = I, Gamma = 0."""
    b = np.array([[b11, b12], [b12, b22]], dtype=float)
    return MetricData(np.eye(2), b, b.copy(), np.zeros((2, 2, 2)))


@dataclass(frozen=True)
class MetricField:
    """Chart metric data sampled on an ``(n1, n2)`` grid with spacing ``h``."""

    a_cov: np.ndarray          # (n1, n2, 2, 2)
    b_cov: np.ndarray          # (n1, n2, 2, 2)
    b_mixed: np.ndarray        # (n1, n2, 2, 2), b^i_j in [..., i, j]
    christoffel: np.ndarray    # (n1, n2, 2, 2, 2), Gamma^l_ab in [..., l, a, b]
    h: float

    def __post_init__(self):
        if self.h <= 0:
            raise InvariantError("grid spacing must be positive")
        if self.a_cov.shape[:2] != self.b_cov.shape[:2]:
            raise GridMismatchError("metric component grids differ")
        # validate invariants on a sample of points (corners + center)
        n1, n2 = self.shape
        for i, j in {(0, 0), (0, n2 - 1), (n1 - 1, 0), (n1 - 1, n2 - 1),
                     (n1 // 2, n2 // 2)}:
            self.point(i, j)

    @property
    def shape(self) -> tuple:
        return self.a_cov.shape[:2]

    def point(self, i: int, j: int) -> MetricData:
        return MetricData(self.a_cov[i, j], self.b_cov[i, j],
                          self.b_mixed[i, j], self.christoffel[i, j])

    def area_element(self) -> np.ndarray:
        det = (self.a_cov[..., 0, 0] * self.a_cov[..., 1, 1]
               - self.a_cov[..., 0, 1] * self.a_cov[..., 1, 0])
        return np.sqrt(det)


def frozen_chart(b11: float, b12: float, b22: float,
                 shape: tuple = (24, 24), h: float = 0.05) -> MetricField:
    """Constant-coefficient chart: identity metric, flat frame, constant b.

    This is the frozen-coefficient setting in which all principal symbols are
    evaluated; the curvature triple is the only free data.
    """
    n1, n2 = shape
    ones = np.ones((n1, n2))
    a = np.einsum("ij,xy->xyij", np.eye(2), ones)
    b = np.einsum("ij,xy->xyij", np.array([[b11, b12], [b12, b22]]), ones)
    gamma = np.zeros((n1, n2, 2, 2, 2))
    return MetricField(a, b, b.copy(), gamma, h)


def sphere_cap_chart(radius: float = 1.0, shape: tuple = (24, 24),
                     h: float = 0.02, theta0: float = 0.7) -> MetricField:
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
    sin_t = np.sin(theta)[:, None] * np.ones((1, n2))
    cos_t = np.cos(theta)[:, None] * np.ones((1, n2))
    a = np.zeros((n1, n2, 2, 2))
    a[..., 0, 0] = radius ** 2
    a[..., 1, 1] = (radius * sin_t) ** 2
    b = a / radius
    b_mixed = np.zeros_like(a)
    b_mixed[..., 0, 0] = 1.0 / radius
    b_mixed[..., 1, 1] = 1.0 / radius
    gamma = np.zeros((n1, n2, 2, 2, 2))
    gamma[..., 0, 1, 1] = -sin_t * cos_t          # Gamma^1_22
    gamma[..., 1, 0, 1] = cos_t / sin_t           # Gamma^2_12
    gamma[..., 1, 1, 0] = cos_t / sin_t           # Gamma^2_21
    return MetricField(a, b, b_mixed, gamma, h)


CHART_GENERATORS = {
    "frozen": frozen_chart,
    "sphere-cap": sphere_cap_chart,
}


# ---------------------------------------------------------------------------
# rigidity tensors
# ---------------------------------------------------------------------------

_PAIR_INDEX = {(0, 0): 0, (1, 1): 1, (0, 1): 2, (1, 0): 2}


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

    def membrane_tensor(self) -> np.ndarray:
        """Full four-index membrane tensor A[a, b, c, d]."""
        return _full_tensor(self.membrane)


def _full_tensor(m: np.ndarray) -> np.ndarray:
    out = np.empty((2, 2, 2, 2))
    for (a, b), i in _PAIR_INDEX.items():
        for (c, d), j in _PAIR_INDEX.items():
            out[a, b, c, d] = m[i, j]
    return out


# ---------------------------------------------------------------------------
# displacement fields and finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DisplacementField:
    """Covariant components ``(u1, u2)`` and normal component ``u3`` on a grid."""

    u1: np.ndarray
    u2: np.ndarray
    u3: np.ndarray
    h: float

    def __post_init__(self):
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


def first_derivative(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order first derivative: centered inside, one-sided at edges."""
    return np.gradient(f, h, axis=axis, edge_order=2)


def second_derivative(f: np.ndarray, h: float, axis: int) -> np.ndarray:
    """Second-order pure second derivative with one-sided edge stencils."""
    g = np.moveaxis(f, axis, 0)
    out = np.empty_like(g)
    out[1:-1] = g[2:] - 2.0 * g[1:-1] + g[:-2]
    out[0] = 2.0 * g[0] - 5.0 * g[1] + 4.0 * g[2] - g[3]
    out[-1] = 2.0 * g[-1] - 5.0 * g[-2] + 4.0 * g[-3] - g[-4]
    return np.moveaxis(out, 0, axis) / h ** 2


def _check_grids(u: DisplacementField, m: MetricField):
    if u.shape != m.shape:
        raise GridMismatchError(
            f"displacement grid {u.shape} does not match metric grid {m.shape}")


# ---------------------------------------------------------------------------
# strain measures
# ---------------------------------------------------------------------------

def strain_tensor(u: DisplacementField, m: MetricField) -> np.ndarray:
    """Membrane strain ``gamma_ab(u)`` as an ``(n1, n2, 2, 2)`` array.

    Symmetric by construction.
    """
    _check_grids(u, m)
    ut = (u.u1, u.u2)
    du = np.empty(u.shape + (2, 2))       # du[..., a, b] = d_b u_a
    for a in range(2):
        for b in range(2):
            du[..., a, b] = first_derivative(ut[a], u.h, axis=b)
    # covariant derivative u_{a|b} = d_b u_a - Gamma^l_ab u_l
    cov = du.copy()
    for a in range(2):
        for b in range(2):
            for l in range(2):
                cov[..., a, b] -= m.christoffel[..., l, a, b] * ut[l]
    gamma = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    gamma -= m.b_cov * u.u3[..., None, None]
    return gamma


def curvature_change_tensor(u: DisplacementField, m: MetricField) -> np.ndarray:
    """Change-of-curvature strain ``rho_ab(u)`` as an ``(n1, n2, 2, 2)`` array."""
    _check_grids(u, m)
    h = u.h
    ut = (u.u1, u.u2)

    # second covariant derivative of the normal component
    d3 = [first_derivative(u.u3, h, axis=a) for a in range(2)]
    dd3 = np.empty(u.shape + (2, 2))
    dd3[..., 0, 0] = second_derivative(u.u3, h, axis=0)
    dd3[..., 1, 1] = second_derivative(u.u3, h, axis=1)
    mixed = first_derivative(d3[0], h, axis=1)
    dd3[..., 0, 1] = mixed
    dd3[..., 1, 0] = mixed
    u3_cov = dd3.copy()
    for a in range(2):
        for b in range(2):
            for l in range(2):
                u3_cov[..., a, b] -= m.christoffel[..., l, a, b] * d3[l]

    # covariant derivative of the tangential components
    ucov = np.empty(u.shape + (2, 2))     # ucov[..., l, a] = u_{l|a}
    for l in range(2):
        for a in range(2):
            ucov[..., l, a] = first_derivative(ut[l], h, axis=a)
            for s in range(2):
                ucov[..., l, a] -= m.christoffel[..., s, l, a] * ut[s]

    # covariant derivative of the mixed curvature tensor,
    # b^l_{b|a} = d_a b^l_b + Gamma^l_an b^n_b - Gamma^n_ba b^l_n
    bcov = np.empty(u.shape + (2, 2, 2))  # bcov[..., l, b, a]
    for l in range(2):
        for b in range(2):
            for a in range(2):
                term = first_derivative(m.b_mixed[..., l, b], h, axis=a)
                for n in range(2):
                    term = (term
                            + m.christoffel[..., l, a, n] * m.b_mixed[..., n, b]
                            - m.christoffel[..., n, b, a] * m.b_mixed[..., l, n])
                bcov[..., l, b, a] = term

    rho = u3_cov
    for a in range(2):
        for b in range(2):
            acc = np.zeros(u.shape)
            for l in range(2):
                acc += bcov[..., l, b, a] * ut[l]
                acc += m.b_mixed[..., l, b] * ucov[..., l, a]
                acc += m.b_mixed[..., l, a] * ucov[..., l, b]
                acc -= m.b_mixed[..., l, a] * m.b_cov[..., l, b] * u.u3
            rho[..., a, b] += acc
    return rho


def _strain_vector(g: np.ndarray) -> np.ndarray:
    """(g11, g22, 2*g12) stacked on the last axis."""
    return np.stack([g[..., 0, 0], g[..., 1, 1], 2.0 * g[..., 0, 1]], axis=-1)


def energy_forms(u: DisplacementField, v: DisplacementField,
                 m: MetricField, e: ElasticityTensor) -> tuple:
    """Membrane and bending energy forms ``(a(u, v), b(u, v))``.

    Midpoint-rule quadrature against the area element.  The integrand is
    assembled from the symmetrized products ``(g_i(u) g_j(v) + g_i(v)
    g_j(u)) / 2``, so exchanging ``u`` and ``v`` returns bitwise-identical
    values.
    """
    _check_grids(u, m)
    _check_grids(v, m)
    if u.h != v.h:
        raise GridMismatchError("fields have different grid spacings")
    weight = m.area_element() * u.h ** 2

    def form(mat, su, sv):
        density = np.zeros(u.shape)
        for i in range(3):
            for j in range(3):
                density += mat[i, j] * 0.5 * (su[..., i] * sv[..., j]
                                              + sv[..., i] * su[..., j])
        return float(np.sum(density * weight))

    a_val = form(e.membrane, _strain_vector(strain_tensor(u, m)),
                 _strain_vector(strain_tensor(v, m)))
    b_val = form(e.bending, _strain_vector(curvature_change_tensor(u, m)),
                 _strain_vector(curvature_change_tensor(v, m)))
    return a_val, b_val
