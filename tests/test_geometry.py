import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from shellsym import geometry
from shellsym.geometry import (
    ChartTerms,
    DisplacementField,
    ElasticityTensor,
    GridMismatchError,
    InvariantError,
    MetricData,
    MetricField,
    SurfaceEllipticityError,
    curvature_change_tensor,
    energy_forms,
    frozen_chart,
    frozen_point,
    second_derivative,
    sphere_cap_chart,
    strain_tensor,
    surface_elliptic_triple,
)

from conftest import random_spd_matrix

SHAPE = (16, 16)
H = 0.05


def field(f1, f2, f3, shape=SHAPE, h=H):
    return DisplacementField.from_functions(f1, f2, f3, shape, h)


zero = lambda y1, y2: np.zeros_like(y1)
one = lambda y1, y2: np.ones_like(y1)


def test_zero_displacement_gives_zero_strains():
    m = frozen_chart(1.0, 0.3, 2.0, SHAPE, H)
    u = DisplacementField.zeros(SHAPE, H)
    assert np.all(strain_tensor(u, m) == 0.0)
    assert np.all(curvature_change_tensor(u, m) == 0.0)


def test_membrane_strain_constant_coefficient_values():
    # b11 = 1 only, u = (y1, 0, 0): gamma11 = d1 u1 = 1
    m = frozen_chart(1.0, 0.0, 0.0, SHAPE, H)
    g = strain_tensor(field(lambda y1, y2: y1, zero, zero), m)
    assert np.allclose(g[..., 0, 0], 1.0, atol=1e-12)
    assert np.allclose(g[..., 0, 1], 0.0, atol=1e-12)
    assert np.allclose(g[..., 1, 1], 0.0, atol=1e-12)


def test_membrane_strain_normal_displacement():
    # u = (0, 0, 1) on b = (1, 0, 1): gamma = -b
    m = frozen_chart(1.0, 0.0, 1.0, SHAPE, H)
    g = strain_tensor(field(zero, zero, one), m)
    assert np.allclose(g[..., 0, 0], -1.0, atol=1e-12)
    assert np.allclose(g[..., 1, 1], -1.0, atol=1e-12)
    assert np.allclose(g[..., 0, 1], 0.0, atol=1e-12)


def test_curvature_strain_pure_bending():
    # flat chart, u3 = y1^2 / 2: only the second-derivative term survives
    m = frozen_chart(0.0, 0.0, 0.0, SHAPE, H)
    r = curvature_change_tensor(field(zero, zero, lambda y1, y2: y1 ** 2 / 2), m)
    assert np.allclose(r[..., 0, 0], 1.0, atol=1e-10)
    assert np.allclose(r[..., 1, 1], 0.0, atol=1e-10)
    assert np.allclose(r[..., 0, 1], 0.0, atol=1e-10)


def test_curvature_strain_normal_displacement():
    # u = (0, 0, 1) on b = (1, 0, 1): rho_ab = -b^l_a b_lb
    m = frozen_chart(1.0, 0.0, 1.0, SHAPE, H)
    r = curvature_change_tensor(field(zero, zero, one), m)
    assert np.allclose(r[..., 0, 0], -1.0, atol=1e-12)
    assert np.allclose(r[..., 1, 1], -1.0, atol=1e-12)
    assert np.allclose(r[..., 0, 1], 0.0, atol=1e-12)


def test_strains_symmetric_and_linear(rng):
    m = sphere_cap_chart(radius=1.5, shape=SHAPE, h=0.02)
    u = DisplacementField(rng.normal(size=SHAPE), rng.normal(size=SHAPE),
                          rng.normal(size=SHAPE), 0.02)
    v = DisplacementField(rng.normal(size=SHAPE), rng.normal(size=SHAPE),
                          rng.normal(size=SHAPE), 0.02)
    for op in (strain_tensor, curvature_change_tensor):
        gu, gv = op(u, m), op(v, m)
        assert np.allclose(gu, np.swapaxes(gu, -1, -2), atol=1e-11)
        combo = op(u.combine(2.0, v, -3.0), m)
        assert np.allclose(combo, 2.0 * gu - 3.0 * gv, atol=1e-10, rtol=1e-10)


def _analytic_membrane_strain(m, y1, y2, u, du):
    """Exact strain from analytic derivatives ``du[a][b] = d_b u_a``."""
    g = np.empty(y1.shape + (2, 2))
    for a in range(2):
        for b in range(2):
            cov_ab = du[a][b] - sum(m.christoffel[l, a, b] * u[l]
                                    for l in range(2))
            cov_ba = du[b][a] - sum(m.christoffel[l, b, a] * u[l]
                                    for l in range(2))
            g[..., a, b] = 0.5 * (cov_ab + cov_ba) - m.b_cov[a, b] * u[2]
    return g


def test_finite_differences_second_order_on_quartics():
    # error against the exact strain of a quartic field shrinks ~4x per h/2
    f1 = lambda y1, y2: y1 ** 4 + y2 ** 3
    f2 = lambda y1, y2: y1 ** 2 * y2 ** 2
    f3 = lambda y1, y2: y1 * y2
    d = {  # analytic first derivatives
        0: (lambda y1, y2: 4 * y1 ** 3, lambda y1, y2: 3 * y2 ** 2),
        1: (lambda y1, y2: 2 * y1 * y2 ** 2, lambda y1, y2: 2 * y1 ** 2 * y2),
    }
    errs = []
    for shape, h in (((11, 11), 0.04), ((21, 21), 0.02)):
        m = sphere_cap_chart(radius=1.0, shape=shape, h=h, theta0=0.8)
        n1, n2 = shape
        yc1 = h * np.arange(n1)[:, None] * np.ones((1, n2))
        yc2 = h * np.arange(n2)[None, :] * np.ones((n1, 1))
        u = (f1(yc1, yc2), f2(yc1, yc2), f3(yc1, yc2))
        du = [[d[a][b](yc1, yc2) for b in range(2)] for a in range(2)]
        exact = _analytic_membrane_strain(m, yc1, yc2, u, du)
        got = strain_tensor(field(f1, f2, f3, shape, h), m)
        errs.append(np.abs(got - exact).max())
    assert errs[0] / errs[1] > 3.0   # second-order convergence
    assert errs[1] < 2e-3


def test_finite_differences_exact_on_low_degree_polynomials():
    # first-derivative stencils are exact on quadratics, the pure
    # second-derivative stencils on cubics
    m = frozen_chart(0.0, 0.0, 0.0, SHAPE, H)
    u = field(lambda y1, y2: y1 ** 2 - 2 * y2 ** 2 + y1 * y2,
              lambda y1, y2: y2 ** 2 + y1 ** 2,
              lambda y1, y2: y1 ** 3 + y2 ** 3 + y1 ** 2 * y2)
    n1, n2 = SHAPE
    y1 = H * np.arange(n1)[:, None] * np.ones((1, n2))
    y2 = H * np.arange(n2)[None, :] * np.ones((n1, 1))
    g = strain_tensor(u, m)
    assert np.allclose(g[..., 0, 0], 2 * y1 + y2, atol=1e-10)
    assert np.allclose(g[..., 1, 1], 2 * y2, atol=1e-10)
    assert np.allclose(g[..., 0, 1], 0.5 * (y1 - 4 * y2 + 2 * y1), atol=1e-10)
    r = curvature_change_tensor(u, m)
    assert np.allclose(r[..., 0, 0], 6 * y1 + 2 * y2, atol=1e-9)
    assert np.allclose(r[..., 1, 1], 6 * y2, atol=1e-9)
    assert np.allclose(r[..., 0, 1], 2 * y1, atol=1e-9)


def test_sphere_cap_christoffel_matches_metric_derivatives():
    # Gamma^l_ab = a^{ls} (d_a a_sb + d_b a_sa - d_s a_ab) / 2, by central FD
    chart = sphere_cap_chart(radius=1.3, shape=(14, 14), h=0.01, theta0=0.8)
    h = chart.h
    a_cov = np.moveaxis(chart.a_cov, (0, 1), (2, 3))
    christoffel = np.moveaxis(chart.christoffel, (0, 1, 2), (2, 3, 4))
    da = np.stack([np.gradient(a_cov, h, axis=i, edge_order=2)
                   for i in range(2)])  # da[c, x, y, a, b] = d_c a_ab
    a_inv = np.linalg.inv(a_cov)
    want = np.zeros_like(christoffel)
    for l in range(2):
        for a in range(2):
            for b in range(2):
                term = 0.5 * (da[a, ..., :, b] + da[b, ..., :, a]
                              - np.stack([da[s, ..., a, b] for s in range(2)], axis=-1))
                want[..., l, a, b] = np.einsum("xys,xys->xy", a_inv[..., l, :], term)
    assert np.allclose(want, christoffel, atol=5e-4)


def test_energy_forms_zero_and_positive(rng):
    m = frozen_chart(1.0, 0.2, 1.5, SHAPE, H)
    e = ElasticityTensor.isotropic(1.0, 0.7)
    zero_field = DisplacementField.zeros(SHAPE, H)
    assert energy_forms(zero_field, zero_field, m, e) == (0.0, 0.0)
    for _ in range(100):
        u = DisplacementField(rng.normal(size=SHAPE), rng.normal(size=SHAPE),
                              rng.normal(size=SHAPE), H)
        a_uu, b_uu = energy_forms(u, u, m, e)
        assert a_uu >= 0.0 and b_uu >= 0.0


def test_energy_forms_symmetric_bitwise(rng):
    m = sphere_cap_chart(radius=2.0, shape=SHAPE, h=0.02)
    e = ElasticityTensor.identity()
    u = DisplacementField(rng.normal(size=SHAPE), rng.normal(size=SHAPE),
                          rng.normal(size=SHAPE), 0.02)
    v = DisplacementField(rng.normal(size=SHAPE), rng.normal(size=SHAPE),
                          rng.normal(size=SHAPE), 0.02)
    assert energy_forms(u, v, m, e) == energy_forms(v, u, m, e)


def test_frobenius_identity_energy_oracle(rng):
    # with the symmetrized Kronecker rigidity, a(u,u) is the quadrature of
    # the squared Frobenius norm of the strain
    m = frozen_chart(1.0, 0.0, 1.0, SHAPE, H)
    e = ElasticityTensor.frobenius_identity()
    u = DisplacementField(rng.normal(size=SHAPE), rng.normal(size=SHAPE),
                          rng.normal(size=SHAPE), H)
    a_uu, _ = energy_forms(u, u, m, e)
    g = strain_tensor(u, m)
    oracle = float(np.sum(np.sum(g ** 2, axis=(-1, -2))
                          * m.area_element() * H ** 2))
    assert a_uu == pytest.approx(oracle, rel=1e-13)


def test_grid_mismatch_and_invariant_errors(rng):
    m = frozen_chart(1.0, 0.0, 1.0, SHAPE, H)
    small = DisplacementField.zeros((8, 8), H)
    with pytest.raises(GridMismatchError):
        strain_tensor(small, m)
    with pytest.raises(GridMismatchError):   # same shape, other spacing
        strain_tensor(DisplacementField.zeros(SHAPE, 2 * H), m)
    with pytest.raises(GridMismatchError):
        energy_forms(DisplacementField.zeros(SHAPE, 2 * H),
                     DisplacementField.zeros(SHAPE, 2 * H), m,
                     ElasticityTensor.identity())
    with pytest.raises(GridMismatchError):
        MetricField(m.a_cov, m.b_cov, m.b_mixed, m.christoffel[..., :-1], H)
    with pytest.raises(GridMismatchError):
        MetricField(m.a_cov, m.b_cov, m.b_mixed[..., :-1, :], m.christoffel, H)
    for radius in (0.0, np.inf, np.nan):
        with pytest.raises(InvariantError):
            sphere_cap_chart(radius=radius)
    with pytest.raises(GridMismatchError):
        DisplacementField(np.zeros((8, 8)), np.zeros((8, 9)), np.zeros((8, 8)), H)
    with pytest.raises(InvariantError):
        MetricData(np.eye(2), np.array([[1.0, 0.2], [0.3, 1.0]]),
                   np.eye(2), np.zeros((2, 2, 2)))
    with pytest.raises(InvariantError):
        MetricData(np.array([[1.0, 2.0], [2.0, 1.0]]), np.eye(2),
                   np.eye(2), np.zeros((2, 2, 2)))
    with pytest.raises(InvariantError):
        ElasticityTensor(np.diag([1.0, 1.0, -0.1]), np.eye(3))


def test_elasticity_constructors(rng):
    for e in (ElasticityTensor.identity(), ElasticityTensor.frobenius_identity(),
              ElasticityTensor.isotropic(0.8, 1.2),
              ElasticityTensor.from_matrices(random_spd_matrix(rng),
                                             random_spd_matrix(rng))):
        for m in (e.membrane, e.bending):
            assert np.allclose(m, m.T)
            assert np.linalg.eigvalsh(m).min() > 0


def test_surface_ellipticity_flag():
    # one predicate, on triples and through the point
    assert surface_elliptic_triple(np.array([1, 0, 1])) == (1.0, 0.0, 1.0)
    frozen_point(1.0, 0.0, 1.0).require_surface_elliptic()
    for b in ((1.0, 2.0, 1.0), (-1.0, 0.0, -2.0), (1.0, 1.0, 1.0), (np.nan, 0.0, 1.0)):
        with pytest.raises(SurfaceEllipticityError):
            surface_elliptic_triple(b)
        with pytest.raises(SurfaceEllipticityError):
            frozen_point(*b).require_surface_elliptic()


# ---------------------------------------------------------------------------
# the contractions against per-component loops
# ---------------------------------------------------------------------------

def _grid_first(m):
    """Chart arrays with the grid axes first: ``[x, y, ...components]``."""
    return (np.moveaxis(m.b_cov, (0, 1), (2, 3)),
            np.moveaxis(m.b_mixed, (0, 1), (2, 3)),
            np.moveaxis(m.christoffel, (0, 1, 2), (2, 3, 4)))


def _loop_strain(u, m):
    """gamma_ab by explicit loops over the components."""
    b_cov, _, chris = _grid_first(m)
    ut = (u.u1, u.u2)
    du = np.empty(u.shape + (2, 2))       # du[..., a, b] = d_b u_a
    for a in range(2):
        for b in range(2):
            du[..., a, b] = np.gradient(ut[a], u.h, axis=b, edge_order=2)
    cov = du.copy()
    for a in range(2):
        for b in range(2):
            for l in range(2):
                cov[..., a, b] -= chris[..., l, a, b] * ut[l]
    gamma = 0.5 * (cov + np.swapaxes(cov, -1, -2))
    gamma -= b_cov * u.u3[..., None, None]
    return gamma


def _loop_curvature(u, m):
    """rho_ab by explicit loops over the components."""
    b_cov, b_mixed, chris = _grid_first(m)
    h = u.h
    ut = (u.u1, u.u2)
    d3 = [np.gradient(u.u3, h, axis=a, edge_order=2) for a in range(2)]
    dd3 = np.empty(u.shape + (2, 2))
    dd3[..., 0, 0] = second_derivative(u.u3, h, axis=0)
    dd3[..., 1, 1] = second_derivative(u.u3, h, axis=1)
    mixed = np.gradient(d3[0], h, axis=1, edge_order=2)
    dd3[..., 0, 1] = mixed
    dd3[..., 1, 0] = mixed
    u3_cov = dd3.copy()
    for a in range(2):
        for b in range(2):
            for l in range(2):
                u3_cov[..., a, b] -= chris[..., l, a, b] * d3[l]
    ucov = np.empty(u.shape + (2, 2))     # ucov[..., l, a] = u_{l|a}
    for l in range(2):
        for a in range(2):
            ucov[..., l, a] = np.gradient(ut[l], h, axis=a, edge_order=2)
            for s in range(2):
                ucov[..., l, a] -= chris[..., s, l, a] * ut[s]
    # b^l_{b|a} = d_a b^l_b + Gamma^l_an b^n_b - Gamma^n_ba b^l_n
    bcov = np.empty(u.shape + (2, 2, 2))  # bcov[..., l, b, a]
    for l in range(2):
        for b in range(2):
            for a in range(2):
                term = np.gradient(b_mixed[..., l, b], h, axis=a, edge_order=2)
                for n in range(2):
                    term = (term
                            + chris[..., l, a, n] * b_mixed[..., n, b]
                            - chris[..., n, b, a] * b_mixed[..., l, n])
                bcov[..., l, b, a] = term
    rho = u3_cov
    for a in range(2):
        for b in range(2):
            acc = np.zeros(u.shape)
            for l in range(2):
                acc += bcov[..., l, b, a] * ut[l]
                acc += b_mixed[..., l, b] * ucov[..., l, a]
                acc += b_mixed[..., l, a] * ucov[..., l, b]
                acc -= b_mixed[..., l, a] * b_cov[..., l, b] * u.u3
            rho[..., a, b] += acc
    return rho


def _loop_form(mat, gu, gv, weight):
    """Node sum of ``(g_i(u) g_j(v) + g_i(v) g_j(u)) / 2`` against ``mat``."""
    su = np.stack([gu[..., 0, 0], gu[..., 1, 1], 2.0 * gu[..., 0, 1]], axis=-1)
    sv = np.stack([gv[..., 0, 0], gv[..., 1, 1], 2.0 * gv[..., 0, 1]], axis=-1)
    density = np.zeros(weight.shape)
    for i in range(3):
        for j in range(3):
            density += mat[i, j] * 0.5 * (su[..., i] * sv[..., j]
                                          + sv[..., i] * su[..., j])
    return float(np.sum(density * weight)), float(np.sum(np.abs(density * weight)))


def _synthetic_chart(rng, shape=(20, 18), h=0.05):
    """Variable metric, curvature and Christoffels, so ``b^l_{b|a} != 0``."""
    n1, n2 = shape
    y1 = h * np.arange(n1)[:, None] * np.ones((1, n2))
    y2 = h * np.arange(n2)[None, :] * np.ones((n1, 1))

    def smooth():
        p, q, r = rng.normal(size=3)
        return np.sin(p * y1 + q * y2 + r)

    a = np.empty((2, 2) + shape)
    a[0, 0], a[1, 1] = 1.0 + 0.1 * smooth(), 1.2 + 0.1 * smooth()
    a[0, 1] = a[1, 0] = 0.05 * smooth()
    b = np.empty((2, 2) + shape)
    b[0, 0], b[1, 1] = 1.0 + 0.3 * smooth(), 0.8 + 0.2 * smooth()
    b[0, 1] = b[1, 0] = 0.2 * smooth()
    b_mixed = np.array([[1.0 + 0.3 * smooth(), 0.4 * smooth()],
                        [0.1 * smooth(), 0.9 + 0.2 * smooth()]])
    gamma = np.empty((2, 2, 2) + shape)
    for l in range(2):
        gamma[l, 0, 0], gamma[l, 1, 1] = smooth(), smooth()
        gamma[l, 0, 1] = gamma[l, 1, 0] = smooth()
    return MetricField(a, b, b_mixed, gamma, h)


def test_contractions_match_component_loops(rng):
    m = _synthetic_chart(rng)
    bcov = m.chart_terms.bcov
    assert np.abs(bcov).max() > 0.1
    assert np.abs(bcov - np.swapaxes(bcov, 0, 1)).max() > 0.1   # index order matters
    u, v = (DisplacementField(*rng.normal(size=(3,) + m.shape), m.h) for _ in range(2))
    for op, ref in ((strain_tensor, _loop_strain),
                    (curvature_change_tensor, _loop_curvature)):
        for w in (u, v):
            want = ref(w, m)
            got = op(w, m)
            assert got.shape == m.shape + (2, 2)
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
    e = ElasticityTensor.from_matrices(random_spd_matrix(rng), random_spd_matrix(rng))
    weight = m.area_element() * m.h ** 2
    got = energy_forms(u, v, m, e)
    for k, (ref, mat) in enumerate(((_loop_strain, e.membrane),
                                    (_loop_curvature, e.bending))):
        want, scale = _loop_form(mat, ref(u, m), ref(v, m), weight)
        assert abs(got[k] - want) <= 1e-13 * scale


@pytest.mark.parametrize("make_chart", [
    lambda: frozen_chart(1.0, 0.2, 1.5, (96, 96), 1.0 / 96),
    lambda: sphere_cap_chart(radius=1.3, shape=(96, 96), h=0.8 / 96),
], ids=["frozen", "sphere-cap"])
def test_energy_forms_bitwise_symmetry_and_self_pair(rng, make_chart):
    chart = make_chart()
    e = ElasticityTensor.isotropic(0.8, 1.1)
    u, v = (DisplacementField(*rng.normal(size=(3, 96, 96)), chart.h) for _ in range(2))
    assert energy_forms(u, v, chart, e) == energy_forms(v, u, chart, e)
    twin = DisplacementField(u.u1.copy(), u.u2.copy(), u.u3.copy(), u.h)
    assert energy_forms(u, u, chart, e) == energy_forms(u, twin, chart, e)


def test_chart_terms_built_once(monkeypatch, rng):
    built = []

    def counting(*terms):
        built.append(terms)
        return ChartTerms(*terms)

    monkeypatch.setattr(geometry, "ChartTerms", counting)
    m = sphere_cap_chart(radius=1.3, shape=SHAPE, h=0.02)
    e = ElasticityTensor.identity()
    u, v = (DisplacementField(*rng.normal(size=(3,) + SHAPE), 0.02) for _ in range(2))
    for _ in range(3):
        energy_forms(u, v, m, e)
        curvature_change_tensor(u, m)
    assert len(built) == 1
    assert m.chart_terms is m.chart_terms
    assert not m.chart_terms.bcov.flags.writeable
    assert not m.area_element().flags.writeable


def test_energy_job_memory_192():
    # chart plus three energy_forms calls at 192^2; keeping a grid-first copy
    # of the chart data beside the components-first one would exceed the bound
    n = 192
    h = 0.8 / n
    rng = np.random.default_rng(0)
    u, v = (DisplacementField(*rng.normal(size=(3, n, n)), h) for _ in range(2))
    e = ElasticityTensor.isotropic()
    tracemalloc.start()
    try:
        m = sphere_cap_chart(radius=1.3, shape=(n, n), h=h)
        energy_forms(u, v, m, e)
        energy_forms(v, u, m, e)
        energy_forms(u, u, m, e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18 * 2 ** 20


@pytest.mark.parametrize("make_chart,shape,seed,forms_digest,strains_digest", [
    (lambda shape: sphere_cap_chart(radius=1.3, shape=shape, h=0.8 / 56), (40, 56), 7,
     "388e66302b0d4bc68c6639b4b6401d4c98afb42d5723e30ad8014cfa4f8eff8d",
     "9819b22f814939d22ffabdbac9f160c72fa2e9352555137ec3a52a5e02c29fec"),
    (lambda shape: frozen_chart(1.0, 0.2, 1.5, shape, 1.0 / 48), (48, 48), 11,
     "59bcc4292b32aa52f0bcb80b60414b4202cbf3f7c1aa5e3883fee292eddc830c",
     "d04c73b926f022f8afc61d62b041fcf4dcaf1fe1a2774c5c94891eee9e5151c4"),
], ids=["sphere-cap", "frozen"])
def test_energy_forms_and_strains_golden_bits(make_chart, shape, seed,
                                              forms_digest, strains_digest):
    # sha256 of the float64 bytes as computed when each strain took its own
    # covariant gradient; a refactor of the strain layer must reproduce them
    m = make_chart(shape)
    rng = np.random.default_rng(seed)
    u, v = (DisplacementField(*rng.normal(size=(3,) + shape), m.h) for _ in range(2))
    e = ElasticityTensor.isotropic(0.8, 1.1)
    forms = energy_forms(u, v, m, e) + energy_forms(v, u, m, e) + energy_forms(u, u, m, e)
    strains = [op(w, m).ravel() for op in (strain_tensor, curvature_change_tensor)
               for w in (u, v)]
    assert hashlib.sha256(np.array(forms).tobytes()).hexdigest() == forms_digest
    assert hashlib.sha256(np.concatenate(strains).tobytes()).hexdigest() == strains_digest


def test_energy_forms_one_gradient_per_field(monkeypatch, rng):
    # both strains of a field come from one covariant gradient of (u1, u2),
    # the only 3-D np.gradient input, taken once per (field, chart)
    m = sphere_cap_chart(radius=1.3, shape=SHAPE, h=0.02)
    e = ElasticityTensor.identity()
    u, v = (DisplacementField(*rng.normal(size=(3,) + SHAPE), 0.02) for _ in range(2))
    ndims = []
    gradient = np.gradient

    def counting(f, *args, **kwargs):
        ndims.append(np.ndim(f))
        return gradient(f, *args, **kwargs)

    monkeypatch.setattr(np, "gradient", counting)
    energy_forms(u, v, m, e)
    energy_forms(v, u, m, e)
    energy_forms(u, u, m, e)
    assert ndims.count(3) == 2
    ndims.clear()
    twin = DisplacementField(u.u1.copy(), u.u2.copy(), u.u3.copy(), u.h)
    energy_forms(u, twin, m, e)
    assert ndims.count(3) == 1          # equal data is another field
    ndims.clear()
    energy_forms(u, v, sphere_cap_chart(radius=1.3, shape=SHAPE, h=0.02), e)
    assert ndims.count(3) == 2          # an equal chart is another chart


@pytest.mark.parametrize("make_chart", [
    lambda b11: frozen_chart(b11, 0.2, 1.5, (48, 48), 1.0 / 48),
    lambda b11: sphere_cap_chart(radius=b11 + 0.3, shape=(48, 48), h=1.0 / 48),
], ids=["frozen", "sphere-cap"])
def test_energy_gram_reused_fields_match_fresh_fields(rng, make_chart):
    # reusing fields across calls and across charts of one grid gives the
    # bits of a fresh field per call; a strain cache keyed by anything
    # weaker than the chart object would serve the first chart's strains
    e = ElasticityTensor.isotropic(0.8, 1.1)
    arrays = rng.normal(size=(6, 3, 48, 48))
    fields = [DisplacementField(*x, 1.0 / 48) for x in arrays]

    def gram(m, pick):
        return np.array([[energy_forms(pick(i), pick(j), m, e) for j in range(6)]
                         for i in range(6)])

    charts = [make_chart(1.0), make_chart(0.7), make_chart(1.0)]
    reused = [gram(m, fields.__getitem__) for m in charts]
    for m, got in zip(charts, reused):
        fresh = gram(m, lambda i: DisplacementField(*arrays[i], 1.0 / 48))
        assert got.shape == (6, 6, 2)
        assert np.array_equal(got, fresh)
    assert np.array_equal(reused[0], reused[2])
    assert not np.array_equal(reused[0], reused[1])


def test_displacement_field_is_read_only(rng):
    arrays = rng.normal(size=(3,) + SHAPE)
    u = DisplacementField(*arrays, H)
    with pytest.raises(ValueError):
        u.u1[0, 0] = 1.0
    assert np.shares_memory(u.u1, arrays[0])    # a view, not a copy
    assert arrays.flags.writeable               # the caller's array is untouched
    made = (DisplacementField.zeros(SHAPE, H),
            field(lambda y1, y2: y1, zero, one),
            u.combine(2.0, u, -1.0))
    for w in made:
        assert not any(x.flags.writeable for x in (w.u1, w.u2, w.u3))
    assert np.all(made[1].u3 == 1.0)
    assert np.array_equal(made[2].u2, u.u2)


def test_strain_cache_pins_no_chart(rng):
    # freed by reference counting alone: the cache forms no reference cycle
    e = ElasticityTensor.identity()
    m = sphere_cap_chart(radius=1.3, shape=SHAPE, h=0.02)
    u, v = (DisplacementField(*rng.normal(size=(3,) + SHAPE), 0.02) for _ in range(2))
    gc.disable()
    try:
        energy_forms(u, v, m, e)
        chart = weakref.ref(m)
        del u, v, m
        assert chart() is None
    finally:
        gc.enable()


def _metric_verdict(a) -> bool:
    try:
        MetricData(a, np.eye(2), np.eye(2), np.zeros((2, 2, 2)))
    except InvariantError as exc:
        assert str(exc) == "first fundamental form must be positive definite"
        return False
    return True


@pytest.mark.parametrize("a", [
    np.diag([1e-200, 1e-200]), np.diag([1e200, 1e200]), np.diag([5e-324, 5e-324]),
    np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]), np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]]),
    np.array([[1.0, 2.0], [2.0, 1.0]]), np.zeros((2, 2)), -np.eye(2),
    np.diag([1.0, 0.0]), np.diag([1e-300, 1.0]), np.array([[4.0, 1.0], [1.0, 3.0]]),
], ids=["tiny", "huge", "subnormal", "rank-one-1e-15", "rank-one-1e-13", "indefinite",
        "zero", "negative", "singular", "1e-300-scale", "generic"])
def test_metric_positivity_is_the_eigenvalue_verdict(a):
    # the closed-form proof on the max-normalised entries decides only where
    # it proves positive definiteness; eigvalsh decides the rest
    assert _metric_verdict(a) == (np.linalg.eigvalsh(a).min() > 0)


def test_metric_proof_never_accepts_what_eigvalsh_rejects(rng):
    # 2x2 metrics at every scale, within a few rounding errors of singular
    # (a11 a22 - a12^2 near 0 relative to the entries) and well inside
    for _ in range(3000):
        a11, a22 = rng.uniform(0.1, 10.0, 2)
        a12 = rng.choice((-1.0, 1.0)) * np.sqrt(a11 * a22) * (1.0 - 10.0 ** rng.uniform(-17, 0))
        a = 10.0 ** rng.uniform(-300, 300) * np.array([[a11, a12], [a12, a22]])
        if geometry._proves_positive_definite(a, np.abs(a).max()):
            assert np.linalg.eigvalsh(a).min() > 0, a
        assert _metric_verdict(a) == (np.linalg.eigvalsh(a).min() > 0), a
