import numpy as np
import pytest

from shellsym.geometry import ElasticityTensor, SurfaceEllipticityError, frozen_point
from shellsym.symbols import (
    BoundaryConditionSet,
    DNSystem,
    EllipticityError,
    builtin_boundary_conditions,
    builtin_system,
    characteristic_roots,
    ellipticity_check,
    principal_determinant,
    rigidity_strain_residual,
    sl_check,
    verify_homogeneity,
)

from conftest import random_elliptic_b, random_spd_matrix

IDENTITY = ElasticityTensor.identity()


def rigidity_det_formula(b, xi1, xi2):
    b11, b12, b22 = b
    return 2 * b12 * xi1 * xi2 - b22 * xi1 ** 2 - b11 * xi2 ** 2


# ---------------------------------------------------------------------------
# principal determinants
# ---------------------------------------------------------------------------

def test_rigidity_determinant_example():
    pt = frozen_point(1.0, 0.0, 1.0)
    system = builtin_system("rigidity", pt)
    d = principal_determinant(system, pt, (1.0, 1.0))
    assert abs(d) == pytest.approx(2.0, rel=1e-14)
    assert d == pytest.approx(rigidity_det_formula((1, 0, 1), 1, 1), rel=1e-14)


def test_rigidity_determinant_formula_random(rng):
    # closed form 2 b12 x1 x2 - b22 x1^2 - b11 x2^2 against the 3x3 determinant
    for _ in range(100):
        b = random_elliptic_b(rng)
        pt = frozen_point(*b)
        system = builtin_system("rigidity", pt)
        xi = rng.normal(size=2) + 1j * rng.normal(size=2)
        want = rigidity_det_formula(b, xi[0], xi[1])
        got = principal_determinant(system, pt, tuple(xi))
        assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


def test_rigidity_hyperbolic_point_has_real_root():
    # b = (1, 2, 1): det(1, x2) = 4 x2 - 1 - x2^2 vanishes at 2 +- sqrt(3)
    pt = frozen_point(1.0, 2.0, 1.0)
    system = builtin_system("rigidity", pt)
    for root in (2.0 + np.sqrt(3.0), 2.0 - np.sqrt(3.0)):
        assert abs(principal_determinant(system, pt, (1.0, root))) < 1e-12


def test_determinant_homogeneity_all_systems(rng):
    pt = frozen_point(1.2, 0.3, 1.5)
    for name in ("rigidity", "membrane_tension", "membrane", "koiter"):
        system = builtin_system(name, pt, IDENTITY, eps=0.1)
        two_m = system.total_order
        for _ in range(20):
            xi = rng.normal(size=2) + 1j * rng.normal(size=2)
            c = rng.normal() + 1j * rng.normal()
            d1 = principal_determinant(system, pt, tuple(c * xi))
            d0 = principal_determinant(system, pt, tuple(xi))
            assert abs(d1 - c ** two_m * d0) <= 1e-10 * max(abs(d0), 1.0) * abs(c) ** two_m
        assert verify_homogeneity(system, pt, rng) < 1e-12


def test_boundary_condition_entry_homogeneity(rng):
    # entry (k, j) of a boundary symbol is homogeneous of degree r_k + t_j
    # (identically zero when r_k + t_j < 0)
    pt = frozen_point(1.1, 0.2, 1.4)
    cases = [
        ("u1", (1, 1, 0)), ("u3", (1, 1, 0)),
        ("membrane_dirichlet", (1, 1, 0)),
        ("membrane_traction", (1, 1, 0)),
        ("koiter_clamped", (1, 1, 2)),
    ]
    for name, t in cases:
        bc = builtin_boundary_conditions(name, IDENTITY)
        for _ in range(5):
            xi = rng.normal(size=2) + 1j * rng.normal(size=2)
            c = rng.normal() + 1j * rng.normal()
            base = np.asarray(bc.symbol_gen(pt, tuple(xi)))
            scaled = np.asarray(bc.symbol_gen(pt, tuple(c * xi)))
            for k, r in enumerate(bc.r_indices):
                for j in range(3):
                    if r + t[j] < 0:
                        assert base[k, j] == 0
                    else:
                        want = c ** (r + t[j]) * base[k, j]
                        assert abs(scaled[k, j] - want) <= 1e-12 * (abs(want) + 1)


def test_zero_frequency_rejected():
    pt = frozen_point(1.0, 0.0, 1.0)
    system = builtin_system("rigidity", pt)
    with pytest.raises(ValueError):
        principal_determinant(system, pt, (0.0, 0.0))


ELASTICITIES = (IDENTITY, ElasticityTensor.frobenius_identity(),
                ElasticityTensor.isotropic())
BC_NAMES = ("u1", "u2", "u3", "membrane_dirichlet", "membrane_traction",
            "koiter_clamped")


def stacked_frequencies():
    """Real unit-circle frequencies and the complex interpolation points."""
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    yield np.cos(thetas), np.sin(thetas)
    for xi1 in (1.0, -0.3, 3.0, 20.0, 1e3):
        for n in (2, 3, 5, 9):
            radius = max(1.0, abs(xi1))
            yield xi1, radius * np.exp(2j * np.pi * np.arange(n) / n)


def assert_stacked_equals_pointwise(gen, pt):
    for x1, x2 in stacked_frequencies():
        stacked = gen(pt, (x1, x2))
        x1s, x2s = np.broadcast_arrays(x1, x2)
        pointwise = np.stack([gen(pt, (a, z)) for a, z in zip(x1s, x2s)])
        assert stacked.shape == pointwise.shape
        assert np.array_equal(stacked, pointwise)


def test_generators_broadcast_bitwise(rng):
    # stacked evaluation must round exactly as the per-point one, so CLI
    # output does not depend on how the frequencies are batched
    points = [frozen_point(1.0, 0.0, 1.0)]
    points += [frozen_point(*b) for b in random_elliptic_b(rng, 2)]
    for pt in points:
        for e in ELASTICITIES:
            for name in ("rigidity", "membrane_tension", "membrane", "koiter"):
                system = builtin_system(name, pt, e, eps=0.07)
                assert_stacked_equals_pointwise(system.symbol_gen, pt)
                assert system.symbol_gen(pt, (0.6, 0.8)).shape == (3, 3)
            for name in BC_NAMES:
                bc = builtin_boundary_conditions(name, e)
                assert_stacked_equals_pointwise(bc.symbol_gen, pt)
                assert bc.symbol_gen(pt, (0.6, 0.8)).shape == (bc.count, 3)


def test_ellipticity_check_matches_pointwise_determinants(rng):
    # the built-in determinants are real on real frequencies; the scalar
    # system with complex coefficients also pins the rounding of |det|
    c0, c1, c2 = rng.normal(size=3) + 1j * rng.normal(size=3)

    def complex_gen(pt, xi):
        x1, x2 = xi
        return np.asarray(c0 * x1 ** 2 + c1 * x1 * x2 + c2 * x2 ** 2)[..., None, None]

    pt = frozen_point(*random_elliptic_b(rng))
    cases = [(DNSystem("complex", 1, 1, (1,), (1,), complex_gen), pt)]
    for b in random_elliptic_b(rng, 3):
        pt = frozen_point(*b)
        for e in ELASTICITIES:
            for name in ("rigidity", "membrane_tension", "membrane", "koiter"):
                cases.append((builtin_system(name, pt, e, eps=0.07), pt))
    thetas = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    for system, pt in cases:
        rep = ellipticity_check(system, pt, n_angles=64)
        vals = [abs(principal_determinant(system, pt, (np.cos(t), np.sin(t))))
                for t in thetas]
        assert rep.min_abs_det == min(vals)
        assert rep.max_abs_det == max(vals)


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------

def test_ellipticity_verdicts():
    pt = frozen_point(1.0, 0.0, 1.0)
    rep = ellipticity_check(builtin_system("rigidity", pt), pt)
    assert rep.elliptic
    assert rep.min_abs_det == pytest.approx(1.0, rel=1e-12)

    hyper = frozen_point(1.0, 2.0, 1.0)
    rep = ellipticity_check(builtin_system("rigidity", hyper), hyper)
    assert not rep.elliptic

    rep = ellipticity_check(builtin_system("membrane", pt, IDENTITY), pt)
    assert rep.elliptic
    rep = ellipticity_check(builtin_system("koiter", pt, IDENTITY, 0.1), pt)
    assert rep.elliptic


def test_ellipticity_check_needs_enough_angles():
    pt = frozen_point(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        ellipticity_check(builtin_system("rigidity", pt), pt, n_angles=4)


def test_total_orders():
    pt = frozen_point(1.0, 0.1, 1.3)
    assert builtin_system("rigidity", pt).total_order == 2
    assert builtin_system("membrane_tension", pt).total_order == 2
    assert builtin_system("membrane", pt, IDENTITY).total_order == 4
    assert builtin_system("koiter", pt, IDENTITY, 0.1).total_order == 8


def test_membrane_family_requires_elliptic_surface():
    hyper = frozen_point(1.0, 2.0, 1.0)
    with pytest.raises(SurfaceEllipticityError):
        builtin_system("membrane", hyper, IDENTITY)
    # the rigidity system itself may be built anywhere
    builtin_system("rigidity", hyper)


def test_membrane_determinant_factorizes(rng):
    # block-triangular elimination: D_membrane = det(A) * D_tension * D_rigidity
    for _ in range(50):
        b = random_elliptic_b(rng)
        pt = frozen_point(*b)
        e = ElasticityTensor.from_matrices(random_spd_matrix(rng),
                                           random_spd_matrix(rng))
        membrane = builtin_system("membrane", pt, e)
        tension = builtin_system("membrane_tension", pt)
        rigidity = builtin_system("rigidity", pt)
        xi = tuple(rng.normal(size=2))
        d_m = principal_determinant(membrane, pt, xi)
        d_t = principal_determinant(tension, pt, xi)
        d_r = principal_determinant(rigidity, pt, xi)
        det_a = np.linalg.det(e.membrane)
        assert d_m == pytest.approx(det_a * d_t * d_r, rel=1e-11)
        # with unit rigidity the determinant is exactly the product
        membrane_id = builtin_system("membrane", pt, IDENTITY)
        d_mi = principal_determinant(membrane_id, pt, xi)
        assert d_mi == pytest.approx(d_t * d_r, rel=1e-11)


def test_tension_determinant_equals_rigidity_determinant(rng):
    for _ in range(20):
        b = random_elliptic_b(rng)
        pt = frozen_point(*b)
        xi = tuple(rng.normal(size=2) + 1j * rng.normal(size=2))
        d_t = principal_determinant(builtin_system("membrane_tension", pt), pt, xi)
        d_r = principal_determinant(builtin_system("rigidity", pt), pt, xi)
        assert d_t == pytest.approx(d_r, rel=1e-12)


# ---------------------------------------------------------------------------
# characteristic roots
# ---------------------------------------------------------------------------

def test_characteristic_roots_rigidity_round():
    pt = frozen_point(1.0, 0.0, 1.0)
    roots = characteristic_roots(builtin_system("rigidity", pt), pt, 1.0)
    assert np.allclose(sorted(roots, key=lambda z: z.imag), [-1j, 1j], atol=1e-12)


def test_characteristic_roots_rigidity_tilted():
    # b = (2, 1, 1): -1 + 2 x2 - 2 x2^2 = 0 at (1 +- i) / 2
    pt = frozen_point(2.0, 1.0, 1.0)
    roots = characteristic_roots(builtin_system("rigidity", pt), pt, 1.0)
    want = np.array([(1 - 1j) / 2, (1 + 1j) / 2])
    got = np.array(sorted(roots, key=lambda z: z.imag))
    assert np.allclose(got, want, atol=1e-12)


def test_characteristic_roots_membrane_doubled():
    pt = frozen_point(1.0, 0.0, 1.0)
    roots = characteristic_roots(builtin_system("membrane", pt, IDENTITY), pt, 1.0)
    assert np.allclose(sorted(roots, key=lambda z: z.imag),
                       [-1j, -1j, 1j, 1j], atol=1e-7)


@pytest.mark.parametrize("name,eps", [("rigidity", 0.0), ("membrane_tension", 0.0),
                                      ("membrane", 0.0), ("koiter", 0.05)])
def test_root_halves_balance(rng, name, eps):
    for _ in range(5):
        b = random_elliptic_b(rng)
        pt = frozen_point(*b)
        system = builtin_system(name, pt, IDENTITY, eps)
        for xi1 in (1.0, -2.0, 3.0):
            roots = characteristic_roots(system, pt, xi1)
            m = system.half_order
            assert np.sum(roots.imag > 0) == m
            assert np.sum(roots.imag < 0) == m


def test_characteristic_roots_homogeneous():
    # the roots at xi1 are those at sign(xi1) scaled by |xi1|; at 250, 300
    # and 500 an unscaled leading-coefficient test used to reject them
    pt = frozen_point(1.0, 0.0, 1.0)
    koiter = builtin_system("koiter", pt, IDENTITY, eps=1e-2)
    for s in (1.0, -1.0):
        unit = characteristic_roots(koiter, pt, s)
        assert np.sum(unit.imag > 0) == 4
        for t in (250.0, 300.0, 500.0):
            assert np.array_equal(characteristic_roots(koiter, pt, s * t), t * unit)


def test_real_root_raises():
    pt = frozen_point(1.0, 2.0, 1.0)
    with pytest.raises(EllipticityError):
        characteristic_roots(builtin_system("rigidity", pt), pt, 1.0)


# ---------------------------------------------------------------------------
# Shapiro-Lopatinskii
# ---------------------------------------------------------------------------

def test_sl_verdict_matrix_canonical_point():
    pt = frozen_point(1.0, 0.0, 1.0)
    rigidity = builtin_system("rigidity", pt)
    for name in ("u1", "u2", "u3"):
        rep = sl_check(rigidity, builtin_boundary_conditions(name), pt, 1.0)
        assert rep.satisfied and rep.margin > 1e-3
    membrane = builtin_system("membrane", pt, IDENTITY)
    rep = sl_check(membrane, builtin_boundary_conditions("membrane_dirichlet"),
                   pt, 1.0)
    assert rep.satisfied and rep.margin > 1e-3
    rep = sl_check(membrane,
                   builtin_boundary_conditions("membrane_traction", IDENTITY),
                   pt, 1.0)
    assert not rep.satisfied and rep.margin < 1e-12
    assert rep.witness is not None


def test_sl_traction_witness_is_strain_free(rng):
    # the null solution of the traction problem is the zero-strain layer mode
    # w exp(i xi2 x2), so its Cauchy data is (w, xi2 w) with Im xi2 > 0
    for _ in range(5):
        b = random_elliptic_b(rng)
        pt = frozen_point(*b)
        membrane = builtin_system("membrane", pt, IDENTITY)
        for xi1 in (1.0, -3.0):
            rep = sl_check(membrane,
                           builtin_boundary_conditions("membrane_traction", IDENTITY),
                           pt, xi1)
            assert not rep.satisfied
            assert rigidity_strain_residual(rep.witness, pt, xi1) < 1e-10
            u, du = rep.witness.reshape(2, 3)
            xi2 = np.vdot(u, du) / np.vdot(u, u)
            assert np.linalg.norm(du - xi2 * u) < 1e-10 * np.linalg.norm(du)
            lam = 1j * xi2
            assert lam.real < 0
            strain_free = [z for z in characteristic_roots(
                builtin_system("rigidity", pt), pt, xi1) if z.imag > 0]
            assert xi2 == pytest.approx(strain_free[0], abs=1e-10 * abs(xi1))


def test_sl_verdicts_random_points(rng):
    for b in random_elliptic_b(rng, 10):
        pt = frozen_point(*b)
        rigidity = builtin_system("rigidity", pt)
        membrane = builtin_system("membrane", pt, IDENTITY)
        for xi1 in (1.0, 3.0):
            for name in ("u1", "u2", "u3"):
                rep = sl_check(rigidity, builtin_boundary_conditions(name), pt, xi1)
                assert rep.satisfied and rep.margin > 1e-3
            rep = sl_check(membrane,
                           builtin_boundary_conditions("membrane_dirichlet"),
                           pt, xi1)
            assert rep.satisfied and rep.margin > 1e-3
            rep = sl_check(membrane,
                           builtin_boundary_conditions("membrane_traction", IDENTITY),
                           pt, xi1)
            assert not rep.satisfied and rep.margin < 1e-12


def test_sl_verdict_scale_invariant(rng):
    # the verdict is the same at every |xi1|, also at large |xi1|, where a
    # leading-coefficient test once raised a false EllipticityError
    b = random_elliptic_b(rng)
    pt = frozen_point(*b)
    cases = (
        ("membrane", "membrane_dirichlet", True, (1.0, 2.0, 17.0, 1e3, 1e4)),
        ("membrane", "membrane_traction", False, (1.0, 2.0, 17.0, 1e3, 1e4)),
        ("koiter", "koiter_clamped", True, (1.0, 10.0, 19.0, 20.0)),
        ("rigidity", "u1", True, (1.0, 1e5, 1e6)),
        ("rigidity", "u2", True, (1.0, 1e5, 1e6)),
        ("rigidity", "u3", True, (1.0, 1e5, 1e6)),
    )
    for sys_name, bc_name, want, xi1s in cases:
        system = builtin_system(sys_name, pt, IDENTITY, eps=0.1)
        bc = builtin_boundary_conditions(bc_name, IDENTITY)
        verdicts = {sl_check(system, bc, pt, xi1).satisfied for xi1 in xi1s}
        assert verdicts == {want}, (sys_name, bc_name)


def test_sl_koiter_clamped():
    pt = frozen_point(1.0, 0.0, 1.0)
    koiter = builtin_system("koiter", pt, IDENTITY, eps=0.1)
    rep = sl_check(koiter, builtin_boundary_conditions("koiter_clamped"), pt, 1.0)
    assert rep.half_order == 4
    assert rep.satisfied and rep.margin > 1e-3


def test_sl_margin_ignores_boundary_row_scale():
    # the boundary rows are scaled to unit norm, so weighting the boundary
    # operators leaves |det M| and the margin as they are
    pt = frozen_point(1.3, 0.4, 0.8)
    koiter = builtin_system("koiter", pt, IDENTITY, eps=1e-2)
    bc = builtin_boundary_conditions("koiter_clamped")
    weights = np.array([1.0, 1e3, 1e-3, 7.0])[:, None]
    weighted = BoundaryConditionSet(
        "weighted", bc.r_indices, lambda p, xi: weights * bc.symbol_gen(p, xi))
    plain, rep = sl_check(koiter, bc, pt, 2.0), sl_check(koiter, weighted, pt, 2.0)
    assert rep.margin == pytest.approx(plain.margin, rel=1e-12)
    assert abs(rep.sl_determinant) == pytest.approx(abs(plain.sl_determinant),
                                                    rel=1e-12)


def test_sl_wrong_bc_count():
    pt = frozen_point(1.0, 0.0, 1.0)
    membrane = builtin_system("membrane", pt, IDENTITY)
    with pytest.raises(ValueError):
        sl_check(membrane, builtin_boundary_conditions("u1"), pt, 1.0)
