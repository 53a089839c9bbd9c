import numpy as np
import pytest

from shellsym import cli, polymat, symbols
from shellsym.geometry import (
    ElasticityTensor,
    SurfaceEllipticityError,
    frozen_point,
    sphere_cap_chart,
)
from shellsym.polymat import poly_coefficients
from shellsym.symbols import (
    BoundaryConditionSet,
    DNSystem,
    EllipticityError,
    builtin_boundary_conditions,
    builtin_system,
    characteristic_roots,
    decaying_solution_basis,
    ellipticity_check,
    principal_determinant,
    rigidity_strain_residual,
    sl_check,
    sl_verdict,
)

from conftest import (
    closed_form_elliptic,
    direct_ellipticity_scan,
    generator_symbol_oracle,
    interpolation_scale,
    random_elliptic_b,
    random_spd_matrix,
)

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


def entry_homogeneity_error(system, point, rng, n_samples=20):
    """Max relative error of the per-entry scaling ``L'(c xi) = c^(s+t) L'(xi)``."""
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
        assert entry_homogeneity_error(system, pt, rng) < 1e-12


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


# ---------------------------------------------------------------------------
# ellipticity
# ---------------------------------------------------------------------------

def test_ellipticity_verdicts():
    pt = frozen_point(1.0, 0.0, 1.0)
    rep = ellipticity_check(builtin_system("rigidity", pt), pt)
    assert rep.elliptic
    assert rep.min_abs_det == pytest.approx(1.0, rel=1e-12)

    # real characteristic directions on sample angles and, at 1,1.7,1,
    # between them, where |D| is far from zero on the sample
    for b12 in (2.0, 1.7):
        hyper = frozen_point(1.0, b12, 1.0)
        rep = ellipticity_check(builtin_system("rigidity", hyper), hyper)
        assert not rep.elliptic
    assert rep.min_abs_det > 1e-4 * rep.max_abs_det

    rep = ellipticity_check(builtin_system("membrane", pt, IDENTITY), pt)
    assert rep.elliptic
    rep = ellipticity_check(builtin_system("koiter", pt, IDENTITY, 0.1), pt)
    assert rep.elliptic


SYSTEM_NAMES = ("rigidity", "membrane_tension", "membrane", "koiter")
CURVATURE_KINDS = ("generic", "near-umbilic", "near-parabolic", "hyperbolic",
                   "b12=0", "umbilic")


def swept_curvature(rng, kind):
    """A curvature triple of ``kind`` at a scale between 1e-3 and 1e3."""
    b11, b22 = rng.uniform(0.3, 3.0, 2)
    root, sign = np.sqrt(b11 * b22), rng.choice((-1.0, 1.0))
    if kind == "generic":
        b12 = rng.uniform(-0.9, 0.9) * root
    elif kind == "near-umbilic":
        b22 = b11 * (1.0 + sign * 10.0 ** rng.uniform(-12, -2))
        b12 = b11 * 10.0 ** rng.uniform(-12, -3)
    elif kind == "near-parabolic":
        b12 = sign * root * (1.0 - 10.0 ** rng.uniform(-12, -2))
    elif kind == "hyperbolic":
        b12 = sign * root * rng.uniform(1.01, 3.0)
    elif kind == "b12=0":
        b12 = 0.0
    else:
        b22, b12 = b11, 0.0
    return 10.0 ** rng.uniform(-3, 3) * np.array([b11, b12, b22])


def swept_elasticity(rng):
    if rng.random() < 0.5:
        return ELASTICITIES[rng.integers(len(ELASTICITIES))]
    return ElasticityTensor.from_matrices(random_spd_matrix(rng), random_spd_matrix(rng))


def swept_frozen_points(rng, points_per_kind):
    """``(point, elasticity, eps)`` at frozen points of every curvature kind,
    eps 1e-8..0.5."""
    for kind in CURVATURE_KINDS:
        for _ in range(points_per_kind):
            pt = frozen_point(*swept_curvature(rng, kind))
            yield pt, swept_elasticity(rng), 10.0 ** rng.uniform(-8, np.log10(0.5))


def built_systems(pt, e, eps):
    """``(name, system)`` of every built-in system that exists at ``pt``."""
    for name in SYSTEM_NAMES:
        try:
            yield name, builtin_system(name, pt, e, eps)
        except SurfaceEllipticityError:   # hyperbolic: rigidity only
            pass


def swept_frozen_systems(rng, points_per_kind):
    """Built-in systems at frozen points of every curvature kind, eps 1e-8..0.5."""
    for pt, e, eps in swept_frozen_points(rng, points_per_kind):
        for _, system in built_systems(pt, e, eps):
            yield system, pt


def test_symbols_match_the_generator_oracle(rng):
    # every built-in system and boundary set, evaluated from its closed-form
    # coefficient stack, equals the strain and bending products formed at
    # the frequency itself, at real and complex frequencies; the stack
    # equals the one interpolated from the products at xi1 = 1
    cases = list(swept_frozen_points(rng, 5))
    for radius in (0.8, 1.7, 25.0):
        chart = sphere_cap_chart(radius=radius)
        cases += [(chart.point(i, j), e, 0.02)
                  for i, j in ((0, 0), (12, 12), (5, 17)) for e in ELASTICITIES]
    thetas = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    complex_xi = tuple(rng.normal(size=(2, 8)) + 1j * rng.normal(size=(2, 8)))
    for pt, e, eps in cases:
        built = list(built_systems(pt, e, eps))
        built += [(name, builtin_boundary_conditions(name, e)) for name in BC_NAMES]
        for name, sym in built:
            for xi in ((np.cos(thetas), np.sin(thetas)), complex_xi):
                want = generator_symbol_oracle(name, pt, xi, e, eps)
                scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
                assert np.all(np.abs(sym.symbol_gen(pt, xi) - want) <= 1e-14 * scale), name
            coeffs = sym.coefficients(pt)
            sampled = poly_coefficients(
                lambda z: generator_symbol_oracle(name, pt, (1.0, z), e, eps),
                len(coeffs) - 1)
            assert np.abs(coeffs - sampled).max() <= 1e-14 * np.abs(sampled).max(), name


def complex_scalar_system(coeffs):
    """Scalar system ``sum_j c_j xi1^(T-j) xi2^j`` with complex ``c_j``."""
    order = len(coeffs) - 1
    stack = np.asarray(coeffs, dtype=complex)[:, None, None]
    return DNSystem("complex", (order // 2,), (order // 2,), lambda pt: stack)


def test_ellipticity_check_equals_direct_scan(rng):
    # the report's extremes, read from the determinant polynomial, lie within
    # a few rounding errors of the direct scan of every angle, across scales,
    # curvature kinds and eps, at sphere-cap chart points (where the Koiter
    # |D| of a rotation-invariant rigidity is constant on the circle) and for
    # complex determinants.  The verdicts follow the closed form where there
    # is one, and the direct scan elsewhere
    cases = list(swept_frozen_systems(rng, 85))
    for radius in (0.8, 1.7, 3.0, 25.0):
        chart = sphere_cap_chart(radius=radius)
        for i, j in ((0, 0), (12, 12), (23, 23), (5, 17)):
            pt = chart.point(i, j)
            for e in ELASTICITIES:
                cases += [(builtin_system(name, pt, e, eps), pt)
                          for name, eps in zip(SYSTEM_NAMES, (0.0, 0.0, 0.0, 0.02))]
    pt = frozen_point(1.0, 0.0, 1.0)
    for order in (2, 2, 4, 4, 6) * 20:
        coeffs = rng.normal(size=order + 1) + 1j * rng.normal(size=order + 1)
        cases.append((complex_scalar_system(coeffs), pt))
    assert len(cases) >= 2000
    verdicts = set()
    for system, pt in cases:
        rep = ellipticity_check(system, pt)
        elliptic, lo, hi = direct_ellipticity_scan(system, pt)
        slack = 10 * np.finfo(float).eps * interpolation_scale(
            system.coefficients(pt), system.total_order)
        assert abs(rep.min_abs_det - lo) <= slack, (system.name, pt.b_triple)
        assert abs(rep.max_abs_det - hi) <= slack, (system.name, pt.b_triple)
        if system.name in ("rigidity", "membrane_tension", "membrane"):
            elliptic = closed_form_elliptic(system.name, pt.b_triple)
        assert rep.elliptic == elliptic, (system.name, pt.b_triple)
        verdicts.add(rep.elliptic)
    assert verdicts == {True, False}


def separate_scan(system, pt) -> tuple:
    """``(min |D|, max |D|, verdict)`` with one ``np.linalg.det`` call for
    ``system`` alone and Horner's rule on new arrays, each step
    ``values * sin + d_j * cos^(T - j)`` on the real circle sample."""
    coeffs, order = system.coefficients(pt), system.total_order

    def dets(zs):
        vander = zs[:, None] ** np.arange(len(coeffs))
        return np.linalg.det((vander @ coeffs.reshape(len(coeffs), -1)).reshape(-1, 3, 3))

    d = poly_coefficients(dets, order)
    cos, sin = symbols._CIRCLE
    values, power = np.full(cos.shape, d[-1]), cos
    for d_j in d[-2::-1]:
        values = values * sin + d_j * power
        power = power * cos
    values = np.abs(values)
    lo, hi = float(values.min()), float(values.max())
    return lo, hi, symbols._elliptic(d, 1.0, lo, hi)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")     # the radius 1e150 overflows
def test_per_point_checks_are_bit_equal_to_separate_scans(rng):
    # one determinant call on the stacked samples of a point's systems and
    # the in-place Horner give each system's extremes and verdict of a
    # determinant call on its own samples, bit for bit: seeded frozen points
    # of every curvature kind (hyperbolic and near-parabolic included, the
    # rigidity system alone where the surface is hyperbolic), the three
    # rigidities and random explicit ones, and the three sphere-cap sample
    # points at several radii
    cases = list(swept_frozen_points(rng, 12))
    for radius in (0.8, 1.7, 3.0, 1e-100, 1e150):
        chart = sphere_cap_chart(radius=radius)
        cases += [(chart.point(i, i), e, 0.02) for i in (0, 12, 23) for e in ELASTICITIES]
    verdicts = set()
    for pt, e, eps in cases:
        systems = [system for _, system in built_systems(pt, e, eps)]
        stacked = symbols._ellipticity_checks(systems, pt)
        for system, rep in zip(systems, stacked, strict=True):
            alone = ellipticity_check(system, pt)
            lo, hi, elliptic = separate_scan(system, pt)
            bits = np.array([[rep.min_abs_det, rep.max_abs_det],
                             [alone.min_abs_det, alone.max_abs_det], [lo, hi]]).view(np.uint64)
            assert (bits == bits[2]).all(), (system.name, pt.b_triple)
            assert rep.elliptic == alone.elliptic == elliptic, (system.name, pt.b_triple)
            verdicts.add(rep.elliptic)
    assert verdicts == {True, False}


def test_determinant_scan_is_within_a_few_rounding_errors(rng):
    # |D| from the T + 1 determinant coefficients of L'(sign, z), at every
    # angle of an odd grid (no angle is the mirror image of another), lies
    # within 10 eps_mach H of the direct |det L'|
    thetas = np.linspace(0.0, 2.0 * np.pi, 45, endpoint=False)
    cos, sin = np.cos(thetas), np.sin(thetas)
    for system, pt in swept_frozen_systems(rng, 5):
        dets = np.linalg.det(system.symbol_gen(pt, (cos, sin)))
        for sign in (1.0, -1.0):
            coeffs = symbols._coefficients_at(system, pt, sign)
            [(_, approx)] = symbols._determinant_scans([(coeffs, system.total_order)],
                                                       sign, cos, sin)
            gap = np.abs(approx - np.abs(dets)).max()
            scale = interpolation_scale(coeffs, system.total_order)
            assert gap <= 10 * np.finfo(float).eps * scale, (system.name, sign)


def test_symbol_gen_is_horner_over_the_pencil_coefficients(rng):
    # the evaluator and the pencil path read a stack at xi1 by one rule:
    # L'(x, (x1, z)) is Horner's rule in z over the coefficients at x1, bit
    # for bit, at both signs and at a random x1
    pt = frozen_point(*random_elliptic_b(rng))
    zs = rng.normal(size=3) + 1j * rng.normal(size=3)
    for e in ELASTICITIES:
        stacks = [builtin_system(name, pt, e, eps=0.07) for name in SYSTEM_NAMES]
        stacks += [builtin_boundary_conditions(name, e) for name in BC_NAMES]
        for sym in stacks:
            for x1 in (1.0, -1.0, rng.uniform(-5.0, 5.0)):
                coeffs = symbols._coefficients_at(sym, pt, x1)
                for z in zs:
                    want = 0.0
                    for c in coeffs[::-1]:
                        want = want * z + c
                    assert np.array_equal(sym.symbol_gen(pt, (x1, z)), want), sym.name


def test_ellipticity_check_evaluates_no_symbol(monkeypatch):
    # the report and the verdict come from the closed-form coefficients and
    # the T + 1 determinants of their interpolation, with no symbol evaluation
    pt = frozen_point(1.3, 0.4, 0.8)
    evaluate = symbols._evaluate
    calls = []

    def recorded(*args):
        calls.append(args)
        return evaluate(*args)
    monkeypatch.setattr(symbols, "_evaluate", recorded)
    for e in ELASTICITIES:
        for name in SYSTEM_NAMES:
            system = builtin_system(name, pt, e, eps=0.05)
            assert ellipticity_check(system, pt).elliptic
            decaying_solution_basis(system, pt, -1.0)
    assert calls == []


def test_basis_verdict_matches_ellipticity_check(rng):
    # decaying_solution_basis refuses a system at either sign of xi1 exactly
    # where ellipticity_check reads it not elliptic
    verdicts = set()
    for system, pt in swept_frozen_systems(rng, 20):
        elliptic = ellipticity_check(system, pt).elliptic
        for sign in (1.0, -1.0):
            try:
                decaying_solution_basis(system, pt, sign)
                refused = False
            except EllipticityError as exc:
                refused = "not elliptic" in str(exc)
            assert refused == (not elliptic), (system.name, pt.b_triple, sign)
        verdicts.add(elliptic)
    assert verdicts == {True, False}


def assert_never_elliptic(system, pt):
    assert not ellipticity_check(system, pt).elliptic, (system.name, pt.b_triple)
    for sign in (1.0, -1.0):
        with pytest.raises(EllipticityError, match="not elliptic"):
            decaying_solution_basis(system, pt, sign)


def test_hyperbolic_rigidity_is_never_elliptic():
    # b12^2 > b11 b22 gives two real characteristic directions, mostly
    # between sample angles: not elliptic in the report and in the decaying
    # basis at both signs
    hyperbolic = 0
    for pt, _, _ in swept_frozen_points(np.random.default_rng(5), 60):
        b11, b12, b22 = pt.b_triple
        if b12 ** 2 <= b11 * b22:
            continue
        hyperbolic += 1
        assert_never_elliptic(builtin_system("rigidity", pt), pt)
    assert hyperbolic == 60


def test_parabolic_points_are_never_elliptic():
    # a real double characteristic direction between sample angles, where
    # |D| does not change sign: at b = (1, 0.9, 0.81) the sampled minimum is
    # 9e-8 against a maximum of 1.81.  On the sweep, the closed-form ratio
    # decides: every surface-elliptic point whose ratio is at or below
    # DET_RTOL reads not elliptic, in the report and in the basis
    pt = frozen_point(1.0, 0.9, 0.81)
    assert_never_elliptic(builtin_system("rigidity", pt), pt)
    refused = 0
    for pt, e, eps in swept_frozen_points(np.random.default_rng(5), 60):
        b11, b12, b22 = pt.b_triple
        if b12 ** 2 >= b11 * b22:
            continue
        for name in ("rigidity", "membrane_tension", "membrane"):
            system = builtin_system(name, pt, e, eps)
            if closed_form_elliptic(name, pt.b_triple):
                assert ellipticity_check(system, pt).elliptic, (name, pt.b_triple)
            else:
                assert_never_elliptic(system, pt)
                refused += 1
    assert refused >= 100


def test_rigidity_verdict_is_invariant_under_rotation():
    # rotating the frame (b -> R^T b R) moves the real double direction of a
    # near-parabolic point across the sample angles; the verdict must not move
    rng = np.random.default_rng(16)
    for _ in range(40):
        b11, b22 = rng.uniform(0.3, 3.0, 2)
        b12 = rng.choice((-1.0, 1.0)) * np.sqrt(b11 * b22) * (1.0 - 10.0 ** rng.uniform(-12, -9))
        b = np.array([[b11, b12], [b12, b22]])
        verdicts = set()
        for phi in rng.uniform(0.0, np.pi, 12):
            rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])
            (r11, r12), (_, r22) = rot.T @ b @ rot
            pt = frozen_point(r11, r12, r22)
            verdicts.add(ellipticity_check(builtin_system("rigidity", pt), pt).elliptic)
        assert verdicts == {False}, (b11, b12, b22)


def test_elliptic_reads_nonfinite_input_as_not_elliptic(monkeypatch):
    # membrane coefficients that underflow to subnormals go through the root
    # finder without an overflow; a NaN or an infinity in the coefficients or
    # the sampled extremes is "not elliptic", with no call to the root finder
    pt = frozen_point(3e-162, 1e-162, 2e-162)
    assert not ellipticity_check(builtin_system("membrane", pt, IDENTITY), pt).elliptic

    def no_roots(_):
        raise AssertionError("np.roots called")
    monkeypatch.setattr(symbols.np, "roots", no_roots)
    d = np.array([1.0, 0.0, 1.0], dtype=complex)
    for bad_d, lo, hi in ((d, np.nan, 1.0), (d, 1.0, np.nan), (d, 0.0, np.inf),
                          (np.array([np.nan, 0.0, 1.0]), 1.0, 1.0),
                          (np.array([1.0, np.inf, 1.0]), 1.0, 1.0)):
        assert symbols._elliptic(bad_d, 1.0, lo, hi) is False
    # at b = 1e200 the membrane and Koiter coefficients overflow
    pt = frozen_point(1e200, 0.0, 1e200)
    assert ellipticity_check(builtin_system("rigidity", pt), pt).elliptic
    for name in ("membrane", "koiter"):
        system = builtin_system(name, pt, IDENTITY, 0.1)
        with np.errstate(over="ignore", invalid="ignore"):
            assert not ellipticity_check(system, pt).elliptic
            with pytest.raises(EllipticityError, match="not elliptic"):
                decaying_solution_basis(system, pt, 1.0)


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
    weighted = BoundaryConditionSet("weighted", bc.r_indices, bc.t_indices,
                                    lambda p: weights * bc.coefficients(p))
    plain, rep = sl_check(koiter, bc, pt, 2.0), sl_check(koiter, weighted, pt, 2.0)
    assert rep.margin == pytest.approx(plain.margin, rel=1e-12)
    assert abs(rep.sl_determinant) == pytest.approx(abs(plain.sl_determinant),
                                                    rel=1e-12)


def test_sl_wrong_bc_count():
    pt = frozen_point(1.0, 0.0, 1.0)
    membrane = builtin_system("membrane", pt, IDENTITY)
    with pytest.raises(ValueError):
        sl_check(membrane, builtin_boundary_conditions("u1"), pt, 1.0)
    # one condition, as the tension system needs, but written for unknowns
    # of indices (1, 1, 0): its entry degrees do not fit the system's
    tension = builtin_system("membrane_tension", pt)
    with pytest.raises(ValueError, match="unknowns of indices"):
        sl_check(tension, builtin_boundary_conditions("u1"), pt, 1.0)


# the boundary sets of each built-in system
SL_SETS = {"rigidity": ("u1", "u2", "u3"),
           "membrane": ("membrane_dirichlet", "membrane_traction"),
           "koiter": ("koiter_clamped",)}


def _bits(value) -> bytes:
    return np.asarray(value).tobytes()


def test_stacked_sl_verdicts_are_bit_equal_to_one_set_calls(rng):
    # numpy runs the same LAPACK routine on each matrix of a stack, so one
    # call for all of a basis's boundary sets reports what one call per set does
    witnesses = 0
    for b in random_elliptic_b(rng, 4):
        pt = frozen_point(*b)
        for rigidity in (IDENTITY, ElasticityTensor.frobenius_identity(),
                         ElasticityTensor.isotropic()):
            for eps in (1e-4, 1e-2, 0.3):
                for sys_name, bc_names in SL_SETS.items():
                    system = builtin_system(sys_name, pt, rigidity, eps)
                    bcs = [builtin_boundary_conditions(name, rigidity) for name in bc_names]
                    for xi1 in (-2.5, 1.0, 7.0):
                        basis = decaying_solution_basis(system, pt, xi1)
                        stacked = symbols._sl_verdicts(basis, bcs, xi1, bc_names)
                        assert len(stacked) == len(bcs)
                        for bc, name, rep in zip(bcs, bc_names, stacked):
                            one = sl_verdict(basis, bc, xi1, name)
                            assert rep.point_id == one.point_id == name
                            assert rep.satisfied is one.satisfied
                            assert _bits(rep.margin) == _bits(one.margin)
                            assert _bits(rep.sl_determinant) == _bits(one.sl_determinant)
                            assert _bits(rep.decaying_roots) == _bits(one.decaying_roots)
                            assert (rep.witness is None) == (one.witness is None)
                            if rep.witness is not None:
                                assert _bits(rep.witness) == _bits(one.witness)
                                witnesses += name == "membrane_traction"
    assert witnesses > 0


def test_sl_verdict_refuses_a_mismatched_boundary_set():
    # the same message whether the set is checked alone or second in a stack
    pt = frozen_point(1.0, 0.0, 1.0)
    u1 = builtin_boundary_conditions("u1")
    # C_1 != 0 gives an operator of order 1, not below the rigidity's deg = 1
    high = BoundaryConditionSet("high", (0,), (1, 1, 0),
                                lambda p: np.array([[[1.0, 0.0, 0.0]], [[0.0, 1.0, 0.0]]]))
    membrane = decaying_solution_basis(builtin_system("membrane", pt, IDENTITY), pt, 1.0)
    tension = decaying_solution_basis(builtin_system("membrane_tension", pt), pt, 1.0)
    rigidity = decaying_solution_basis(builtin_system("rigidity", pt), pt, 1.0)
    dirichlet = builtin_boundary_conditions("membrane_dirichlet")
    cases = ((membrane, u1, dirichlet, "u1: 1 boundary conditions, system needs 2"),
             (tension, u1, None, "u1: unknowns of indices (1, 1, 0), not (0, 0, 0)"),
             (rigidity, high, u1, "high: boundary operators must have order < 1"))
    for basis, bad, good, message in cases:
        with pytest.raises(ValueError) as one:
            sl_verdict(basis, bad, 1.0)
        assert str(one.value) == message
        if good is not None:
            with pytest.raises(ValueError) as stacked:
                symbols._sl_verdicts(basis, (good, bad), 1.0, ("good", "bad"))
            assert str(stacked.value) == message
    with pytest.raises(ValueError) as sign:
        sl_verdict(rigidity, u1, -2.0)
    assert str(sign.value) == "xi1=-2.0 does not have the sign of the basis (+1)"


def test_cached_constants_are_read_only_and_few(rng):
    # the tables that depend only on a sample count, on (T, sign) or on a
    # symbol's indices are built once and cannot be written; a sweep of
    # every curvature kind, elasticity and eps at both signs of xi1 leaves
    # one entry per sample count (orders 2, 4, 8), per (T, sign) and per
    # system, none per point or eps
    caches = (polymat._dft, symbols._vandermonde, symbols._circle_powers,
              symbols._degree_matrix, symbols._exponent_table)
    for cache in caches:
        cache.cache_clear()
    for system, pt in swept_frozen_systems(rng, 3):
        for sign in (1.0, -1.0):
            try:
                decaying_solution_basis(system, pt, sign)
            except EllipticityError:
                pass
    assert [cache.cache_info().currsize for cache in caches] == [3, 3, 6, 4, 4]

    pt = frozen_point(1.3, 0.4, 0.8)
    constants = [*polymat._dft(5), symbols._vandermonde(5, 3), *symbols._CIRCLE,
                 *symbols._circle_powers(4, -1.0),
                 symbols._exponent_table(builtin_system("koiter", pt, IDENTITY).degrees, 3)]
    for name in ("identity", "frobenius", "isotropic"):
        tensor = cli._builtin_elasticity(name)
        constants += [tensor.membrane, tensor.bending]
    for constant in constants:
        with pytest.raises(ValueError, match="read-only"):
            constant[...] = 0
