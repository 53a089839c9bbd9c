import numpy as np
import pytest
from scipy.integrate import quad

from shellsym.geometry import ElasticityTensor, SurfaceEllipticityError, frozen_point
from shellsym.layers import (
    StructureError,
    _jordan_chain,
    bending_layer_energy,
    bending_symbol_coefficient,
    build_layer_modes,
    fourth_order_symbol,
    frequency_cutoff,
    jordan_residual,
    layer_eigenvector,
    layer_energy_coefficient,
    matching_constants,
    membrane_layer_energy,
    rigidity_roots,
    sublayer_scaling_check,
)
from shellsym.symbols import (
    _bending_coefficients,
    _evaluate,
    builtin_system,
    characteristic_roots,
)

from conftest import (
    jordan_chain_oracle,
    jordan_profile_residual,
    layer_matrices,
    random_elliptic_b,
    random_spd_matrix,
)

B_ROUND = (1.0, 0.0, 1.0)
A_ID = np.eye(3)


def oracle_theta(b, a, r, lam_m, xi1):
    """``theta`` from the strain ``r`` of a chain built at ``xi1``, in the
    stretched variable ``s = |xi1| y2``."""
    b11, b12, b22 = b
    pref = (b11 * b22 / (2.0 * np.sqrt(b11 * b22 - b12 ** 2))) ** 2
    return pref * np.vdot(r, a @ r).real / (2.0 * abs(lam_m.real) / abs(xi1))


def characteristic_polynomial(b, xi1):
    """Descending coefficients of ``det(G0 + lam*G1)`` in ``lam``."""
    b11, b12, b22 = b
    return np.array([b11, 2j * b12 * xi1, -b22 * xi1 ** 2], dtype=complex)


# ---------------------------------------------------------------------------
# characteristic exponents and eigenvectors
# ---------------------------------------------------------------------------

def test_roots_round_point():
    lam_p, lam_m = rigidity_roots(1.0, 0.0, 1.0, 2.0)
    assert lam_p == pytest.approx(2.0)
    assert lam_m == pytest.approx(-2.0)


def test_roots_tilted_point():
    lam_p, lam_m = rigidity_roots(2.0, 1.0, 1.0, 1.0)
    assert lam_p == pytest.approx(-0.5j + 0.5)
    assert lam_m == pytest.approx(-0.5j - 0.5)


def test_roots_homogeneous_degree_one(rng):
    b = random_elliptic_b(rng)
    for c in (2.0, 5.5, 17.0):
        base = rigidity_roots(*b, 1.3)
        scaled = rigidity_roots(*b, c * 1.3)
        assert scaled[0] == pytest.approx(c * base[0], rel=1e-12)
        assert scaled[1] == pytest.approx(c * base[1], rel=1e-12)


def test_roots_solve_quadratic(rng):
    # companion-matrix oracle on det(G0 + lam*G1)
    for b in random_elliptic_b(rng, 10):
        for xi1 in (1.0, -3.0, 7.5):
            got = set()
            for lam in rigidity_roots(*b, xi1):
                got.add(complex(np.round(lam, 9)))
            oracle = {complex(np.round(z, 9))
                      for z in np.roots(characteristic_polynomial(b, xi1))}
            for lam in got:
                assert min(abs(lam - z) for z in oracle) < 1e-9


def test_roots_match_half_space_frequencies(rng):
    # the exponent set equals {-i*xi2} over the rigidity characteristic
    # frequencies of the half-space convention
    for b in random_elliptic_b(rng, 5):
        pt = frozen_point(*b)
        system = builtin_system("rigidity", pt)
        for xi1 in (1.0, 3.0):
            freq = characteristic_roots(system, pt, xi1)
            lam_set = sorted((-1j * z for z in freq), key=lambda z: z.real)
            lam_p, lam_m = rigidity_roots(*b, xi1)
            want = sorted((lam_p, lam_m), key=lambda z: z.real)
            assert np.allclose(lam_set, want, atol=1e-10)


def test_roots_domain_errors():
    with pytest.raises(SurfaceEllipticityError):
        rigidity_roots(1.0, 2.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        rigidity_roots(1.0, 0.0, 1.0, 0.0)


def test_eigenvector_round_point():
    assert np.allclose(layer_eigenvector(1.0, 1.0, B_ROUND), [1j, 1.0, 1.0])
    assert np.allclose(layer_eigenvector(-1.0, 1.0, B_ROUND), [-1j, 1.0, -1.0])


def test_eigenvector_residual_and_normalization(rng):
    for b in random_elliptic_b(rng, 6):
        for xi1 in (1.0, -1.0, 3.0, -3.0, 10.0, -10.0):
            g0, g1 = layer_matrices(b, xi1)
            for lam in rigidity_roots(*b, xi1):
                w = layer_eigenvector(lam, xi1, b)
                assert w[1] == 1.0
                res = np.linalg.norm((g0 + lam * g1) @ w)
                assert res < 1e-10 * np.linalg.norm(w)


# ---------------------------------------------------------------------------
# generalized eigenvectors (Jordan profiles)
# ---------------------------------------------------------------------------

def test_jordan_residual_identity_rigidity():
    mode_m, mode_p = build_layer_modes(B_ROUND, A_ID, 1.0)
    assert jordan_residual(mode_m, A_ID) < 1e-12
    assert jordan_residual(mode_p, A_ID) < 1e-12


def test_jordan_residual_random_data(rng):
    for _ in range(10):
        b = random_elliptic_b(rng)
        a = random_spd_matrix(rng)
        mode_m, _ = build_layer_modes(b, a, 1.0)
        assert jordan_residual(mode_m, a) < 1e-9


def test_adjoint_kernel_pairing_positive(rng):
    # Hermitian pairing <A^{-1} u0, u0> is positive for definite A
    for _ in range(50):
        b = random_elliptic_b(rng)
        a = random_spd_matrix(rng)
        lam_p, lam_m = rigidity_roots(*b, 1.0)
        w = layer_eigenvector(lam_m, 1.0, b)
        u0, _, _, _ = _jordan_chain(lam_m, w, a, 1.0, b)
        val = np.vdot(u0, np.linalg.solve(a, u0))
        assert val.real > 0 and abs(val.imag) < 1e-12


def test_generalized_vector_gauge_and_tau(rng):
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    lam_p, lam_m = rigidity_roots(*b, 1.0)
    w = layer_eigenvector(lam_m, 1.0, b)
    u0, tau, _, v = _jordan_chain(lam_m, w, a, 1.0, b)
    # no eigenvector component, and re-solving reproduces the same vector
    assert abs(np.vdot(w, v)) < 1e-10 * np.linalg.norm(v)
    _, _, _, v2 = _jordan_chain(lam_m, w, a, 1.0, b)
    assert np.allclose(v, v2, atol=1e-12)
    # the strain residual lies along A^{-1} u0 with the solvability scalar tau
    g0, g1 = layer_matrices(b, 1.0)
    r = (g0 + lam_m * g1) @ v + g1 @ w
    assert np.allclose(a @ r, tau * u0, atol=1e-10 * max(abs(tau), 1.0))


def test_jordan_profile_polynomial_coefficients_vanish(rng):
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    mode_m, _ = build_layer_modes(b, a, 2.0)
    p_coeffs = fourth_order_symbol(b, a, 2.0)
    # P(z) is the product of the adjoint and the first-order factor
    g0, g1 = layer_matrices(b, 2.0)
    z = 0.7 - 1.3j
    p_z = (p_coeffs[2] * z + p_coeffs[1]) * z + p_coeffs[0]
    product = (g0.conj().T - z * g1.T) @ a @ (g0 + z * g1)
    assert np.linalg.norm(p_z - product) < 1e-12 * np.linalg.norm(product)
    assert jordan_profile_residual(mode_m, p_coeffs) < 1e-9
    assert jordan_residual(mode_m, a) < 1e-9
    # the layer variables read the symbols at (-xi1, -i*lam): the oracle's
    # G0 + lam*G1 is the rigidity symbol there bit for bit at both
    # exponents, and zeta's row xi1^2 (-1, mu^2, -2i mu sign xi1) is the u3
    # column of the bending rows, whose entries have degrees (1, 1, 2)
    degrees = np.add.outer((0, 0, 0), (1, 1, 2))
    for _ in range(40):
        b = random_elliptic_b(rng)
        pt = frozen_point(*b)
        rigidity = builtin_system("rigidity", pt)
        xi1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 8.0)
        g0, g1 = layer_matrices(b, xi1)
        lam_p, lam_m = rigidity_roots(*b, xi1)
        for lam in (lam_p, lam_m):
            assert np.array_equal(g0 + lam * g1, rigidity.symbol_gen(pt, (-xi1, -1j * lam)))
        mu = lam_m / abs(xi1)
        row = xi1 ** 2 * np.array([-1.0, mu ** 2, -2j * mu * np.sign(xi1)])
        column = _evaluate(_bending_coefficients(pt), degrees, -xi1, -1j * lam_m)[:, 2]
        assert np.abs(column - row).max() <= 1e-15 * np.abs(row).max()


def test_semisimple_exponent_is_reported():
    # at the round point with the Frobenius rigidity the double exponent is
    # semisimple: the Fredholm denominator vanishes and no Jordan profile
    # exists; so with the isotropic one, at every scale of the rigidity
    lam_p, lam_m = rigidity_roots(*B_ROUND, 1.0)
    w = layer_eigenvector(lam_m, 1.0, B_ROUND)
    for tensor in (ElasticityTensor.frobenius_identity(), ElasticityTensor.isotropic()):
        for s in (1e-12, 1.0, 1e12):
            with pytest.raises(StructureError, match="double exponent is semisimple"):
                _jordan_chain(lam_m, w, s * tensor.membrane, 1.0, B_ROUND)


def test_closed_form_chain_matches_svd_oracle(rng):
    # v, r and theta from the closed-form chain against the SVD + least-squares
    # route, at random curvatures, rigidities and both signs of xi1
    for _ in range(30):
        b = random_elliptic_b(rng)
        a = random_spd_matrix(rng)
        xi1 = rng.choice([-1.0, 1.0]) * rng.uniform(0.2, 8.0)
        _, lam_m = rigidity_roots(*b, xi1)
        w = layer_eigenvector(lam_m, xi1, b)
        _, _, r, v = _jordan_chain(lam_m, w, a, xi1, b)
        _, _, r_ref, v_ref = jordan_chain_oracle(lam_m, w, a, xi1, b)
        assert np.linalg.norm(v - v_ref) < 1e-12 * np.linalg.norm(v_ref)
        assert np.linalg.norm(r - r_ref) < 1e-12 * np.linalg.norm(r_ref)
        theta_ref = oracle_theta(b, a, r_ref, lam_m, xi1)
        assert abs(layer_energy_coefficient(b, a) - theta_ref) < 1e-12 * theta_ref


def test_theta_scales_with_rigidity():
    # theta is linear in A: the semisimple test is free of A's scale, so a
    # rigidity in Pa (1e11) is no umbilic
    b, a = (1.3, 0.4, 0.8), np.diag([1.0, 1.0, 0.5])
    theta = layer_energy_coefficient(b, a)
    for s in 10.0 ** np.arange(-12, 13, 2):
        assert abs(layer_energy_coefficient(b, s * a) - s * theta) < 1e-12 * s * theta


# ---------------------------------------------------------------------------
# matching
# ---------------------------------------------------------------------------

def test_matching_edge_conditions(rng):
    for b in random_elliptic_b(rng, 8):
        a = random_spd_matrix(rng)
        for xi1 in (1.0, 4.0):
            mr = matching_constants(xi1, b, a)
            assert mr.c3 == 0.0
            at0 = mr.edge_trace()
            assert abs(at0[0]) < 1e-10
            assert abs(at0[1]) < 1e-10


def test_matching_amplitude_scales_inverse_frequency(rng):
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    c1_1 = matching_constants(1.0, b, a).c1
    c1_8 = matching_constants(8.0, b, a).c1
    assert c1_8 == pytest.approx(c1_1 / 8.0, rel=1e-12)


def test_matching_out_of_layer_limit(rng):
    # outside the layer the correction terms are exponentially negligible:
    # modified profile ~ unmodified profile within the decay envelope
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    xi1 = 5.0
    mr = matching_constants(xi1, b, a)
    mode_m, mode_p = mr.mode_minus, mr.mode_plus
    y = 20.0 / xi1
    e_p, e_m = np.exp(mode_p.lam * y), np.exp(mode_m.lam * y)
    modified = mr.c1 * mode_p.w * e_p \
        + (mr.c2 * mode_m.w + mr.c4 * (y * mode_m.w + mode_m.v)) * e_m
    # the unmatched two-exponential profile with third edge trace w3 = 1 and
    # second edge trace 0
    plain = mr.c1 * (mode_p.w * e_p - mode_m.w * e_m)
    trace = mr.c1 * (mode_p.w - mode_m.w)
    assert abs(trace[1]) < 1e-14 and trace[2] == pytest.approx(1.0, rel=1e-12)
    lam_m = mode_m.lam
    envelope = np.exp(lam_m.real * y) * (1.0 + y) * 10.0
    assert np.linalg.norm(modified - plain) < envelope
    scale = np.linalg.norm(plain)
    assert np.linalg.norm(modified - plain) < 1e-3 * scale


def test_fourier_rigidity_two_by_two(rng):
    # the decaying two-mode family with both tangential traces zero is trivial:
    # the matching matrix is uniformly nonsingular over elliptic points
    for b in random_elliptic_b(rng, 20):
        a = random_spd_matrix(rng)
        mode_m, _ = build_layer_modes(b, a, 1.0)
        sys2 = np.array([[mode_m.w[0], mode_m.v[0]],
                         [mode_m.w[1], mode_m.v[1]]])
        assert abs(np.linalg.det(sys2)) > 1e-8


# ---------------------------------------------------------------------------
# frequency cutoff and low-frequency vector
# ---------------------------------------------------------------------------

def test_frequency_cutoff_plateaus():
    eps = np.exp(-100.0)
    assert frequency_cutoff(20.0, eps) == 1.0   # z = 2
    assert frequency_cutoff(4.0, eps) == 0.0    # z = 0.4
    mid = frequency_cutoff(7.5, eps)            # z = 0.75
    assert 0.0 < mid < 1.0


def test_frequency_cutoff_monotone():
    eps = 1e-8
    zs = np.linspace(0.1, 1.2, 20)
    scale = np.sqrt(np.log(1.0 / eps))
    vals = [frequency_cutoff(z * scale, eps) for z in zs]
    assert all(b2 >= b1 for b1, b2 in zip(vals, vals[1:]))


def test_frequency_cutoff_domain():
    for bad in (1.0, 1.5, 0.0, -0.1):
        with pytest.raises(ValueError):
            frequency_cutoff(1.0, bad)


# ---------------------------------------------------------------------------
# energy coefficients
# ---------------------------------------------------------------------------

def test_theta_frequency_independent(rng):
    # theta takes no frequency: it equals the oracle's energy of the chain
    # built at xi1 = 4
    for _ in range(5):
        b = random_elliptic_b(rng)
        a = random_spd_matrix(rng)
        _, lam_m = rigidity_roots(*b, 4.0)
        w = layer_eigenvector(lam_m, 4.0, b)
        r_ref = jordan_chain_oracle(lam_m, w, a, 4.0, b)[2]
        theta_ref = oracle_theta(b, a, r_ref, lam_m, 4.0)
        assert abs(layer_energy_coefficient(b, a) - theta_ref) < 1e-10 * theta_ref


def test_theta_positive(rng):
    for _ in range(20):
        b = random_elliptic_b(rng)
        a = random_spd_matrix(rng)
        assert layer_energy_coefficient(b, a) > 0.0


def test_theta_round_point_value():
    # residual vector (-2, 2, 2i), prefactor (1/2)^2, mu = -1
    assert layer_energy_coefficient(B_ROUND, A_ID) == pytest.approx(1.5, rel=1e-12)


def test_theta_quadrature_oracle(rng):
    # numeric y-quadrature of the stretched-layer strain against the closed form
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    mode_m, _ = build_layer_modes(b, a, 1.0)
    g0, g1 = layer_matrices(b, 1.0)
    r = (g0 + mode_m.lam * g1) @ mode_m.v + g1 @ mode_m.w
    mu = mode_m.lam / 1.0
    b11, b12, b22 = b
    pref = (b11 * b22 / (2.0 * np.sqrt(b11 * b22 - b12 ** 2))) ** 2
    integrand = lambda s: pref * np.vdot(r, a @ r).real * np.exp(2 * mu.real * s)
    oracle, _ = quad(integrand, 0.0, 50.0)
    assert layer_energy_coefficient(b, a) == pytest.approx(oracle, rel=1e-9)


def test_membrane_layer_energy_slope_one(rng):
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    es = np.array([membrane_layer_energy(x, 1.0, b, a) for x in xs])
    slope = np.polyfit(np.log(xs), np.log(es), 1)[0]
    assert slope == pytest.approx(1.0, abs=1e-10)


def test_bending_energy_slope_three(rng):
    b = random_elliptic_b(rng)
    bb = random_spd_matrix(rng)
    xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    es = np.array([bending_layer_energy(x, 1.0, b, bb) for x in xs])
    slope = np.polyfit(np.log(xs), np.log(es), 1)[0]
    assert slope == pytest.approx(3.0, abs=1e-10)
    assert bending_layer_energy(2.0, 1.0, B_ROUND, A_ID) == \
        pytest.approx(8.0 * bending_layer_energy(1.0, 1.0, B_ROUND, A_ID))


def test_bending_quadrature_identity():
    # int_0^inf (k^2 e^{-k y})^2 dy = k^3 / 2
    for k in (1.0, 2.0, 5.0):
        val, _ = quad(lambda y: (k ** 2 * np.exp(-k * y)) ** 2, 0, np.inf)
        assert val == pytest.approx(k ** 3 / 2.0, rel=1e-10)


def test_zeta_positive_and_round_value(rng):
    assert bending_symbol_coefficient(B_ROUND, A_ID) == pytest.approx(3.0)
    for _ in range(10):
        b = random_elliptic_b(rng)
        bb = random_spd_matrix(rng)
        assert bending_symbol_coefficient(b, bb) > 0.0


# ---------------------------------------------------------------------------
# sublayer scaling
# ---------------------------------------------------------------------------

def test_sublayer_scaling_examples():
    assert sublayer_scaling_check(1e-4).delta == pytest.approx(1e-2)
    assert sublayer_scaling_check(1.0).delta == pytest.approx(1.0)
    for eps in (1e-2, 1e-6):
        out = sublayer_scaling_check(eps)
        assert out.quartic_root_magnitude == pytest.approx(eps ** -0.5, rel=1e-10)
    with pytest.raises(ValueError):
        sublayer_scaling_check(0.0)
