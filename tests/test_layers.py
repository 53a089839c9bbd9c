import numpy as np
import pytest
from scipy.integrate import quad

from shellsym.geometry import ElasticityTensor, SurfaceEllipticityError, frozen_point
from shellsym.layers import (
    StructureError,
    bending_layer_energy,
    bending_symbol_coefficient,
    build_layer_modes,
    decaying_profile,
    energy_symbols,
    fourth_order_polymatrix,
    frequency_cutoff,
    generalized_eigenvector,
    jordan_residual,
    layer_correction_energy_quadrature,
    layer_eigenvector,
    layer_energy_coefficient,
    layer_matrices,
    matching_constants,
    membrane_layer_energy,
    rigidity_roots,
    strain_residual_vector,
    sublayer_scaling_check,
)
from shellsym.symbols import builtin_system, characteristic_roots

from conftest import random_elliptic_b, random_spd_matrix

B_ROUND = (1.0, 0.0, 1.0)
A_ID = np.eye(3)


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
        _, _, u0 = generalized_eigenvector(lam_m, w, a, 1.0, b)
        val = np.vdot(u0, np.linalg.solve(a, u0))
        assert val.real > 0 and abs(val.imag) < 1e-12


def test_generalized_vector_gauge_and_tau(rng):
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    lam_p, lam_m = rigidity_roots(*b, 1.0)
    w = layer_eigenvector(lam_m, 1.0, b)
    v, tau, u0 = generalized_eigenvector(lam_m, w, a, 1.0, b)
    # no eigenvector component, and re-solving reproduces the same vector
    assert abs(np.vdot(w, v)) < 1e-10 * np.linalg.norm(v)
    v2, _, _ = generalized_eigenvector(lam_m, w, a, 1.0, b)
    assert np.allclose(v, v2, atol=1e-12)
    # the strain residual lies along A^{-1} u0 with the solvability scalar tau
    g0, g1 = layer_matrices(b, 1.0)
    r = (g0 + lam_m * g1) @ v + g1 @ w
    assert np.allclose(a @ r, tau * u0, atol=1e-10 * max(abs(tau), 1.0))


def test_jordan_profile_polynomial_coefficients_vanish(rng):
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    mode_m, _ = build_layer_modes(b, a, 2.0)
    pm = fourth_order_polymatrix(b, a, 2.0)
    from shellsym.polymat import apply_layer_ode
    out = apply_layer_ode(pm, mode_m.jordan_profile())
    for c in out.coeffs:
        assert np.linalg.norm(c) < 1e-9


def test_semisimple_exponent_is_reported():
    # at the round point with the Frobenius rigidity the double exponent is
    # semisimple: the Fredholm denominator vanishes and no Jordan profile exists
    a = ElasticityTensor.frobenius_identity().membrane
    lam_p, lam_m = rigidity_roots(*B_ROUND, 1.0)
    w = layer_eigenvector(lam_m, 1.0, B_ROUND)
    with pytest.raises(StructureError):
        generalized_eigenvector(lam_m, w, a, 1.0, B_ROUND)


# ---------------------------------------------------------------------------
# decaying profile and matching
# ---------------------------------------------------------------------------

def test_decaying_profile_round_point():
    prof = decaying_profile(1.0, 1.0, B_ROUND)
    assert prof.amplitude == pytest.approx(0.5)
    at0 = prof.value_at_zero()
    assert abs(at0[1]) < 1e-14          # second component vanishes at the edge
    assert at0[2] == pytest.approx(1.0)  # trace consistency


def test_decaying_profile_trace_consistency(rng):
    for b in random_elliptic_b(rng, 8):
        w3 = complex(rng.normal(), rng.normal())
        prof = decaying_profile(w3, 2.5, b)
        assert prof.value_at_zero()[2] == pytest.approx(w3, rel=1e-12)
        assert abs(prof.value_at_zero()[1]) < 1e-12 * abs(w3)


def test_decaying_profile_linearity_and_zero():
    prof = decaying_profile(0.0, 1.0, B_ROUND)
    assert np.allclose(prof.eval([0.0, 0.3, 1.0]), 0.0)
    with pytest.raises(ValueError):
        decaying_profile(1.0, 0.0, B_ROUND)


def test_matching_edge_conditions(rng):
    for b in random_elliptic_b(rng, 8):
        a = random_spd_matrix(rng)
        for xi1 in (1.0, 4.0):
            mr = matching_constants(xi1, b, a)
            assert mr.c3 == 0.0
            at0 = sum(m.value_at_zero() for m in mr.modified_profile())
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
    prof = decaying_profile(1.0, xi1, b)
    y = 20.0 / xi1
    modified = sum(m.eval([y])[0] for m in mr.modified_profile())
    plain = prof.eval([y])[0]
    lam_m = mr.mode_minus.lam
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
    for _ in range(5):
        b = random_elliptic_b(rng)
        a = random_spd_matrix(rng)
        t1 = layer_energy_coefficient(b, a, xi1=1.0)
        t4 = layer_energy_coefficient(b, a, xi1=4.0)
        assert abs(t1 - t4) < 1e-10 * t1


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
    r = strain_residual_vector(mode_m)
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


def test_correction_energy_decays_like_inverse_cube(rng):
    # at fixed edge trace the matched correction is near-rigid: its direct
    # membrane energy falls off like |xi1|^-3
    b = random_elliptic_b(rng)
    a = random_spd_matrix(rng)
    xs = np.array([2.0, 4.0, 8.0, 16.0, 32.0])
    es = np.array([layer_correction_energy_quadrature(x, 1.0, b, a) for x in xs])
    slope = np.polyfit(np.log(xs), np.log(es), 1)[0]
    assert slope == pytest.approx(-3.0, abs=1e-10)


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


def test_energy_symbols_values(rng):
    e = ElasticityTensor.identity()
    assert energy_symbols(B_ROUND, e) == (
        layer_energy_coefficient(B_ROUND, e.membrane),
        bending_symbol_coefficient(B_ROUND, e.bending))
    for b in random_elliptic_b(rng, 3):
        e = ElasticityTensor.from_matrices(random_spd_matrix(rng),
                                           random_spd_matrix(rng))
        assert energy_symbols(b, e) == (layer_energy_coefficient(b, e.membrane),
                                        bending_symbol_coefficient(b, e.bending))


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
