import numpy as np
import pytest

from shellsym.symbols import DET_RTOL


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_elliptic_b(rng, n=1):
    """Surface-elliptic curvature triples (b11, b12, b22), b11 > 0."""
    out = []
    for _ in range(n):
        b11 = rng.uniform(0.5, 2.5)
        b22 = rng.uniform(0.5, 2.5)
        b12 = rng.uniform(-0.6, 0.6) * np.sqrt(b11 * b22)
        out.append((b11, b12, b22))
    return out if n > 1 else out[0]


def random_spd_matrix(rng, ridge=0.3):
    w = rng.normal(size=(3, 3))
    return w.T @ w + ridge * np.eye(3)


def layer_matrices(b, xi1):
    """The pair ``(G0, G1)`` of the first-order layer system ``G0 + G1 d/dy2``.

    Written out by hand from the strain rows in the layer variables, with
    ``d/dy1 -> -i*xi1``, independently of the coefficient stacks in
    ``shellsym.symbols``.
    """
    b11, b12, b22 = b
    g0 = np.array([[-1j * xi1, 0.0, -b11],
                   [0.0, 0.0, -b22],
                   [0.0, -1j * xi1, -2.0 * b12]], dtype=complex)
    g1 = np.array([[0.0, 0.0, 0.0],
                   [0.0, 1.0, 0.0],
                   [1.0, 0.0, 0.0]], dtype=complex)
    return g0, g1


def jordan_profile_residual(mode, p_coeffs, ys=(0.0, 0.5, 1.0, 2.0)):
    """Largest ``|P0 f + P1 f' + P2 f''|`` over ``ys`` for the Jordan profile.

    ``f = (y w + v) e^{lam y}`` is differentiated analytically:
    ``f' = lam f + w e^{lam y}`` and ``f'' = lam^2 f + 2 lam w e^{lam y}``.
    """
    p0, p1, p2 = p_coeffs
    lam, w, v = mode.lam, mode.w, mode.v
    worst = 0.0
    for y in ys:
        e = np.exp(lam * y)
        f = (y * w + v) * e
        df = lam * f + w * e
        d2f = lam ** 2 * f + 2 * lam * w * e
        worst = max(worst, np.linalg.norm(p0 @ f + p1 @ df + p2 @ d2f))
    return worst


def jordan_chain_oracle(lam, w, a, xi1, b):
    """``(u0, tau, r, v)`` of the Jordan profile by SVD and least squares.

    ``u0`` is the right singular vector of ``G0c^T - lam*G1^T`` for its
    smallest singular value, ``tau = u0^T G1 w / u0^T A^{-1} u0``, ``v`` the
    least-squares solution of ``(G0 + lam*G1) v = tau A^{-1} u0 - G1 w``
    without its component along ``w``, and ``r = (G0 + lam*G1) v + G1 w``.
    """
    g0, g1 = layer_matrices(b, xi1)
    big_m = g0 + lam * g1
    _, sv, vh = np.linalg.svd(g0.conj().T - lam * g1.T)
    assert sv[-1] < 1e-8 * sv[0] < sv[-2], "adjoint kernel is not one-dimensional"
    u0 = vh[-1].conj()
    a_inv_u0 = np.linalg.solve(a, u0)
    tau = (u0 @ (g1 @ w)) / (u0 @ a_inv_u0)
    rhs = tau * a_inv_u0 - g1 @ w
    v, *_ = np.linalg.lstsq(big_m, rhs, rcond=None)
    assert np.linalg.norm(big_m @ v - rhs) < 1e-8 * (np.linalg.norm(rhs) + 1.0)
    v = v - (np.vdot(w, v) / np.vdot(w, w)) * w
    return u0, tau, big_m @ v + g1 @ w, v


def direct_ellipticity_scan(system, point):
    """``(elliptic, min |D|, max |D|)`` from the determinant at 360 angles.

    One symbol evaluation and one ``np.linalg.det`` on the whole stack of
    unit-circle frequencies, ``|D|`` rounded by ``hypot`` as the scalar
    ``abs(complex)``.  The verdict is the grid's own, ``min > DET_RTOL max``:
    it misses a zero of ``D`` that falls between two angles.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, 360, endpoint=False)
    dets = np.linalg.det(system.symbol_gen(point, (np.cos(thetas), np.sin(thetas))))
    vals = np.hypot(dets.real, dets.imag)
    lo, hi = float(vals.min()), float(vals.max())
    return bool(lo > DET_RTOL * hi), lo, hi


def interpolation_scale(coeffs, order):
    """Largest product of row norms of ``sum_m C_m z^m`` over the ``order + 1``
    roots of unity ``z``: the determinants there, and so the determinant
    coefficients and the values read from them, carry rounding errors of a
    few ``eps_mach`` times this."""
    zs = np.exp(2j * np.pi * np.arange(order + 1) / (order + 1))
    mats = np.einsum("zm,mij->zij", zs[:, None] ** np.arange(len(coeffs)), coeffs)
    return float(np.sqrt(np.prod(np.sum(np.abs(mats) ** 2, axis=-1), axis=-1).max()))


def closed_form_elliptic(name, b):
    """The verdict ``min |D| > DET_RTOL max |D|`` of the rigidity, tension or
    membrane system at ``b``, in closed form.

    The rigidity and tension determinant is
    ``-(b22 xi1^2 - 2 b12 xi1 xi2 + b11 xi2^2)``: it vanishes on the circle
    unless the form is definite, and then its ratio is
    ``lam_min / lam_max`` of ``[[b22, -b12], [-b12, b11]]``.  The membrane
    determinant is its square times ``det`` of the membrane matrix.
    """
    b11, b12, b22 = b
    if b11 * b22 - b12 ** 2 <= 0:
        return False
    lam = np.abs(np.linalg.eigvalsh(np.array([[b22, -b12], [-b12, b11]], dtype=float)))
    return (lam.min() / lam.max()) ** (2 if name == "membrane" else 1) > DET_RTOL


def _oracle_strain_rows(point, xi, s):
    """Strain rows ``(g11, g22, 2*g12)`` of the displacement, ``d -> s*xi``."""
    b11, b12, b22 = point.b_triple
    x1, x2 = xi
    out = np.zeros(np.broadcast_shapes(np.shape(x1), np.shape(x2)) + (3, 3), complex)
    out[..., 0, 0] = s * x1
    out[..., 1, 1] = s * x2
    out[..., 2, 0] = s * x2
    out[..., 2, 1] = s * x1
    out[..., :, 2] = (-b11, -b22, -2.0 * b12)
    return out


def _oracle_bending_rows(point, xi, s):
    """Curvature-change rows ``(r11, r22, 2*r12)``: for the pair ``ab`` the
    ``u_k`` entry is ``s*(b^k_b xi_a + b^k_a xi_b)`` and the ``u3`` entry
    ``-xi_a xi_b``, both doubled on the shear row."""
    bm = point.b_mixed
    x1, x2 = xi
    out = np.zeros(np.broadcast_shapes(np.shape(x1), np.shape(x2)) + (3, 3), complex)
    for r, (xa, xb, a, b) in enumerate([(x1, x1, 0, 0), (x2, x2, 1, 1), (x1, x2, 0, 1)]):
        scale = 2.0 if r == 2 else 1.0
        for k in range(2):
            out[..., r, k] = scale * s * (bm[k, b] * xa + bm[k, a] * xb)
        out[..., r, 2] = -scale * xa * xb
    return out


def generator_symbol_oracle(name, point, xi, elasticity=None, eps=0.0):
    """Principal symbol of a built-in system or boundary set, formed at ``xi``.

    The products of strain and bending rows are taken at the frequency
    itself, independently of the coefficient stacks in ``shellsym.symbols``;
    ``xi`` components may be broadcasting arrays.
    """
    g, gc = _oracle_strain_rows(point, xi, 1j), _oracle_strain_rows(point, xi, -1j)
    shape = g.shape[:-2]
    if name == "rigidity":
        return g
    if name == "membrane_tension":
        return gc.swapaxes(-1, -2)
    if name in ("membrane", "koiter"):
        membrane = gc.swapaxes(-1, -2) @ elasticity.membrane @ g
        if name == "membrane":
            return membrane
        r, rc = _oracle_bending_rows(point, xi, 1j), _oracle_bending_rows(point, xi, -1j)
        out = eps ** 2 * (rc.swapaxes(-1, -2) @ elasticity.bending @ r)
        out[..., :2, :2] += membrane[..., :2, :2]
        return out
    if name in ("u1", "u2", "u3"):
        out = np.zeros(shape + (1, 3), complex)
        out[..., 0, int(name[1]) - 1] = 1.0
        return out
    if name == "membrane_dirichlet":
        out = np.zeros(shape + (2, 3), complex)
        out[..., [0, 1], [0, 1]] = 1.0
        return out
    if name == "membrane_traction":
        return (elasticity.membrane @ g)[..., [2, 1], :]
    if name == "koiter_clamped":
        out = np.zeros(shape + (4, 3), complex)
        out[..., [0, 1, 2], [0, 1, 2]] = 1.0
        out[..., 3, 2] = 1j * xi[1]
        return out
    raise ValueError(name)
