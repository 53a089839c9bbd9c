import numpy as np
import pytest

from shellsym.layers import layer_matrices
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


def direct_ellipticity_scan(system, point, n_angles=360):
    """``(elliptic, min |D|, max |D|)`` from the determinant at every angle.

    One symbol evaluation and one ``np.linalg.det`` on the whole stack of
    unit-circle frequencies, ``|D|`` rounded by ``hypot`` as the scalar
    ``abs(complex)``: the scan ``ellipticity_check`` must reproduce bit for
    bit.
    """
    thetas = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    dets = np.linalg.det(system.symbol_gen(point, (np.cos(thetas), np.sin(thetas))))
    vals = np.hypot(dets.real, dets.imag)
    lo, hi = float(vals.min()), float(vals.max())
    return lo > DET_RTOL * hi, lo, hi
