import numpy as np
import pytest


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
