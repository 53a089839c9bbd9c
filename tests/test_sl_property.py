"""Property test: the SL verdict and the characteristic roots over random
points, rigidities, eps and xi1."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from shellsym.cli import _SL_CASES
from shellsym.geometry import ElasticityTensor, frozen_point
from shellsym.symbols import (
    builtin_boundary_conditions,
    builtin_system,
    characteristic_roots,
    principal_determinant,
    sl_check,
)


def _spd(entries):
    w = np.reshape(entries, (3, 3))
    return w.T @ w + 0.3 * np.eye(3)


_SPD = st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(_spd)


def _det_backward_error(system, pt, xi1, z):
    # |det L'(xi1, z)| over the largest |det L'(xi1, w)| sampled on |w| = |z|,
    # which is at most sum_i |a_i| |z|^i: an upper bound of the backward
    # error of z as a root of the determinant polynomial
    ring = abs(z) * np.exp(2j * np.pi * np.arange(16) / 16)
    top = max(abs(principal_determinant(system, pt, (xi1, w))) for w in ring)
    return abs(principal_determinant(system, pt, (xi1, z))) / top


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(_SL_CASES),
       b_diag=st.tuples(st.floats(0.3, 3.0), st.floats(0.3, 3.0)),
       b_tilt=st.floats(-0.8, 0.8),
       membrane=_SPD, bending=_SPD,
       log_eps=st.floats(-6.0, -1.0),
       log_xi1=st.floats(-3.0, 6.0), sign=st.sampled_from((1.0, -1.0)))
def test_sl_verdict_property(case, b_diag, b_tilt, membrane, bending, log_eps,
                             log_xi1, sign):
    # fixed-edge sets satisfy SL, the free-edge traction set fails it, with
    # margins 9 decades apart, and the report at xi1 is the one at sign(xi1);
    # the roots split m / m between the half-planes, the decaying ones are
    # the report's, and each is a root of det L' checked without the pencil
    b11, b22 = b_diag
    pt = frozen_point(b11, b_tilt * np.sqrt(b11 * b22), b22)
    elastic = ElasticityTensor.from_matrices(membrane, bending)
    sys_name, bc_name = case
    system = builtin_system(sys_name, pt, elastic, 10.0 ** log_eps)
    bc = builtin_boundary_conditions(bc_name, elastic)
    xi1 = sign * 10.0 ** log_xi1
    rep = sl_check(system, bc, pt, xi1)
    unit = sl_check(system, bc, pt, sign)
    if bc_name == "membrane_traction":
        assert not rep.satisfied and rep.margin < 1e-12
    else:
        assert rep.satisfied and rep.margin > 1e-3
    assert (rep.satisfied, rep.margin, rep.sl_determinant) == \
        (unit.satisfied, unit.margin, unit.sl_determinant)
    assert np.array_equal(rep.decaying_roots, abs(xi1) * unit.decaying_roots)
    assert np.all(rep.decaying_roots.imag > 0)
    roots = characteristic_roots(system, pt, xi1)
    m = system.half_order
    assert (np.sum(roots.imag > 0), np.sum(roots.imag < 0)) == (m, m)
    assert np.array_equal(rep.decaying_roots, roots[roots.imag > 0])
    # Koiter's bending rows carry eps^2, yet its roots' backward error stays
    # flat in eps
    assert max(_det_backward_error(system, pt, xi1, z) for z in roots) < 1e-11
