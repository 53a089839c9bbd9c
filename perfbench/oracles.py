"""Output oracles for the benchmark jobs, written independently of ``src/``.

Every oracle returns a list of problem strings; an empty list means the
output is correct.  Problems start with a stable category prefix (the text
before the first ``':'``) so that a known defect can be recognised by its
categories alone.

The reduced-model oracles recompute the model symbols in log space,

    log s(k) = log theta + 1/2 log1p(k^2) - 2 d |k|,
    log q(k) = log zeta + 3 log |k|         (q(0) = zeta * Q_FLOOR),

so a value the program reports as ``inf`` or ``0`` where the true value is
finite and nonzero is caught.
"""

from __future__ import annotations

import math

import numpy as np

Q_FLOOR = 1e-2          # the model's floor on q at k = 0
RTOL = 1e-9             # agreement for quantities computed in closed form
KSTAR_ATOL = 1e-7       # crossover frequency, in modes

# membrane rigidity matrices of the built-in elasticity tensors, acting on the
# strain vector (g11, g22, 2 g12)
MEMBRANE_MATRICES = {
    "identity": np.eye(3),
    "frobenius": np.diag([1.0, 1.0, 0.5]),
    "isotropic": np.array([[3.0, 1.0, 0.0], [1.0, 3.0, 0.0], [0.0, 0.0, 1.0]]),
}
BENDING_MATRICES = MEMBRANE_MATRICES   # the built-ins use the same matrix twice

SL_CASES = (("rigidity", "u1", 1, True), ("rigidity", "u2", 1, True),
            ("rigidity", "u3", 1, True),
            ("membrane", "membrane_dirichlet", 2, True),
            ("membrane", "membrane_traction", 2, False),
            ("koiter", "koiter_clamped", 4, True))
SYSTEM_ORDERS = (("rigidity", 2), ("membrane_tension", 2), ("membrane", 4),
                 ("koiter", 8))


def parse_csv(text: str, header: str) -> tuple:
    """(rows, problems): rows as lists of strings after the schema header.

    Fields are split from the right: the CLI writes sphere point ids such as
    ``sphere(0,0)`` unquoted in the first column.
    """
    lines = text.split("\n")
    if not text.endswith("\n") or len(lines) < 3:
        return [], ["format: output is not a complete CSV file"]
    if lines[0] != "# schema=1" or lines[1] != header:
        return [], [f"format: unexpected header {lines[:2]!r}"]
    fields = header.count(",")
    return [line.rsplit(",", fields) for line in lines[2:-1]], []


def _close(got: float, want: float, rtol: float = RTOL) -> bool:
    if not math.isfinite(got):
        return False
    return abs(got - want) <= rtol * abs(want)


def _column_problems(name: str, got, want, rtol: float = RTOL,
                     atol=0.0) -> list:
    """Compare a column elementwise; non-finite results get their own category."""
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    nonfinite = ~np.isfinite(got) & np.isfinite(want)
    with np.errstate(invalid="ignore"):
        close = (got == want) | (np.abs(got - want) <= rtol * np.abs(want) + atol)
    bad = ~nonfinite & ~close
    out = []
    if nonfinite.any():
        out.append(f"nonfinite {name}: {int(nonfinite.sum())} values are not "
                   "finite where the true value is")
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        out.append(f"value {name}: {int(bad.sum())} values differ, first "
                   f"got {got[i]!r} want {want[i]!r}")
    return out


# ---------------------------------------------------------------------------
# symbols and layers
# ---------------------------------------------------------------------------

def check_sl_csv(text: str, xi1_list) -> list:
    """Verdict matrix: fixed-edge sets satisfied, traction not, at every xi1."""
    rows, problems = parse_csv(text, "point_id,xi1,m,abs_det,satisfied")
    if problems:
        return problems
    if len(rows) != len(SL_CASES) * len(xi1_list):
        return [f"format: {len(rows)} rows, want {len(SL_CASES) * len(xi1_list)}"]
    it = iter(rows)
    for sys_name, bc_name, m, satisfied in SL_CASES:
        case = f"{sys_name}+{bc_name}"
        for xi1 in xi1_list:
            row = next(it)
            if row[0] != case or float(row[1]) != xi1 or row[2] != str(m):
                problems.append(f"format: row {row} for case {case} xi1={xi1}")
                continue
            det = float(row[3])
            if not (math.isfinite(det) and det >= 0.0):
                problems.append(f"value {case}: abs_det {row[3]} at xi1={xi1}")
            if row[4] != str(satisfied).lower():
                problems.append(f"verdict {case}: satisfied={row[4]} at xi1={xi1}")
    return problems


def check_sl_report(report, expected: bool, m: int, xi1: float) -> list:
    problems = []
    if report.half_order != m or float(report.xi1) != xi1:
        problems.append(f"format: m={report.half_order} xi1={report.xi1}")
    if not math.isfinite(abs(report.sl_determinant)):
        problems.append("value: non-finite SL determinant")
    if bool(report.satisfied) != expected:
        problems.append(f"verdict: satisfied={report.satisfied}, want {expected}")
    return problems


def _layer_mu(b) -> complex:
    """Decaying layer exponent at unit frequency, lam_minus(xi1=1)."""
    b11, b12, b22 = b
    return complex(-b12 / b11 * 1j - math.sqrt(b11 * b22 - b12 ** 2) / b11)


def bending_coefficient(b, elasticity: str) -> float:
    """zeta = <B rho, rho> / (2 |Re mu|) with rho = (-1, mu^2, -2 i mu)."""
    mu = _layer_mu(b)
    rho = np.array([-1.0, mu ** 2, -2j * mu])
    quad = np.vdot(rho, BENDING_MATRICES[elasticity] @ rho).real
    return float(quad / (2.0 * abs(mu.real)))


def layer_modes_csv(text: str, xi1_list, b) -> list:
    """Closed-form lam_pm; theta and zeta positive and constant across rows."""
    rows, problems = parse_csv(
        text, "xi1,re_lam_plus,im_lam_plus,re_lam_minus,im_lam_minus,theta,zeta")
    if problems:
        return problems
    if len(rows) != len(xi1_list):
        return [f"format: {len(rows)} rows, want {len(xi1_list)}"]
    b11, b12, b22 = b
    vals = np.array([[float(v) for v in row] for row in rows])
    xi1 = np.asarray(xi1_list, dtype=float)
    if not np.array_equal(vals[:, 0], xi1):
        problems.append("format: xi1 column differs from the config")
    drift = -xi1 * b12 / b11                      # imaginary part of both roots
    spread = np.abs(xi1) * math.sqrt(b11 * b22 - b12 ** 2) / b11
    scale = np.abs(drift) + spread
    for col, want, name in ((1, spread, "re_lam_plus"), (2, drift, "im_lam_plus"),
                            (3, -spread, "re_lam_minus"), (4, drift, "im_lam_minus")):
        problems += _column_problems(name, vals[:, col] / scale, want / scale,
                                     rtol=0.0, atol=1e-12)
    for col, name in ((5, "theta"), (6, "zeta")):
        c = vals[:, col]
        if not (np.all(np.isfinite(c)) and np.all(c > 0)):
            problems.append(f"value {name}: not finite and positive")
        elif np.ptp(c) > 1e-10 * np.abs(c).max():
            problems.append(f"value {name}: varies with xi1 (spread {np.ptp(c):.3e})")
    return problems


def _rigidity_min_abs_det(b, n_angles: int = 360) -> float:
    """min over the scan angles of |det| of the rigidity symbol.

    The determinant is ``-(b22 c^2 - 2 b12 c s + b11 s^2)`` at
    ``xi = (cos t, sin t)``.
    """
    b11, b12, b22 = b
    t = np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False)
    c, s = np.cos(t), np.sin(t)
    return float(np.abs(b22 * c * c - 2.0 * b12 * c * s + b11 * s * s).min())


def check_ellipticity_csv(text: str, points, elasticity: str) -> list:
    """``points`` is a list of (point_id, (b11, b12, b22)) in output order.

    Rigidity and tension minima follow in closed form, the membrane minimum
    is their square times ``det`` of the membrane matrix; every system must
    be elliptic with the right total order.
    """
    rows, problems = parse_csv(
        text, "point_id,system,total_order,min_abs_det,elliptic")
    if problems:
        return problems
    if len(rows) != len(points) * len(SYSTEM_ORDERS):
        return [f"format: {len(rows)} rows, want {len(points) * len(SYSTEM_ORDERS)}"]
    det_a = float(np.linalg.det(MEMBRANE_MATRICES[elasticity]))
    it = iter(rows)
    for point_id, b in points:
        rig = _rigidity_min_abs_det(b)
        want = {"rigidity": rig, "membrane_tension": rig,
                "membrane": rig * rig * det_a}
        for name, order in SYSTEM_ORDERS:
            row = next(it)
            if row[0] != point_id or row[1] != name or row[2] != str(order):
                problems.append(f"format: row {row} for {point_id} {name}")
                continue
            got = float(row[3])
            if row[4] != "true":
                problems.append(f"verdict {name}: not elliptic at {point_id}")
            if name in want:
                if not _close(got, want[name]):
                    problems.append(f"value {name}: min_abs_det {got!r} want "
                                    f"{want[name]!r} at {point_id}")
            elif not (math.isfinite(got) and got > 0):
                problems.append(f"value {name}: min_abs_det {got!r} at {point_id}")
    return problems


# ---------------------------------------------------------------------------
# reduced model
# ---------------------------------------------------------------------------

class ReducedModel:
    """Log-space symbols of the default reduced operator."""

    def __init__(self, theta: float, zeta: float, d: float, n_modes: int):
        self.theta, self.zeta, self.d, self.n = theta, zeta, d, n_modes
        self.k = np.arange(-n_modes, n_modes + 1)

    def log_s(self, k) -> np.ndarray:
        k = np.abs(np.asarray(k, dtype=float))
        return math.log(self.theta) + 0.5 * np.log1p(k * k) - 2.0 * self.d * k

    def log_q(self, k) -> np.ndarray:
        k = np.abs(np.asarray(k, dtype=float))
        with np.errstate(divide="ignore"):
            out = math.log(self.zeta) + 3.0 * np.log(k)
        return np.where(k == 0, math.log(self.zeta * Q_FLOOR), out)

    def log_total(self, k, eps: float) -> np.ndarray:
        """log(s + eps^2 q)."""
        if eps == 0.0:
            return self.log_s(k)
        return np.logaddexp(self.log_s(k), 2.0 * math.log(eps) + self.log_q(k))

    def log_load(self, profile: str) -> np.ndarray:
        if profile == "flat":
            return np.zeros(self.k.size)
        if profile == "smooth4":
            return -2.0 * np.log1p(self.k.astype(float) ** 2)
        raise ValueError(profile)

    def k_star(self, eps: float) -> float:
        """Crossover ``s(k) = eps^2 q(k)`` on (1e-6, N), by bisection."""
        def gap(k):
            return float(self.log_s(k) - 2.0 * math.log(eps) - self.log_q(k))
        lo, hi = 1e-6, float(self.n)
        if gap(lo) <= 0:
            return 0.0
        if gap(hi) >= 0:
            return math.inf          # no crossover below the cutoff
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)


def _floats(rows, col) -> np.ndarray:
    return np.array([float(r[col]) for r in rows])


def solve_reduced_csv(text: str, model: ReducedModel, eps: float,
                      profile: str) -> list:
    rows, problems = parse_csv(text, "k,f_re,v_re,v_im,v_abs")
    if problems:
        return problems
    k = model.k
    if len(rows) != k.size or [int(r[0]) for r in rows] != k.tolist():
        return [f"format: {len(rows)} rows or k column differ"]
    log_f = model.log_load(profile)
    v = np.exp(log_f - model.log_total(k, eps))
    problems += _column_problems("f_re", _floats(rows, 1), np.exp(log_f))
    problems += _column_problems("v_re", _floats(rows, 2), v)
    problems += _column_problems("v_im", _floats(rows, 3), np.zeros_like(v),
                                 atol=1e-12 * v.max())
    problems += _column_problems("v_abs", _floats(rows, 4), v)
    return problems


def sweep_epsilon_csv(text: str, model: ReducedModel, eps_list, profile: str,
                      k_probe: int) -> list:
    rows, problems = parse_csv(
        text, "eps,k_star,argmax_k,max_abs_v,va_distance,coercivity,amplification")
    if problems:
        return problems
    if len(rows) != len(eps_list):
        return [f"format: {len(rows)} rows, want {len(eps_list)}"]
    k = model.k
    kf = k.astype(float)
    log_f = model.log_load(profile)
    log_w = -1.5 * np.log1p(kf * kf)
    for row, eps in zip(rows, eps_list):
        got = [float(x) for x in row]
        if got[0] != eps:
            problems.append(f"format: eps {row[0]} want {eps!r}")
            continue
        log_tot = model.log_total(k, eps)
        log_e2q = 2.0 * math.log(eps) + model.log_q(k)
        k_star = model.k_star(eps)
        if not abs(got[1] - k_star) <= KSTAR_ATOL * max(1.0, k_star):
            problems.append(f"value k_star: got {got[1]!r} want {k_star!r} at eps={eps}")
        # flat load: |v_k| = 1 / (s + eps^2 q); ties may break either way
        # within rounding, so accept any mode whose value is the maximum
        i_arg = int(got[2]) + model.n
        if not 0 <= i_arg < k.size or -log_tot[i_arg] < -log_tot.min() - 1e-12:
            problems.append(f"value argmax_k: {row[2]} at eps={eps}")
        problems += _column_problems("max_abs_v", [got[3]], [math.exp(-log_tot.min())])
        log_terms = log_w + 2.0 * (log_f + log_e2q - log_tot)
        va = math.exp(0.5 * float(np.logaddexp.reduce(log_terms)))
        problems += _column_problems("va_distance", [got[4]], [va])
        coer = math.exp(float((log_tot + log_w).min()))
        problems += _column_problems("coercivity", [got[5]], [coer])
        amp = math.exp(-float(log_tot[k_probe + model.n]))
        problems += _column_problems("amplification", [got[6]], [amp])
    return problems


def sensitivity_csv(text: str, model: ReducedModel, eps: float) -> list:
    rows, problems = parse_csv(text, "k,amplification_eps0,amplification_eps")
    if problems:
        return problems
    k = np.arange(0, model.n + 1)
    if len(rows) != k.size or [int(r[0]) for r in rows] != k.tolist():
        return [f"format: {len(rows)} rows or k column differ"]
    problems += _column_problems("amplification_eps0", _floats(rows, 1),
                                 np.exp(-model.log_total(k, 0.0)))
    problems += _column_problems("amplification_eps", _floats(rows, 2),
                                 np.exp(-model.log_total(k, eps)))
    return problems


def rescale_demo_csv(text: str, model: ReducedModel, eps_list, profile: str,
                     kernel_modes) -> list:
    """w = eps^2 F / (s + eps^2 q) with s = 0 on the kernel set."""
    rows, problems = parse_csv(text, "eps,kernel_error,off_kernel_max")
    if problems:
        return problems
    if len(rows) != len(eps_list):
        return [f"format: {len(rows)} rows, want {len(eps_list)}"]
    k = model.k
    on = np.isin(np.abs(k), [abs(m) for m in kernel_modes])
    log_f = model.log_load(profile)
    limit = np.exp(log_f[on] - model.log_q(k[on]))
    for row, eps in zip(rows, eps_list):
        got = [float(x) for x in row]
        if got[0] != eps:
            problems.append(f"format: eps {row[0]} want {eps!r}")
            continue
        if not 0.0 <= got[1] <= 1e-12 * limit.max():
            problems.append(f"value kernel_error: {row[1]} at eps={eps}")
        log_w = (2.0 * math.log(eps) + log_f - model.log_total(k, eps))[~on]
        problems += _column_problems("off_kernel_max", [got[2]],
                                     [math.exp(float(log_w.max()))])
    return problems


def frequency_window_value(k_star, model: ReducedModel, eps: float) -> list:
    want = model.k_star(eps)
    if not math.isfinite(want):
        return ["setup: the true crossover lies beyond the cutoff"]
    if not abs(float(k_star) - want) <= KSTAR_ATOL * max(1.0, want):
        return [f"value k_star: got {k_star!r} want {want!r}"]
    return []


def growth_table(table, model: ReducedModel, profile: str) -> list:
    """Rows (n, log |v0_n|) of the formal limit v0 = F / s, in log space."""
    k = model.k
    log_v = model.log_load(profile) - model.log_s(k)
    problems = []
    if not table.diverges:
        problems.append("value diverges: a non-band-limited load must diverge")
    for n, log_norm in table.rows:
        want = 0.5 * float(np.logaddexp.reduce(2.0 * log_v[np.abs(k) <= n]))
        if not abs(log_norm - want) <= 1e-9 * max(1.0, abs(want)):
            problems.append(f"value log_norm: got {log_norm!r} want {want!r} at n={n}")
            break
    return problems


def variable_symbol_output(out: np.ndarray, coeffs: np.ndarray, rate: float,
                           amp: float) -> list:
    """sigma(x, k) = exp(-rate |k|) (1 + amp cos x) acting on ``coeffs``.

    ``cos x e^{ikx}`` splits into modes ``k +- 1``, so mode ``j`` of the
    output is ``m(j) u_j + amp/2 (m(j-1) u_{j-1} + m(j+1) u_{j+1})``.
    """
    n = (coeffs.size - 1) // 2
    kk = np.arange(-n - 1, n + 2)
    mu = np.exp(-rate * np.abs(kk)) * np.concatenate([[0], coeffs, [0]])
    want = mu[1:-1] + 0.5 * amp * (mu[:-2] + mu[2:])
    if out.shape != want.shape:
        return [f"format: {out.shape} modes, want {want.shape}"]
    err = float(np.abs(out - want).max())
    if not err <= 1e-10 * float(np.abs(want).max()):
        return [f"value coeffs: max error {err:.3e}"]
    return []


# ---------------------------------------------------------------------------
# geometry
# ---------------------------------------------------------------------------

def energy_forms_values(uv, vu, uu, gram_a, gram_b, c, d) -> list:
    """Symmetry, positivity and agreement with the recorded Gram matrices.

    The forms are bilinear, so ``a(u, v) = c^T A d`` for ``u = sum c_i phi_i``
    and ``v = sum d_j phi_j``.  Both forms are positive semidefinite, so the
    integrand of ``a(u, v)`` is bounded by ``sqrt(a(u, u) a(v, v))`` and the
    tolerance is set against that and the Gram entries' own scale.
    """
    problems = []
    if uv != vu:
        problems.append(f"symmetry: a(u,v), b(u,v) = {uv} but swapped gives {vu}")
    for name, val in zip("ab", uu):
        if not val >= 0.0:
            problems.append(f"positivity {name}: {name}(u,u) = {val!r}")
    for name, gram, got_uv, got_uu in (("a", gram_a, uv[0], uu[0]),
                                       ("b", gram_b, uv[1], uu[1])):
        diag = np.sqrt(np.abs(np.diag(gram)))
        for got, left, right in ((got_uv, c, d), (got_uu, c, c)):
            want = float(left @ gram @ right)
            scale = (math.sqrt(abs(left @ gram @ left) * abs(right @ gram @ right))
                     + float(np.abs(left) @ np.outer(diag, diag) @ np.abs(right)))
            if not abs(got - want) <= 1e-9 * scale:
                problems.append(f"value {name}: got {got!r} want {want!r}")
    return problems
