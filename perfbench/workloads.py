"""Seeded job lists of the three benchmark workloads.

A workload is a function ``(ctx, seed, pass_index) -> list[Job]``.  Every
pass draws fresh inputs from ``(seed, pass_index)``, so nothing a program
might cache carries over from one pass to the next; reuse happens only
inside a job, where the workload means it to (many ``xi1`` per point in
``sl-scan``).  Each list holds 35 jobs with a small CLI job first; the first
job is also the one the set-up measurement runs in a fresh interpreter.

Job counts are chosen so that the 50th and 90th percentiles of a pooled
sample of whole passes fall inside a block of one job type rather than on a
boundary between two types whose latencies differ several-fold: with 35 jobs
a pass, they sit at the 18th and 32nd fastest job whatever the number of
passes.  Changing the job list means checking where they fall again.

Known defects ride along as their own jobs, labelled with the ROADMAP item
that covers them.  Their inputs are fixed by the defect, not by the seed,
and each costs about the same whether it fails or succeeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

ELASTICITIES = ("identity", "frobenius", "isotropic")
CRITERION_12_CONFIG = ("b_coeffs = 1,0,1\nelasticity = identity\n"
                       "epsilon_list = 1e-2,1e-3,1e-4\nN = 64\nxi1_list = 1,3\n")

# (b, elasticity) pairs whose layer energy coefficient theta is recorded in
# golden.json; the reduced-ladder CLI jobs draw their curvature from these
THETA_CASES = (((1.0, 0.0, 1.0), "identity"), ((1.3, 0.4, 0.8), "frobenius"),
               ((2.0, -0.5, 0.7), "isotropic"), ((0.8, 0.1, 1.4), "identity"),
               ((1.1, -0.3, 1.6), "frobenius"), ((0.7, 0.2, 0.9), "isotropic"))

# reduced-ladder rungs: (N, d) with 4 d N below the double exponent range,
# so every true amplification 1/s(k) and its square stay finite, and the
# epsilon range that keeps the crossover k* well below N
RUNGS = ((128, 1.0, 1e-30), (1024, 0.15, 1e-40), (4096, 0.05, 1e-50))

# smooth displacement basis for the energy jobs: u = sum_i c_i phi_i with
# phase_i = p y1 + q y2 + r and phi_i = (sin, cos(. + 0.3), sin(2 .))(phase_i)
ENERGY_BASIS = ((1.0, 0.5, 0.0), (0.3, 1.2, 0.7), (2.0, -1.0, 1.1),
                (-0.7, 1.8, 0.4), (1.5, 1.5, -0.3), (0.2, -2.2, 2.0))
ENERGY_GRIDS = (24, 48, 96, 192)
ENERGY_CHARTS = ("sphere-cap", "frozen")
ENERGY_ELASTICITY = {"sphere-cap": "isotropic", "frozen": "frobenius"}


@dataclass
class Job:
    """One closed-loop request.

    ``run`` is the timed call.  ``check`` maps its result to a list of
    problems (empty when correct).  ``defect`` names the ROADMAP item of a
    known defect the job carries; a failure whose problems all start with
    one of the ``known`` prefixes is that defect, any other failure is a
    regression.  ``cli`` is ``(command, config, out_path)`` for CLI jobs.
    ``scale`` is ``(group, size)`` for the scaling fits.
    """

    name: str
    run: Callable
    check: Callable
    defect: str = ""
    known: tuple = ()
    cli: tuple | None = None
    scale: tuple | None = None

    def prepare(self):
        """Remove a previous output, so a failed run cannot leave a stale one."""
        if self.cli is not None:
            self.cli[2].unlink(missing_ok=True)

    def cleanup(self):
        if self.cli is not None:
            self.cli[2].unlink(missing_ok=True)
            self.cli[2].with_suffix(".cfg").unlink(missing_ok=True)


@dataclass
class Context:
    """Where jobs put their files and how they reach the program."""

    work: Path
    golden: dict
    mods: object = None          # namespace of the shellsym modules
    basis: dict = field(default_factory=dict)   # (chart, n) -> energy basis
    files: int = 0

    def out_path(self) -> Path:
        """A fresh file stem; stems repeat only after 1000 jobs."""
        self.files += 1
        return self.work / f"job{self.files % 1000:03d}"


def golden_key(command: str, config: str) -> str:
    return hashlib.sha256(f"{command}\n{config}".encode()).hexdigest()[:16]


def config_text(**items) -> str:
    """Flat key = value text; floats in repr so they round-trip exactly."""
    def render(v):
        if isinstance(v, (tuple, list)):
            return ",".join(render(x) for x in v)
        return repr(float(v)) if isinstance(v, float) else str(v)
    return "".join(f"{k} = {render(v)}\n" for k, v in items.items())


def _rng(seed: int, pass_index: int, salt: int) -> np.random.Generator:
    return np.random.default_rng([seed, pass_index, salt])


def cli_job(ctx: Context, name: str, command: str, config: str,
            oracle: Callable, **kw) -> Job:
    base = ctx.out_path()
    cfg, out = base.with_suffix(".cfg"), base.with_suffix(".csv")
    cfg.write_text(config)
    argv = [command, "--config", str(cfg), "--out", str(out)]

    def run():
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = ctx.mods.cli.main(argv)
        return rc, err.getvalue()

    def check(result):
        rc, err = result
        if rc != 0:
            return [f"exit {rc}: {err.strip()[:200]}"]
        return oracle(out.read_text())

    return Job(name, run, check, cli=(command, config, out), **kw)


def surface_elliptic_b(rng) -> tuple:
    """Random (b11, b12, b22) with b11 b22 - b12^2 > 0, away from umbilics.

    At an umbilic point (b12 = 0, b11 = b22) the layer exponent is
    semisimple for the frobenius and isotropic tensors and ``layer-modes``
    rightly refuses; the margin keeps the draws clear of it.
    """
    while True:
        b11, b22 = rng.uniform(0.5, 2.0, size=2)
        b12 = rng.uniform(-0.6, 0.6) * math.sqrt(b11 * b22)
        if abs(b11 - b22) + abs(b12) > 0.1:
            return float(b11), float(b12), float(b22)


# ---------------------------------------------------------------------------
# sl-scan
# ---------------------------------------------------------------------------

def _sl_check_job(ctx, sys_name, bc_name, xi1, b=(1.0, 0.0, 1.0),
                  elasticity="identity", defect="") -> Job:
    m, expected = {(s, c): (m, ok) for s, c, m, ok in oracles.SL_CASES}[
        (sys_name, bc_name)]

    def run():
        geometry, symbols = ctx.mods.geometry, ctx.mods.symbols
        tensor = elasticity_tensor(ctx.mods, elasticity)
        point = geometry.frozen_point(*b)
        system = symbols.builtin_system(sys_name, point, tensor, 1e-2)
        bc = symbols.builtin_boundary_conditions(bc_name, tensor)
        return symbols.sl_check(system, bc, point, xi1)

    return Job(f"sl_check:{sys_name}+{bc_name}:{elasticity}:xi1={xi1:g}", run,
               lambda rep: oracles.check_sl_report(rep, expected, m, xi1),
               defect=defect, known=("raised EllipticityError", "verdict"))


def sl_scan(ctx: Context, seed: int, pass_index: int) -> list:
    """check-sl and layer-modes with long xi1 lists, plus the SL defects."""
    rng = _rng(seed, pass_index, 1)
    jobs = [
        cli_job(ctx, "check-sl:criterion-12", "check-sl", CRITERION_12_CONFIG,
                lambda t: oracles.check_sl_csv(t, (1.0, 3.0))),
        cli_job(ctx, "layer-modes:criterion-12", "layer-modes", CRITERION_12_CONFIG,
                lambda t: oracles.layer_modes_csv(t, (1.0, 3.0), (1.0, 0.0, 1.0))),
    ]
    for _ in range(4):
        b = surface_elliptic_b(rng)
        for elasticity in ELASTICITIES:
            xi1 = tuple(float(x) for x in np.sort(np.exp(
                rng.uniform(math.log(0.5), math.log(10.0), 16))))
            config = config_text(b_coeffs=b, elasticity=elasticity,
                                 epsilon_list=(1e-2,), xi1_list=xi1)
            # frobenius and isotropic rigidities put the clamped Koiter SL
            # determinant within a few decades of its unscaled threshold, so
            # its verdict flips with xi1 (ROADMAP item 3)
            flaky = elasticity != "identity"
            jobs.append(cli_job(
                ctx, f"check-sl:{elasticity}", "check-sl", config,
                lambda t, xi1=xi1: oracles.check_sl_csv(t, xi1),
                defect="item 3" if flaky else "",
                known=("verdict koiter+koiter_clamped",) if flaky else ()))
            jobs.append(cli_job(
                ctx, f"layer-modes:{elasticity}", "layer-modes", config,
                lambda t, xi1=xi1, b=b: oracles.layer_modes_csv(t, xi1, b)))
    # false EllipticityError from the scale-dependent leading-coefficient
    # test (ROADMAP item 3), each beside a control just below its threshold
    for sys_name, bc_name, xi1, defect in (
            ("koiter", "koiter_clamped", 10.0, ""),
            ("koiter", "koiter_clamped", 19.0, "item 3"),
            ("koiter", "koiter_clamped", 20.0, "item 3"),
            ("membrane", "membrane_traction", 1e2, ""),
            ("membrane", "membrane_traction", 1e3, "item 3"),
            ("membrane", "membrane_traction", 1e4, "item 3"),
            ("rigidity", "u1", 3e4, ""),
            ("rigidity", "u1", 1e6, "item 3")):
        jobs.append(_sl_check_job(ctx, sys_name, bc_name, xi1, defect=defect))
    jobs.append(_sl_check_job(ctx, "koiter", "koiter_clamped", 0.5,
                              b=(1.3, 0.4, 0.8), elasticity="isotropic",
                              defect="item 3"))
    return jobs


# ---------------------------------------------------------------------------
# reduced-ladder
# ---------------------------------------------------------------------------

def _reduced_model(ctx, b, elasticity, d, n_modes) -> oracles.ReducedModel:
    theta = ctx.golden["theta"][f"{b}|{elasticity}"]
    zeta = oracles.bending_coefficient(b, elasticity)
    return oracles.ReducedModel(theta, zeta, d, n_modes)


def _log_uniform(rng, lo, hi, size) -> tuple:
    return tuple(float(x) for x in np.exp(rng.uniform(math.log(lo), math.log(hi), size)))


def _reduced_cli_jobs(ctx, rng, n_modes, d, eps_min, scale=None, b=None,
                      elasticity=None, defects=None,
                      commands=("solve-reduced", "sweep-epsilon", "sensitivity",
                                "rescale-demo")) -> list:
    """One CLI job per command on a shared seeded config.

    ``defects`` maps a command to the (ROADMAP item, known problem prefixes)
    of the defect its job carries.
    """
    if b is None:
        b, elasticity = THETA_CASES[int(rng.integers(len(THETA_CASES)))]
    model = _reduced_model(ctx, b, elasticity, d, n_modes)
    eps_list = tuple(sorted(_log_uniform(rng, eps_min, 1e-2, 12), reverse=True))
    k_probe = int(rng.integers(1, min(50, n_modes) + 1))
    kernel = tuple(sorted({int(k) for k in rng.integers(1, 11, size=2)}))
    profile = ("smooth4", "flat")[int(rng.integers(2))]
    common = dict(b_coeffs=b, elasticity=elasticity, N=n_modes, d=d,
                  epsilon_list=eps_list)
    eps0 = eps_list[0]
    specs = {
        "solve-reduced": (dict(f_profile=profile),
                          lambda t: oracles.solve_reduced_csv(t, model, eps0, profile)),
        "sweep-epsilon": (dict(k_probe=k_probe),
                          lambda t: oracles.sweep_epsilon_csv(
                              t, model, eps_list, "smooth4", k_probe)),
        "sensitivity": ({}, lambda t: oracles.sensitivity_csv(t, model, eps0)),
        "rescale-demo": (dict(kernel_modes=kernel),
                         lambda t: oracles.rescale_demo_csv(
                             t, model, eps_list, "smooth4", kernel)),
    }
    jobs = []
    for command in commands:
        extra, oracle = specs[command]
        defect, known = (defects or {}).get(command, ("", ()))
        jobs.append(cli_job(ctx, f"{command}:N={n_modes}:d={d}", command,
                            config_text(**common, **extra), oracle,
                            defect=defect, known=known, scale=scale))
    return jobs


def _explicit_model(rng, n_modes, d) -> oracles.ReducedModel:
    """A model with seeded theta and zeta, handed to the program directly."""
    theta, zeta = _log_uniform(rng, 0.3, 3.0, 2)
    return oracles.ReducedModel(theta, zeta, d, n_modes)


def _operator(ctx, model, eps):
    return ctx.mods.reduced.build_default_operator(
        d=model.d, n_modes=model.n, eps=eps, theta=model.theta, zeta=model.zeta)


def _frequency_window_job(ctx, model, eps, defect="") -> Job:
    return Job(f"frequency_window:N={model.n}",
               lambda: ctx.mods.reduced.frequency_window(_operator(ctx, model, eps)),
               lambda k: oracles.frequency_window_value(k, model, eps),
               defect=defect, known=("raised WindowResolutionError",))


def _growth_job(ctx, model) -> Job:
    def run():
        reduced = ctx.mods.reduced
        return reduced.no_distribution_limit_probe(_operator(ctx, model, 1e-3),
                                                   reduced.smooth_load(model.n))
    return Job(f"no_distribution_limit_probe:N={model.n}", run,
               lambda table: oracles.growth_table(table, model, "smooth4"))


def _variable_symbol_job(ctx, rng, n_modes) -> Job:
    coeffs = rng.normal(size=2 * n_modes + 1) + 1j * rng.normal(size=2 * n_modes + 1)
    rate, amp = float(rng.uniform(0.002, 0.02)), float(rng.uniform(0.1, 0.9))

    def sigma(x, k):
        return np.exp(-rate * np.abs(k)) * (1.0 + amp * np.cos(x))

    def run():
        reduced = ctx.mods.reduced
        # 2N + 3 points resolve the k +- 1 spill of the cos x factor
        return reduced.apply_variable_symbol(sigma, reduced.SpectralField(coeffs),
                                             2 * n_modes + 3)
    return Job(f"apply_variable_symbol:N={n_modes}", run,
               lambda out: oracles.variable_symbol_output(out.coeffs, coeffs, rate, amp))


def reduced_ladder(ctx: Context, seed: int, pass_index: int) -> list:
    """The reduced CLI commands at N = 128, 1024, 4096 plus library probes."""
    rng = _rng(seed, pass_index, 2)
    crit_model = _reduced_model(ctx, (1.0, 0.0, 1.0), "identity", 1.0, 64)
    crit_eps = (1e-2, 1e-3, 1e-4)
    jobs = [
        cli_job(ctx, "solve-reduced:criterion-12", "solve-reduced",
                CRITERION_12_CONFIG,
                lambda t: oracles.solve_reduced_csv(t, crit_model, 1e-2, "smooth4")),
        cli_job(ctx, "sweep-epsilon:criterion-12", "sweep-epsilon",
                CRITERION_12_CONFIG,
                lambda t: oracles.sweep_epsilon_csv(t, crit_model, crit_eps,
                                                    "smooth4", 10)),
    ]
    for n_modes, d, eps_min in RUNGS:
        # at N = 4096, d = 0.05 the eps = 0 amplification squares past the
        # double range inside SpectralField.h_norm and reads inf on the top
        # modes, though 1/s(k) itself is finite (ROADMAP item 2)
        defects = ({"sensitivity": ("item 2", ("nonfinite amplification_eps0",))}
                   if n_modes == 4096 else None)
        jobs += _reduced_cli_jobs(ctx, rng, n_modes, d, eps_min,
                                  scale=("rung", n_modes), defects=defects)
        model = _explicit_model(rng, n_modes, d)
        jobs.append(cli_job(
            ctx, f"solve-reduced:explicit:N={n_modes}", "solve-reduced",
            config_text(N=n_modes, d=d, theta=model.theta, zeta=model.zeta,
                        epsilon_list=(eps_min,)),
            lambda t, model=model, eps=eps_min: oracles.solve_reduced_csv(
                t, model, eps, "smooth4")))
        eps = _log_uniform(rng, eps_min, 1e-2, 1)[0]
        jobs.append(_frequency_window_job(ctx, _explicit_model(rng, n_modes, d), eps))
        jobs.append(_growth_job(ctx, _explicit_model(rng, n_modes, d)))
    for n_modes in (128, 512, 1024, 1024):
        jobs.append(_variable_symbol_job(ctx, rng, n_modes))
    # s(k) underflows to 0.0 for |k| >= 373 at d = 1, so these exit 3 with a
    # false KernelModeError listing every underflowed mode (ROADMAP item 2)
    commands = ("sweep-epsilon", "sensitivity", "rescale-demo")
    kernel_error = ("item 2", ("exit 3: numerical failure: smoothing symbol vanishes",))
    for n_modes in (400, 1024):
        jobs += _reduced_cli_jobs(ctx, rng, n_modes, 1.0, 1e-8, b=(1.0, 0.0, 1.0),
                                  elasticity="identity", commands=commands,
                                  defects=dict.fromkeys(commands, kernel_error))
    # eps^2 is subnormal below eps ~ 1e-154 and s is clamped at the smallest
    # normal double, so the window search fails although k* ~ 7.2e3 < N
    # (ROADMAP item 2); 1e-155 still resolves and is the control
    window_model = oracles.ReducedModel(1.0, 1.0, 0.05, 8192)
    for eps, defect in ((1e-155, ""), (1e-160, "item 2")):
        jobs.append(_frequency_window_job(ctx, window_model, eps, defect))
    return jobs


# ---------------------------------------------------------------------------
# chart-scan
# ---------------------------------------------------------------------------

def energy_basis(n: int, h: float) -> np.ndarray:
    """Basis fields on an n x n grid, shape (len(ENERGY_BASIS), 3, n, n)."""
    y1 = h * np.arange(n)[:, None] * np.ones((1, n))
    y2 = h * np.arange(n)[None, :] * np.ones((n, 1))
    out = []
    for p, q, r in ENERGY_BASIS:
        phase = p * y1 + q * y2 + r
        out.append([np.sin(phase), np.cos(phase + 0.3), np.sin(2.0 * phase)])
    return np.array(out)


def energy_grid_spacing(chart: str, n: int) -> float:
    """The grids of one chart span the same patch at every size."""
    return 0.8 / n if chart == "sphere-cap" else 1.0 / n


def energy_chart(mods, chart: str, n: int):
    h = energy_grid_spacing(chart, n)
    if chart == "sphere-cap":
        return mods.geometry.sphere_cap_chart(radius=1.3, shape=(n, n), h=h)
    return mods.geometry.frozen_chart(1.0, 0.2, 1.5, (n, n), h)


def elasticity_tensor(mods, name: str):
    factory = {"identity": "identity", "frobenius": "frobenius_identity",
               "isotropic": "isotropic"}[name]
    return getattr(mods.geometry.ElasticityTensor, factory)()


def _energy_job(ctx, rng, chart: str, n: int) -> Job:
    h = energy_grid_spacing(chart, n)
    basis = ctx.basis.get((chart, n))
    if basis is None:
        basis = ctx.basis[(chart, n)] = energy_basis(n, h)
    c, d = rng.normal(size=len(ENERGY_BASIS)), rng.normal(size=len(ENERGY_BASIS))
    u_arr, v_arr = np.tensordot(c, basis, 1), np.tensordot(d, basis, 1)
    gram = ctx.golden["gram"][f"{chart}/{n}"]
    elasticity = ENERGY_ELASTICITY[chart]

    def run():
        geometry = ctx.mods.geometry
        m = energy_chart(ctx.mods, chart, n)
        e = elasticity_tensor(ctx.mods, elasticity)
        u = geometry.DisplacementField(*u_arr, h)
        v = geometry.DisplacementField(*v_arr, h)
        return (geometry.energy_forms(u, v, m, e), geometry.energy_forms(v, u, m, e),
                geometry.energy_forms(u, u, m, e))

    return Job(f"energy_forms:{chart}:{n}", run,
               lambda r: oracles.energy_forms_values(
                   *r, np.array(gram["a"]), np.array(gram["b"]), c, d),
               scale=("grid", n * n))


def _sphere_points(radius: float) -> list:
    """Sample points of the CLI's default 24 x 24 cap (h = 0.02, theta0 = 0.7)."""
    out = []
    for i in (0, 12, 23):
        s2 = math.sin(0.7 + 0.02 * i) ** 2
        out.append((f"sphere({i},{i})", (radius, 0.0, radius * s2)))
    return out


def chart_scan(ctx: Context, seed: int, pass_index: int) -> list:
    """energy_forms over a grid ladder and check-ellipticity at distinct points."""
    rng = _rng(seed, pass_index, 3)
    fixed = config_text(chart="frozen", b_coeffs=(1.0, 0.0, 1.0),
                        elasticity="identity", epsilon_list=(1e-2,))
    jobs = [cli_job(ctx, "check-ellipticity:frozen", "check-ellipticity", fixed,
                    lambda t: oracles.check_ellipticity_csv(
                        t, [("frozen", (1.0, 0.0, 1.0))], "identity"))]
    for _ in range(21):
        b = surface_elliptic_b(rng)
        elasticity = ELASTICITIES[int(rng.integers(3))]
        config = config_text(chart="frozen", b_coeffs=b, elasticity=elasticity,
                             epsilon_list=_log_uniform(rng, 1e-3, 1e-1, 1))
        jobs.append(cli_job(ctx, "check-ellipticity:frozen", "check-ellipticity",
                            config, lambda t, b=b, e=elasticity:
                            oracles.check_ellipticity_csv(t, [("frozen", b)], e)))
    for _ in range(5):
        radius = float(rng.uniform(0.8, 3.0))
        elasticity = ELASTICITIES[int(rng.integers(3))]
        config = config_text(chart="sphere-cap", chart_params=(radius,),
                             elasticity=elasticity,
                             epsilon_list=_log_uniform(rng, 1e-3, 1e-1, 1))
        jobs.append(cli_job(ctx, "check-ellipticity:sphere-cap", "check-ellipticity",
                            config, lambda t, r=radius, e=elasticity:
                            oracles.check_ellipticity_csv(t, _sphere_points(r), e)))
    for chart in ENERGY_CHARTS:
        for n in ENERGY_GRIDS:
            jobs.append(_energy_job(ctx, rng, chart, n))
    return jobs


WORKLOADS = {"sl-scan": sl_scan, "reduced-ladder": reduced_ladder,
             "chart-scan": chart_scan}
