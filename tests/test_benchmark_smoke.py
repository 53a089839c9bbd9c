"""One untraced and one traced pass of every benchmark workload.

The benchmark calls the program by name, so a change that deletes or renames
a function it uses fails here rather than only in a benchmark run.  The
passes run in a subprocess because importing ``perfbench/run.py`` fixes the
BLAS thread variables of the interpreter that imports it.
"""

import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PASSES = """
import json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import run, tracing, workloads

ctx = workloads.Context(Path(sys.argv[2]), json.loads((run.BENCH / "golden.json").read_text()))
ctx.mods = run.import_program()
regressions = {}
for name, make_jobs in workloads.WORKLOADS.items():
    recs = run.run_pass(make_jobs(ctx, 1, 1), ctx)[0]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.begin_pass()
    try:
        recs += run.run_pass(make_jobs(ctx, 1, 2), ctx, tracer)[0]
    finally:
        tracer.end_pass()
        tracer.uninstall()
    assert tracer.metrics()["cli.main.calls"] > 0
    regressions[name] = [(r["name"], r["problems"]) for r in recs
                         if r["outcome"] == "regression"]
print(json.dumps(regressions))
"""


def test_benchmark_workloads_run_without_regressions(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", PASSES, str(ROOT / "perfbench"), str(tmp_path)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    regressions = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(regressions) == {"sl-scan", "reduced-ladder", "chart-scan"}
    assert regressions == {name: [] for name in regressions}


# The benchmark's tracer wraps every public function and public classmethod
# of a layer module (of `cli`, only `main`), so each public name is a span
# on every call.  A helper added without a leading underscore would add
# tracing overhead to every traced pass; these sets pin the public names.
PUBLIC_CALLABLES = {
    "symbols": {"BoundaryConditionSet", "DNSystem", "DecayingBasis", "EllipticityError",
                "EllipticityReport", "SLReport", "builtin_boundary_conditions",
                "builtin_system", "characteristic_roots", "decaying_solution_basis",
                "ellipticity_check", "principal_determinant", "rigidity_strain_residual",
                "sl_check", "sl_verdict"},
    "polymat": {"poly_coefficients"},
    "geometry": {"ChartTerms", "DisplacementField", "DisplacementField.from_functions",
                 "DisplacementField.zeros", "ElasticityTensor",
                 "ElasticityTensor.frobenius_identity", "ElasticityTensor.from_matrices",
                 "ElasticityTensor.identity", "ElasticityTensor.isotropic",
                 "GridMismatchError", "InvariantError", "MetricData", "MetricField",
                 "SurfaceEllipticityError", "curvature_change_tensor", "energy_forms",
                 "frozen_chart", "frozen_point", "second_derivative", "sphere_cap_chart",
                 "strain_tensor", "surface_elliptic_triple"},
    "cli": {"ConfigError", "ExperimentConfig", "cmd_check_ellipticity", "cmd_check_sl",
            "cmd_layer_modes", "cmd_rescale_demo", "cmd_sensitivity", "cmd_solve_reduced",
            "cmd_sweep_epsilon", "main", "parse_config", "write_csv"},
}


def test_public_callables_are_unchanged():
    for layer, want in PUBLIC_CALLABLES.items():
        mod = importlib.import_module(f"shellsym.{layer}")
        names = set()
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                names.add(attr)
            if inspect.isclass(obj):
                names |= {f"{attr}.{name}" for name, member in vars(obj).items()
                          if isinstance(member, classmethod) and not name.startswith("_")}
        assert names == want, (layer, names ^ want)
