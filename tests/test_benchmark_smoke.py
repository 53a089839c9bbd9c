"""One untraced and one traced pass of every benchmark workload.

The benchmark calls the program by name, so a change that deletes or renames
a function it uses fails here rather than only in a benchmark run.  The
passes run in a subprocess because importing ``perfbench/run.py`` fixes the
BLAS thread variables of the interpreter that imports it.
"""

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
