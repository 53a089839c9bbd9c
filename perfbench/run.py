#!/usr/bin/env python3
"""shellsym benchmark: three seeded workloads, oracle-checked, closed loop.

Run from the root of a source checkout (the program is imported from
``src/``; nothing is installed)::

    python3 perfbench/run.py --workload sl-scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Each workload runs in one process as a closed loop: one caller, and the next
job starts only after the previous one finished.  A run imports the
program, runs one untimed warm-up pass and times whole passes until
``--seconds`` have gone by and the pooled job sample is large enough for its
90th percentile.  Between passes it times ``SETUP_RUNS`` fresh interpreters
that each run the workload's first (small) CLI job.  The benchmark's own
oracles (``oracles.py``) check every job's output.  Reported times are
scaled to a nominal machine speed measured in the same run (see
``REFERENCE_S``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics of
``BENCHMARK.json`` plus the tracing overhead, and writes the spans to
``.perfbench_work/``.  The last line of standard output is the result JSON;
the line before it, prefixed ``record:``, is the run record.
"""

from __future__ import annotations

import os
import sys

# BLAS / OpenMP pools are fixed before numpy is first imported, here and in
# the set-up interpreters, so the closed loop has one compute thread
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = BLAS_THREADS

import argparse                     # noqa: E402
import hashlib                      # noqa: E402
import importlib                    # noqa: E402
import json                         # noqa: E402
import math                         # noqa: E402
import platform                     # noqa: E402
import resource                     # noqa: E402
import shutil                       # noqa: E402
import subprocess                   # noqa: E402
import time                         # noqa: E402
import types                        # noqa: E402
from pathlib import Path            # noqa: E402

import numpy as np                  # noqa: E402

import tracing                      # noqa: E402
import workloads                    # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_RUNS = 5
# The machine's speed drifts by tens of percent over minutes, so every time
# is scaled to a nominal speed: a fixed reference computation is timed
# between jobs, and a pass's wall times are multiplied by
# REFERENCE_S / (median reference time during that pass).  Raw wall times
# stay in the run record.
REFERENCE_S = 0.020     # nominal reference time, seconds
REFERENCE_EVERY_S = 0.3  # job time between two reference samples
MIN_SAMPLE = 110        # pooled jobs, so that >= 10 lie beyond the 90th percentile
DEADLINE_S = 120.0      # stop starting passes after this, to end well within 180 s
LAYERS = ("cli", "symbols", "polymat", "layers", "reduced", "geometry")


class BenchError(RuntimeError):
    """The benchmark cannot run here; nothing is printed on standard output."""


# ---------------------------------------------------------------------------
# running jobs
# ---------------------------------------------------------------------------

def run_job(job, ctx, tracer=None) -> dict:
    """Run, time and check one job.

    The record keeps no reference to the job, whose closures hold its
    inputs, so the memory of finished passes is not counted in later ones.
    """
    job.prepare()
    result = error = None
    t0 = time.perf_counter()
    try:
        result = job.run() if tracer is None else tracer.run_job(job.name, job.run)
    except Exception as exc:          # a raising job is a failed job, not a crash
        error = exc
    dt = time.perf_counter() - t0
    if error is not None:
        problems = [f"raised {type(error).__name__}: {str(error)[:200]}"]
    else:
        problems = job.check(result)
    rec = job_record(job, dt, problems)
    if job.cli is not None and job.cli[2].exists():
        data = job.cli[2].read_bytes()
        rec["csv_bytes"] = len(data)
        rec["digest"] = hashlib.sha256(data).hexdigest()[:16]
        want = ctx.golden["digests"].get(workloads.golden_key(*job.cli[:2]))
        if want is not None:
            rec["golden"] = rec["digest"] == want
    job.cleanup()
    return rec


def reference_seconds() -> float:
    """Wall time of a fixed computation that does not use the program.

    It mixes what the workloads spend their time on: an interpreted loop of
    small LAPACK calls (symbol scans), vector transcendental functions
    (reduced symbols), whole-grid array arithmetic (strain tensors) and
    plain interpreter work.
    """
    rng = np.random.default_rng(0)
    small = rng.normal(size=(750, 3, 3)) + 1j * rng.normal(size=(750, 3, 3))
    k = np.arange(-4096, 4097, dtype=float)
    grid = rng.normal(size=(3, 96, 96))
    t0 = time.perf_counter()
    acc = 0.0
    for m in small:
        acc += abs(np.linalg.det(m))
    for _ in range(50):
        acc += float(np.sum(np.sqrt(1.0 + k * k) * np.exp(-0.01 * np.abs(k))))
    for _ in range(15):
        acc += float(np.sum(np.gradient(grid, axis=1) * np.gradient(grid, axis=2)))
    for i in range(50_000):
        acc += i % 7
    return time.perf_counter() - t0


def run_pass(jobs, ctx, tracer=None) -> tuple:
    """Job records of one pass, times scaled by the pass's speed factor."""
    recs, reference, since = [], [reference_seconds()], 0.0
    for job in jobs:
        recs.append(run_job(job, ctx, tracer))
        since += recs[-1]["dt"]
        if since >= REFERENCE_EVERY_S:
            reference.append(reference_seconds())
            since = 0.0
    reference.append(reference_seconds())
    factor = float(np.median(reference)) / REFERENCE_S
    for rec in recs:
        rec["dt"] = rec["dt_raw"] / factor
    return recs, factor


def job_record(job, dt: float, problems: list) -> dict:
    """Outcome 'ok', 'known' (a listed defect failing as known) or 'regression'."""
    if not problems:
        outcome = "ok"
    elif job.defect and all(p.startswith(job.known) for p in problems):
        outcome = "known"
    else:
        outcome = "regression"
    return {"name": job.name, "defect": job.defect, "scale": job.scale,
            "cli": job.cli is not None, "dt": dt, "dt_raw": dt, "problems": problems,
            "outcome": outcome, "csv_bytes": 0, "digest": None, "golden": None}


def measure_setup(job, work: Path) -> tuple:
    """Wall time of a fresh interpreter running the first job through the CLI.

    Timed from process start to exit, which follows writing the output.
    """
    command, config, out = job.cli
    cfg = work / "setup.cfg"
    cfg.write_text(config)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    argv = [sys.executable, "-m", "shellsym.cli", command,
            "--config", str(cfg), "--out", str(out)]
    job.prepare()
    factor = float(np.median([reference_seconds() for _ in range(3)])) / REFERENCE_S
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, timeout=60)
    dt = time.perf_counter() - t0
    problems = job.check((proc.returncode, proc.stderr.decode(errors="replace")))
    job.prepare()
    rec = job_record(job, dt, problems)
    rec["dt"] = dt / factor
    return rec


def import_program():
    """The shellsym modules, from this checkout's ``src/`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    mods = types.SimpleNamespace()
    for layer in LAYERS:
        setattr(mods, layer, importlib.import_module(f"shellsym.{layer}"))
    origin = Path(mods.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise BenchError(f"shellsym was imported from {origin}, not from {SRC}")
    return mods


# ---------------------------------------------------------------------------
# statistics and the run record
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def scaling_exponent(passes, group: str) -> float:
    """Least-squares slope of log(per-pass time at a size) against log(size)."""
    per_size = {}
    for recs in passes:
        sums = {}
        for rec in recs:
            scale = rec["scale"]
            if scale is not None and scale[0] == group:
                sums[scale[1]] = sums.get(scale[1], 0.0) + rec["dt"]
        for size, t in sums.items():
            per_size.setdefault(size, []).append(t)
    if len(per_size) < 2:
        return 0.0
    sizes = sorted(per_size)
    x = np.log(sizes)
    y = np.log([np.median(per_size[s]) for s in sizes])
    return float(np.polyfit(x, y, 1)[0])


def job_type_medians(passes) -> dict:
    """Median latency (ms) and count of each job type over the given passes."""
    by_type = {}
    for recs in passes:
        for rec in recs:
            by_type.setdefault(rec["name"], []).append(rec["dt"])
    return {name: [round(1e3 * float(np.median(ts)), 4), len(ts)]
            for name, ts in by_type.items()}


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "shellsym").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def git_rev() -> str:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return "unavailable (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True, timeout=30)
    return proc.stdout.strip() or "unavailable"


def environment() -> dict:
    import scipy
    return {"git_rev": git_rev(), "src_sha256": source_digest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}}


def failure_summary(all_recs) -> dict:
    outcomes = [r["outcome"] for r in all_recs]
    defects = {}
    for rec in all_recs:
        if rec["defect"]:
            entry = defects.setdefault(rec["name"], {"item": rec["defect"], "runs": 0,
                                                     "failed": 0, "problem": ""})
            entry["runs"] += 1
            if rec["outcome"] != "ok":
                entry["failed"] += 1
                entry["problem"] = rec["problems"][0][:160]
    regressions = [f"{r['name']}: {r['problems'][0][:200]}"
                   for r in all_recs if r["outcome"] == "regression"]
    failed = len(outcomes) - outcomes.count("ok")
    return {"attempted": len(all_recs), "failed": failed,
            "known_defect_failures": outcomes.count("known"),
            "regressions": len(regressions), "failed_share": failed / len(all_recs),
            "defect_jobs": defects, "regression_examples": regressions[:5]}


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple:
    t_start = time.perf_counter()
    work = WORK / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    golden = json.loads((BENCH / "golden.json").read_text())
    ctx = workloads.Context(work, golden)
    make_jobs = workloads.WORKLOADS[name]

    warmup_jobs = make_jobs(ctx, seed, 0)
    setup_job = warmup_jobs[0]
    setup_recs, all_recs = [], []

    def setup_sample():
        # spread over the run, so the median does not rest on one stretch of
        # machine load; --trace 1 reports no set-up time
        if not trace and len(setup_recs) < SETUP_RUNS:
            rec = measure_setup(setup_job, work)
            setup_recs.append(rec)
            all_recs.append(rec)

    setup_sample()

    ctx.mods = import_program()
    tracer = tracing.Tracer() if trace else None

    all_recs += run_pass(warmup_jobs, ctx)[0]
    untraced, traced, factors = [], [], []
    min_passes = math.ceil(MIN_SAMPLE / len(warmup_jobs))
    t_timed = time.perf_counter()
    pass_index = 1
    while True:
        jobs = make_jobs(ctx, seed, pass_index)
        if trace and pass_index % 2 == 0:
            tracer.install()
            tracer.begin_pass()
            try:
                recs, factor = run_pass(jobs, ctx, tracer)
            finally:
                tracer.end_pass()
                tracer.uninstall()
            traced.append(recs)
        else:
            recs, factor = run_pass(jobs, ctx)
            untraced.append(recs)
        factors.append(factor)
        all_recs += recs
        setup_sample()
        pass_index += 1
        now = time.perf_counter()
        enough = len(untraced) >= min_passes and (not trace or len(traced) >= 2)
        if (enough and now - t_timed >= seconds) or now - t_start > DEADLINE_S:
            break
    for _ in range(SETUP_RUNS):
        setup_sample()

    latencies = [r["dt"] for recs in untraced for r in recs]
    pass_times = [sum(r["dt"] for r in recs) for recs in untraced]
    raw_latencies = [r["dt_raw"] for recs in untraced for r in recs]
    p90 = percentile(latencies, 90)
    failures = failure_summary(all_recs)
    cli_recs = [r for recs in untraced + traced for r in recs if r["cli"]]
    compared = [r["golden"] for r in all_recs if r["golden"] is not None]
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        **environment(),
        "loop": "closed, one caller, one process",
        "jobs_per_pass": len(warmup_jobs),
        "passes": {"warmup": 1, "untraced": len(untraced), "traced": len(traced)},
        "samples": {"job_latency": len(latencies),
                    "beyond_p90": int(sum(t > p90 for t in latencies)),
                    "pass_s": len(pass_times), "setup_s": len(setup_recs)},
        "job_types_ms": job_type_medians(untraced),
        "speed": {"reference_s": REFERENCE_S,
                  "pass_factors": [round(f, 4) for f in factors],
                  "raw": {"setup_s": float(np.median([r["dt_raw"] for r in setup_recs]))
                          if setup_recs else None,
                          "pass_s": float(np.median(
                              [sum(r["dt_raw"] for r in recs) for recs in untraced])),
                          "job_p50_ms": 1e3 * percentile(raw_latencies, 50),
                          "job_p90_ms": 1e3 * percentile(raw_latencies, 90)}},
        "failures": failures,
        "golden_csv": {"compared": len(compared), "identical": int(sum(compared))},
    }
    metrics = {
        "setup_s": float(np.median([r["dt"] for r in setup_recs])) if setup_recs else None,
        "pass_s": float(np.median(pass_times)),
        "job_p50_ms": 1e3 * percentile(latencies, 50),
        "job_p90_ms": 1e3 * p90,
        "failed_share": failures["failed_share"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli.csv_bytes": sum(r["csv_bytes"] for r in cli_recs) / len(untraced + traced),
        "cli.csv_identical_share": (sum(compared) / len(compared)) if compared else 0.0,
        "cli.csv_compared": float(len(compared)),
        "reduced.n_exponent": scaling_exponent(untraced, "rung"),
        "geometry.grid_exponent": scaling_exponent(untraced, "grid"),
    }
    if trace:
        traced_s = float(np.median([sum(r["dt"] for r in recs) for recs in traced]))
        metrics["trace.overhead_share"] = (traced_s - metrics["pass_s"]) / metrics["pass_s"]
        metrics.update(tracer.metrics())
        span_file = work / "spans.tsv.gz"
        tracer.write(span_file)
        record["span_file"] = str(span_file.relative_to(ROOT))
    return metrics, record, failures


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def select(metrics: dict, declared: list, default=None) -> dict:
    """The declared metrics with units; a layer never called reads ``default``."""
    out = {}
    for m in declared:
        value = metrics.get(m["name"], default)
        if value is None or not math.isfinite(value):
            raise BenchError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def print_report(metrics, record, failures, trace: bool, selected: dict):
    s = record["samples"]
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"{record['jobs_per_pass']} jobs/pass  passes: {record['passes']}  "
          f"blas threads {BLAS_THREADS} of nproc {record['nproc']}")
    if not trace:
        rows = [
            ("setup_s", "s", f"median of {s['setup_s']} fresh interpreters"),
            ("pass_s", "s", f"median of {s['pass_s']} untraced passes"),
            ("job_p50_ms", "ms", f"n={s['job_latency']}"),
            ("job_p90_ms", "ms", f"n={s['job_latency']}, {s['beyond_p90']} beyond"),
            ("failed_share", "ratio",
             f"{failures['failed']} of {failures['attempted']} jobs; "
             f"{failures['known_defect_failures']} known defects, "
             f"{failures['regressions']} regressions"),
            ("peak_rss_mb", "MB", "peak resident memory of this process"),
        ]
        for name, unit, note in rows:
            print(f"  {name:<14} {metrics[name]:>12.6g} {unit:<6} ({note})")
        factor = float(np.median(record["speed"]["pass_factors"]))
        print(f"  times are scaled to the reference speed; median pass factor "
              f"{factor:.4g}, raw times under 'speed' in the record")
    else:
        for name, m in selected.items():
            print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
        print(f"  spans written to {record['span_file']}")
    for job, d in sorted(failures["defect_jobs"].items()):
        state = "fixed" if d["failed"] == 0 else f"failing {d['failed']}/{d['runs']}"
        print(f"  defect {d['item']:<7} {job:<42} {state}")
    for line in failures["regression_examples"]:
        print(f"  REGRESSION {line}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=400)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} failed (exit {proc.returncode})", file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if not (SRC / "shellsym" / "__init__.py").is_file():
            raise BenchError(f"no program source at {SRC / 'shellsym'}; run from a "
                             "shellsym checkout")
        spec = load_spec()
        if args.workload == "all":
            return run_all(args)
        metrics, record, failures = run_workload(args.workload, args.seed,
                                                 args.seconds, bool(args.trace))
        if args.trace:
            selected = select(metrics, spec["per_layer"], default=0.0)
        else:
            selected = select(metrics, spec["end_to_end"])
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    record["metrics"] = selected
    (WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print_report(metrics, record, failures, bool(args.trace), selected)
    print("record: " + json.dumps(record))
    print(json.dumps({"correct": failures["regressions"] == 0,
                      "attempted": failures["attempted"],
                      "failed": failures["regressions"],
                      "metrics": selected}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
