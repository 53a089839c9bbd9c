"""The ``BENCH_*.json`` trajectory files at the root of the repository.

Each file holds the benchmark runs of one tree of the program: its
protocol, every ``record:`` line and result line that ``perfbench/run.py``
printed, and the per-workload medians with their quartiles, scaled and raw.
A file is named by the tree's git rev or, for a tree measured before it had
one, by the ``src_sha256`` that its record lines print.
"""

import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(ROOT.glob("BENCH_*.json"))
KEYS = {"rev", "parent", "src_sha256", "date", "protocol", "runs", "medians"}
PROTOCOL_KEYS = {"command", "seeds", "pairs", "checkout", "bytecode_cache"}
METRICS = {"setup_s", "pass_s", "job_p50_ms", "job_p90_ms", "peak_rss_mb"}


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": median, "q1": q1, "q3": q3}


def test_the_trajectory_has_begun():
    assert FILES


@pytest.mark.parametrize("path", FILES, ids=[p.name for p in FILES])
def test_bench_file_schema_name_and_medians(path):
    data = json.loads(path.read_text())
    assert set(data) >= KEYS
    assert set(data["protocol"]) >= PROTOCOL_KEYS
    assert isinstance(data["protocol"]["bytecode_cache"], bool)
    assert path.stem.removeprefix("BENCH_") in (data["rev"], data["src_sha256"])

    by_workload = {}
    for run in data["runs"]:
        assert run["record_line"].startswith("record: ")
        record = json.loads(run["record_line"].removeprefix("record: "))
        result = json.loads(run["result_line"])
        assert record["src_sha256"] == data["src_sha256"]
        assert record["seed"] in data["protocol"]["seeds"]
        assert set(result["metrics"]) == METRICS
        by_workload.setdefault(record["workload"], []).append((record, result))
    assert set(by_workload) == set(data["medians"])

    # the medians are those of the runs the file holds
    for workload, runs in by_workload.items():
        assert len(runs) == data["protocol"]["pairs"]
        for metric in METRICS:
            stored = data["medians"][workload][metric]
            scaled = [result["metrics"][metric]["value"] for _, result in runs]
            # the record keeps the unscaled time; peak_rss_mb is not scaled
            raw = [record["speed"]["raw"].get(metric, result["metrics"][metric]["value"])
                   for record, result in runs]
            assert stored["scaled"] == pytest.approx(_quartiles(scaled), rel=1e-12)
            assert stored["raw"] == pytest.approx(_quartiles(raw), rel=1e-12)
