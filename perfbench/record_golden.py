#!/usr/bin/env python3
"""Write ``perfbench/golden.json`` from the program in this checkout.

Run once at the commit whose outputs are the reference, from the checkout
root::

    python3 perfbench/record_golden.py

It records

* ``theta``: the layer energy coefficient of each ``THETA_CASES`` pair,
  which the reduced-model oracles take as given;
* ``gram``: the Gram matrices ``a(phi_i, phi_j)`` and ``b(phi_i, phi_j)`` of
  the energy basis on every chart and grid of ``chart-scan``;
* ``digests``: SHA-256 prefixes of every CLI output of passes 0 and 1 of
  each workload at seeds 0 to 10, keyed by command and config text.  A later
  run compares the outputs it shares with this table byte for byte and
  reports the identical share; digests depend on the numpy build as well as
  on the program.
"""

from __future__ import annotations

import json
import shutil

import numpy as np

import run
import workloads

SEEDS = range(0, 11)
PASSES = (0, 1)


def main() -> int:
    mods = run.import_program()
    theta = {}
    for b, elasticity in workloads.THETA_CASES:
        tensor = workloads.elasticity_tensor(mods, elasticity)
        theta[f"{b}|{elasticity}"] = mods.layers.layer_energy_coefficient(
            b, tensor.membrane)

    gram = {}
    geometry = mods.geometry
    for chart in workloads.ENERGY_CHARTS:
        tensor = workloads.elasticity_tensor(mods, workloads.ENERGY_ELASTICITY[chart])
        for n in workloads.ENERGY_GRIDS:
            h = workloads.energy_grid_spacing(chart, n)
            metric = workloads.energy_chart(mods, chart, n)
            fields = [geometry.DisplacementField(*phi, h)
                      for phi in workloads.energy_basis(n, h)]
            size = len(fields)
            a, b = np.zeros((size, size)), np.zeros((size, size))
            for i in range(size):
                for j in range(size):
                    a[i, j], b[i, j] = geometry.energy_forms(fields[i], fields[j],
                                                             metric, tensor)
            gram[f"{chart}/{n}"] = {"a": a.tolist(), "b": b.tolist()}

    golden = {"source": {"src_sha256": run.source_digest(),
                         "numpy": np.__version__},
              "theta": theta, "gram": gram, "digests": {}}
    work = run.WORK / "record-golden"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ctx = workloads.Context(work, golden, mods)
    for make_jobs in workloads.WORKLOADS.values():
        for seed in SEEDS:
            for pass_index in PASSES:
                for job in make_jobs(ctx, seed, pass_index):
                    if job.cli is None:
                        continue
                    digest = run.run_job(job, ctx)["digest"]
                    if digest is not None:
                        golden["digests"][workloads.golden_key(*job.cli[:2])] = digest
    shutil.rmtree(work, ignore_errors=True)
    (run.BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    print(f"recorded {len(golden['digests'])} CLI digests, {len(theta)} theta "
          f"values and {len(gram)} Gram matrix pairs")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
