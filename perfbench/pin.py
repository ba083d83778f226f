"""Regenerate the benchmark's pinned data from the current checkout.

    python3 perfbench/pin.py

Writes perfbench/digests.json (sha256 and point count of every workload
report, for every m of every pool) and perfbench/operands.json (scalar
operands harvested from traced `adjoint-cyc` and `relations` runs at the
first m of their pools, for the microbenchmark).  Refuses to pin a report
that does not pass.  Run it only when a change alters report bytes on
purpose, and say so in the change.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

import run

HARVEST_FROM = ("adjoint-cyc", "relations")


def main():
    workloads = run._load("workloads.json")
    os.makedirs(run.WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.WORK)
    deadline = time.perf_counter() + 3600
    digests, operands = {}, {}
    try:
        for name, spec in sorted(workloads.items()):
            workload = dict(spec, name=name)
            digests[name] = {}
            for m in workload["m_pool"]:
                result = run.execute(workload, m, workdir, deadline)
                pins = []
                for argv, rec, data in zip(result["commands"],
                                           result["records"],
                                           result["reports"]):
                    report = json.loads(data) if data else {}
                    if (not rec or rec["rc"] != 0
                            or report.get("ok") is not True):
                        sys.exit(f"refusing to pin failing report: {argv}")
                    pins.append({"argv": argv,
                                 "sha256": hashlib.sha256(data).hexdigest(),
                                 "points": len(report["results"])})
                digests[name][str(m)] = pins
                print(f"{name} m={m}: {[p['points'] for p in pins]} points, "
                      f"wall_s {result['wall_s']:.3f}")
            if name in HARVEST_FROM:
                harvest = os.path.join(workdir, "harvest.json")
                run.execute(workload, workload["m_pool"][0], workdir,
                            deadline, trace=os.path.join(workdir, "t.json"),
                            harvest=harvest)
                with open(harvest) as fh:
                    for key, texts in json.load(fh).items():
                        bucket = operands.setdefault(key, [])
                        bucket += [t for t in texts if t not in bucket]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for fname, data in (("digests.json", digests),
                        ("operands.json", operands)):
        with open(os.path.join(run.BENCH, fname), "w") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
