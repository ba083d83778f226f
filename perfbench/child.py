"""One fresh-interpreter CLI call sequence, as a user would run it.

    python3 perfbench/child.py SPEC.json

SPEC holds `src` (the directory that contains the blobtensor package),
`commands` (argv lists for `blobtensor.cli.main`), `outs` (one report path
per command, passed as `--out`), `result` (where this script writes its own
timings) and optionally `trace` (write a trace there) and `harvest` (also
collect scalar operands from generator matrices and pivot rows).

Each command is timed from just before `cli.main` to its return, so the
import is excluded.  The result file holds, per command, the exit code, the
seconds inside `main` and the error text of a crash, plus this process's
peak resident set size.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def main(spec_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import blobtensor.cli  # noqa: F401  (loads every package module)

    tracer = None
    if spec.get("trace"):
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from layers import targets
        from tracer import Tracer
        tracer = Tracer()
        if spec.get("harvest"):
            tracer.harvest = {}
        tracer.install(targets())

    cli = sys.modules["blobtensor.cli"]
    records = []
    for i, (argv, out) in enumerate(zip(spec["commands"], spec["outs"])):
        if tracer is not None:
            tracer.request = i
        error = None
        t0 = time.perf_counter()
        try:
            rc = cli.main(list(argv) + ["--out", out])
        except Exception:  # a crash is a measured failure, not ours
            rc, error = None, traceback.format_exc(limit=5)
        records.append({"rc": rc, "wall_s": time.perf_counter() - t0,
                        "error": error})

    result = {"commands": records,
              "peak_rss_mb":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    if tracer is not None:
        tracer.dump(spec["trace"])
        if tracer.harvest is not None:
            with open(spec["harvest"], "w") as fh:
                json.dump({k: list(v) for k, v in
                           sorted(tracer.harvest.items())}, fh)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1])
