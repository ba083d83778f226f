"""blobtensor benchmark: fresh-process CLI workloads with a correctness gate.

    python3 perfbench/run.py --workload adjoint-cyc --seed 0 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from `src/`.

Untraced run (`--trace 0`): time `setup_s` over several fresh interpreter
spawns, then cycle through the workload's m pool, in the rotation the seed
picks, running the workload's CLI commands for one m per fresh interpreter.
The cycle covers the pool at least once and goes on while the next call is
expected to end within `--seconds`.  Every report is gated: exit code 0,
`ok: true`, the pinned point count and the pinned sha256
(perfbench/digests.json).  `wall_s` is the sum over the pool of each m's
fastest call (seconds inside `cli.main`), so every run weighs the pool
alike and transient slowdowns of a shared machine drop out.

Traced run (`--trace 1`): for m = pool[seed % len(pool)] run the commands
untraced and with every layer wrapped (perfbench/layers.py), alternating,
twice each; check that all of them wrote the same report bytes, and report
the per-layer metrics of the faster traced call, the tracing overhead
(faster traced minus faster untraced `cli.main` seconds) and the scalar
microbenchmark.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  `--workload all` runs every
workload in turn, each ending with its own such line.  Without a
`src/blobtensor` package next to the benchmark it exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

HARD_LIMIT_S = 170        # a run must end well within 180 s
SETUP_SPAWNS = 21

sys.path.insert(0, BENCH)
import layers  # noqa: E402
import micro  # noqa: E402

MICRO_NAMES = [f"scalars.micro.{b}.{op}_us"
               for b in micro.BACKENDS for op in micro.OPS]


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package, no pinned data)."""


def _load(name):
    with open(os.path.join(BENCH, name)) as fh:
        return json.load(fh)


def child_env():
    env = dict(os.environ)
    env.pop("BLOBTENSOR_MAX_N", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = SRC
    return env


def calibrate():
    """Seconds for a fixed pure-Python loop (best of 3), to expose drift in
    machine speed between runs.  Reported beside the metrics."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(300_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup(spawns):
    """Median seconds from spawning an interpreter until it has imported
    blobtensor.cli (after one warm-up spawn that fills __pycache__)."""
    code = ("import sys, blobtensor.cli\n"
            "sys.stdout.write('ready\\n'); sys.stdout.flush()")
    samples = []
    for i in range(spawns + 1):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=child_env(),
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait()
        if rc != 0 or line.strip() != b"ready":
            raise SetupError("importing blobtensor.cli failed")
        if i:
            samples.append(t1 - t0)
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

def check_report(data, rc, points, sha256):
    """Gate one CLI report.  Returns the number of failed points out of
    `points`: every point fails on a non-zero exit, a missing or unreadable
    report, `ok` not true, a wrong point count or a digest mismatch;
    otherwise each record whose `all_ok`/`ok` is not true fails."""
    if rc != 0 or data is None:
        return points
    try:
        report = json.loads(data)
    except ValueError:
        return points
    results = report.get("results") if isinstance(report, dict) else None
    if (not isinstance(results, list) or len(results) != points
            or report.get("ok") is not True
            or hashlib.sha256(data).hexdigest() != sha256):
        return points
    return sum(1 for r in results
               if r.get("all_ok", r.get("ok")) is not True)


# ---------------------------------------------------------------------------
# children
# ---------------------------------------------------------------------------

def _spawn(script, spec, workdir, deadline):
    """Run a child script on a spec; returns its result dict, or None if it
    crashed or ran past the deadline."""
    spec_path = os.path.join(workdir, "spec.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    timeout = max(1.0, deadline - time.perf_counter())
    with subprocess.Popen([sys.executable, os.path.join(BENCH, script),
                           spec_path], env=child_env(),
                          stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE) as proc:
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"{script} timed out after {timeout:.0f} s", file=sys.stderr)
            return None
    if proc.returncode != 0 or not os.path.exists(spec["result"]):
        sys.stderr.write(err.decode(errors="replace")[-2000:])
        return None
    with open(spec["result"]) as fh:
        result = json.load(fh)
    os.remove(spec["result"])
    return result


def execute(workload, m, workdir, deadline, trace=None, harvest=None):
    """One fresh interpreter running the workload's commands at this m.

    Returns {commands, wall_s, peak_rss_mb, records, reports}: the argv
    lists, the seconds inside `cli.main`, the child's result records (None
    if it crashed or timed out) and each report's bytes (None if missing)."""
    commands = [[a.replace("{m}", str(m)) for a in argv]
                for argv in workload["commands"]]
    tag = f"{workload['name']}-m{m}-{'traced' if trace else 'plain'}"
    outs = [os.path.join(workdir, f"{tag}-{i}.json")
            for i in range(len(commands))]
    spec = {"src": SRC, "commands": commands, "outs": outs,
            "result": os.path.join(workdir, f"{tag}-result.json"),
            "trace": trace, "harvest": harvest}
    result = _spawn("child.py", spec, workdir, deadline)
    records = result["commands"] if result else [None] * len(commands)
    reports = []
    for out, rec in zip(outs, records):
        if rec and rec["error"]:
            sys.stderr.write(rec["error"])
        data = None
        if os.path.exists(out):
            with open(out, "rb") as fh:
                data = fh.read()
            os.remove(out)
        reports.append(data)
    return {"commands": commands,
            "wall_s": sum(r["wall_s"] for r in records if r),
            "peak_rss_mb": result["peak_rss_mb"] if result else None,
            "records": records, "reports": reports}


def gate(workload, m, run, pinned):
    """(points attempted, points failed) of one `execute` result against
    the pinned digests and point counts."""
    expected = pinned.get(workload["name"], {}).get(str(m))
    if expected is None or len(expected) != len(run["reports"]):
        raise SetupError(f"no pinned digests for {workload['name']} m={m}")
    points = failed = 0
    for exp, rec, data in zip(expected, run["records"], run["reports"]):
        points += exp["points"]
        failed += check_report(data, rec["rc"] if rec else None,
                               exp["points"], exp["sha256"])
    return points, failed


def run_micro(workdir, deadline):
    spec = {"src": SRC, "operands": os.path.join(BENCH, "operands.json"),
            "result": os.path.join(workdir, "micro-result.json")}
    result = _spawn("micro.py", spec, workdir, deadline) or {}
    return {name: result.get(name) for name in MICRO_NAMES}


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def plain_run(workload, seed, seconds, workdir, deadline):
    setup_s = measure_setup(SETUP_SPAWNS)
    pool = workload["m_pool"]
    k = seed % len(pool)
    order = pool[k:] + pool[:k]
    print(f"m order {order}; setup_s median of {SETUP_SPAWNS} spawns")
    pinned = _load("digests.json")
    samples = {m: [] for m in order}     # m -> [(wall_s, peak_rss_mb)]
    points = {}
    attempted = failed = 0
    start = time.perf_counter()
    for i in itertools.count():
        m = order[i % len(order)]
        t0 = time.perf_counter()
        result = execute(workload, m, workdir, deadline)
        took = time.perf_counter() - t0
        p, f = gate(workload, m, result, pinned)
        attempted += p
        failed += f
        points[m] = p
        samples[m].append((result["wall_s"], result["peak_rss_mb"]))
        print(f"m={m} wall_s {result['wall_s']:.4f}")
        # after a full round, go on while the next call of the same m
        # (one round ago) is expected to end within the budget
        nxt = order[(i + 1) % len(order)]
        predicted = samples[nxt][-1][0] + (took - result["wall_s"]) \
            if samples[nxt] else 0.0
        if failed or (i + 1 >= len(order) and (
                time.perf_counter() - start + predicted > seconds
                or time.perf_counter() + predicted > deadline)):
            break

    # The machine's speed drifts under other tenants' load, and that noise
    # only ever slows a call down, so each m counts with its fastest call.
    wall = sum(min(w for w, _ in samples[m]) for m in order)
    rss = [statistics.median(r for _, r in samples[m]) for m in order
           if None not in (r for _, r in samples[m])]
    metrics = {"wall_s": (wall, "s"),
               "points_per_s": (sum(points.values()) / wall, "points/s"),
               "setup_s": (setup_s, "s"),
               "peak_rss_mb": (max(rss) if rss else None, "MB")}
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} points, "
          f"{sum(len(v) for v in samples.values())} calls)")
    return metrics, attempted, failed


def traced_run(workload, seed, workdir, deadline):
    """Untraced and traced calls alternate twice; the overhead and the
    per-layer times come from the faster call of each kind."""
    pool = workload["m_pool"]
    m = pool[seed % len(pool)]
    pinned = _load("digests.json")
    plain, traced = [], []
    attempted = failed = 0
    for i in range(2):
        path = os.path.join(workdir, f"trace{i}.json")
        for runs, trace in ((plain, None), (traced, path)):
            result = execute(workload, m, workdir, deadline, trace=trace)
            result["trace"] = trace
            runs.append(result)
            p, f = gate(workload, m, result, pinned)
            attempted += p
            failed += f
    if any(r["reports"] != plain[0]["reports"] for r in plain + traced):
        print("traced reports differ from untraced ones")
        failed = attempted
    fast_plain = min(plain, key=lambda r: r["wall_s"])
    fast_traced = min(traced, key=lambda r: r["wall_s"])
    values = dict.fromkeys(layers.METRICS)
    if os.path.exists(fast_traced["trace"]):
        with open(fast_traced["trace"]) as fh:
            values.update(layers.compute(json.load(fh)))
    values["trace.overhead_s"] = fast_traced["wall_s"] - fast_plain["wall_s"]
    values.update(run_micro(workdir, deadline))
    units = {name: spec[0] for name, spec in layers.METRICS.items()}
    units["trace.overhead_s"] = "s"
    units.update(dict.fromkeys(MICRO_NAMES, "us"))
    print(f"m {m}; untraced wall_s {fast_plain['wall_s']:.4f}, "
          f"traced wall_s {fast_traced['wall_s']:.4f} (faster of two each)")
    print(f"failed_frac {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} points)")
    return ({name: (value, units[name]) for name, value in values.items()},
            attempted, failed)


def run_workload(workload, args):
    """One run of one workload; prints its metrics and result line."""
    deadline = time.perf_counter() + HARD_LIMIT_S
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=WORK)
    try:
        print(f"workload {workload['name']} seed {args.seed} "
              f"trace {args.trace}")
        print(f"calibration_s {calibrate():.6f} "
              "(fixed pure-Python loop, best of 3; not a metric)")
        if args.trace:
            metrics, attempted, failed = traced_run(
                workload, args.seed, workdir, deadline)
        else:
            metrics, attempted, failed = plain_run(
                workload, args.seed, args.seconds, workdir, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"{name} {shown} {unit}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all' to run each in turn")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "blobtensor", "cli.py")):
        print(f"no blobtensor package under {SRC}", file=sys.stderr)
        return 2
    workloads = _load("workloads.json")
    names = list(workloads) if args.workload == "all" else [args.workload]
    if not set(names) <= set(workloads):
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads)} or 'all'", file=sys.stderr)
        return 2
    try:
        for name in names:
            run_workload(dict(workloads[name], name=name), args)
    except SetupError as exc:
        print(f"cannot benchmark: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
