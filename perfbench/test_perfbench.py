"""Checks of the benchmark itself: the correctness gate and its negative
controls, absent targets, the trace schema and exact-count determinism.

    python3 -m pytest perfbench -q        # about half a minute
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = run._load("workloads.json")
PINNED = run._load("digests.json")


def _workload(name):
    return dict(WORKLOADS[name], name=name)


def _dumps(report):
    return (json.dumps(report, sort_keys=True, indent=2) + "\n").encode()


def _sha(data):
    return hashlib.sha256(data).hexdigest()


def _deadline():
    return time.perf_counter() + 170


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_report(tmp_path_factory):
    small = {"name": "small",
             "commands": [["adjointness", "--n", "3..4", "--l", "5",
                           "--m", "{m}"]]}
    result = run.execute(small, 2, str(tmp_path_factory.mktemp("gate")),
                         _deadline())
    return result["reports"][0], result["records"][0]["rc"]


def test_gate_accepts_the_real_report(small_report):
    data, rc = small_report
    points = len(json.loads(data)["results"])
    assert rc == 0 and points == 5
    assert run.check_report(data, rc, points, _sha(data)) == 0


def test_gate_rejects_a_flipped_verdict(small_report):
    data, rc = small_report
    report = json.loads(data)
    points = len(report["results"])
    flipped = copy.deepcopy(report)
    flipped["results"][2]["all_ok"] = False
    bad = _dumps(flipped)
    assert run.check_report(bad, rc, points, _sha(data)) / points > 0
    # re-pinning the bad report does not make the verdict pass either
    assert run.check_report(bad, rc, points, _sha(bad)) == 1


def test_gate_rejects_a_missing_point(small_report):
    data, rc = small_report
    report = json.loads(data)
    points = len(report["results"])
    missing = copy.deepcopy(report)
    del missing["results"][-1]
    bad = _dumps(missing)
    assert run.check_report(bad, rc, points, _sha(data)) / points > 0
    assert run.check_report(bad, rc, points, _sha(bad)) == points


def test_gate_rejects_exit_code_and_missing_report(small_report):
    data, _ = small_report
    assert run.check_report(data, 1, 5, _sha(data)) == 5
    assert run.check_report(None, 0, 5, _sha(data)) == 5
    assert run.check_report(b"{not json", 0, 5, _sha(data)) == 5


# ---------------------------------------------------------------------------
# declared metrics, pinned data, absent targets
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == {
        "wall_s", "points_per_s", "setup_s", "peak_rss_mb"}
    declared = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expected = {name: spec[0] for name, spec in layers.METRICS.items()}
    expected["trace.overhead_s"] = "s"
    expected.update(dict.fromkeys(run.MICRO_NAMES, "us"))
    assert declared == expected
    for name, spec in WORKLOADS.items():
        assert sorted(PINNED[name]) == sorted(str(m) for m in spec["m_pool"])


def test_absent_targets_are_skipped_and_reported_null():
    tracer = Tracer()
    sys.path.insert(0, run.SRC)
    import blobtensor.cli  # noqa: F401
    tracer.install([("towers", "_no_such_phase", "span", None, None),
                    ("linalg", "NoSuchSolver.insert", "agg", None, None),
                    ("no_such_module", "f", "span", None, None)])
    assert tracer.installed == []
    assert sorted(tracer.absent) == ["linalg.NoSuchSolver.insert",
                                     "no_such_module.f",
                                     "towers._no_such_phase"]
    trace = dict(tracer.to_json(),
                 installed=["towers.splitting_check@towers"])
    values = layers.compute(trace)
    assert values["towers.splitting_s"] == 0.0
    assert values["towers.wall_points"] == 0
    assert values["towers.wall_search_s"] is None
    assert values["linalg.insert_calls"] is None
    assert values["linalg.insert_useful_ratio"] is None


def test_run_without_source_exits_nonzero(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "adjoint-cyc",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


# ---------------------------------------------------------------------------
# traced runs: schema, byte-identical reports, exact counts
# ---------------------------------------------------------------------------

def _check_schema(trace):
    assert trace["schema"] == 1
    assert trace["span_fields"] == ["id", "name", "start", "end", "parent",
                                    "self_s", "request"]
    assert trace["absent"] == []
    assert all("@" in label for label in trace["installed"])
    spans = {s[0]: s for s in trace["spans"]}
    assert len(spans) == len(trace["spans"])
    for sid, name, start, end, parent, self_s, request in trace["spans"]:
        assert isinstance(sid, int) and name in trace["installed"]
        assert start <= end and -1e-6 <= self_s <= end - start + 1e-6
        assert isinstance(request, int)
        if parent:
            p = spans[parent]
            assert p[2] <= start and end <= p[3] and p[6] == request
    for label, agg in trace["aggregates"].items():
        assert label in trace["installed"]
        assert set(agg) == {"calls", "outer_s", "self_s"}
        assert isinstance(agg["calls"], int) and agg["calls"] >= 0
        assert agg["outer_s"] >= 0 and agg["self_s"] >= -1e-6


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_runs_repeat_exactly(name, tmp_path):
    workload = _workload(name)
    m = workload["m_pool"][0]
    plain = run.execute(workload, m, str(tmp_path), _deadline())
    points, failed = run.gate(workload, m, plain, PINNED)
    assert points > 0 and failed == 0
    traces = []
    for i in range(2):
        path = str(tmp_path / f"trace{i}.json")
        traced = run.execute(workload, m, str(tmp_path), _deadline(),
                             trace=path)
        assert traced["reports"] == plain["reports"]
        with open(path) as fh:
            traces.append(json.load(fh))
    _check_schema(traces[0])
    counts = [{k: layers.compute(t)[k] for k in layers.COUNT_METRICS}
              for t in traces]
    assert counts[0] == counts[1]
    assert None not in counts[0].values()
    assert counts[0]["cli.points"] == points
    assert traces[0]["counters"] == traces[1]["counters"]
    assert ({k: a["calls"] for k, a in traces[0]["aggregates"].items()}
            == {k: a["calls"] for k, a in traces[1]["aggregates"].items()})
    assert ([s[1] for s in traces[0]["spans"]]
            == [s[1] for s in traces[1]["spans"]])
