"""CLI: exit codes, report shapes, skip logic, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blobtensor.cli import main

CLI = [sys.executable, "-m", "blobtensor.cli"]
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + args, capture_output=True, text=True,
                          env=env)


def test_verify_relations_passes(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify-relations", "--n", "2..3", "--l", "0,5", "--m", "2",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ok"]
    assert len(report["results"]) == 4
    for rec in report["results"]:
        assert set(rec) == {"n", "l", "m", "backend", "checks", "all_ok"}
        for check in rec["checks"]:
            assert set(check) == {"relation", "ok", "first_failure"}


def test_invalid_l_is_skipped_not_fatal(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify-relations", "--n", "2", "--l", "4", "--m", "2",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["results"] == []
    assert report["skipped"][0]["reason"] == "l_not_odd"
    assert "q^4" in report["skipped"][0]["message"]


def test_invalid_m_skip_codes(tmp_path):
    out = tmp_path / "report.json"
    rc = main(["verify-relations", "--n", "2", "--l", "5", "--m", "5,6,2",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    reasons = {(s["m"], s["reason"]) for s in report["skipped"]}
    assert (5, "lambda1_eq_lambda2") in reasons
    assert (6, "lambda1_eq_q2_lambda2") in reasons
    assert len(report["results"]) == 1


def test_n_below_command_minimum_is_skipped(tmp_path, capsys):
    # adjointness needs n >= 3: n = 2 is skipped, n = 3 and 4 still run
    out = tmp_path / "adj.json"
    rc = main(["adjointness", "--n", "2..4", "--l", "5", "--m", "2",
               "--out", str(out)])
    assert rc == 0
    assert "skip l=5 m=2 n=2: n_below_min" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["ok"]
    assert sorted({r["primal"]["n"] for r in report["results"]}) == [3, 4]
    assert report["skipped"] == [{"l": 5, "m": 2, "n": 2,
                                  "reason": "n_below_min",
                                  "message": "this command needs n >= 3"}]
    # the relation suite needs n >= 2
    rc = main(["verify-relations", "--n", "1..2", "--l", "5", "--m", "2",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert [r["n"] for r in report["results"]] == [2]
    assert [(s["n"], s["reason"]) for s in report["skipped"]] == \
        [(1, "n_below_min")]


def test_negative_list_as_separate_value(tmp_path):
    # argparse takes a bare "-1,2" for an option; both spellings must parse
    reports = []
    for flags in (["--m", "-1,2"], ["--m=-1,2"]):
        out = tmp_path / "report.json"
        rc = main(["verify-relations", "--n", "2", "--l", "5", *flags,
                   "--out", str(out)])
        assert rc == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    assert [r["m"] for r in json.loads(reports[0])["results"]] == [-1, 2]


def test_empty_grid_exit_zero(capsys):
    rc = main(["verify-relations", "--n", "2", "--l", "", "--m", "2"])
    assert rc == 0


def test_triangle_csv(tmp_path):
    out = tmp_path / "triangle.csv"
    rc = main(["triangle", "--n", "4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines == ["1,0", "1,1,0", "1,2,1,0", "1,3,3,1,0"]


def test_triangle_json(tmp_path):
    out = tmp_path / "triangle.json"
    rc = main(["triangle", "--n", "5", "--format", "json", "--out",
               str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["rows"]["4"] == [1, 3, 3, 1, 0]
    assert report["ok"]


def test_csv_rejected_elsewhere(capsys):
    # the grid commands emit JSON only and take no --format at all
    rc = main(["localize", "--n", "3", "--format", "csv"])
    assert rc == 2
    assert "unrecognized arguments: --format csv" in capsys.readouterr().err


def test_adjointness_report(tmp_path):
    out = tmp_path / "adj.json"
    rc = main(["adjointness", "--n", "3..4", "--l", "3,5", "--m", "2",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ok"]
    summary = report["summary"]
    assert summary["primal_verdict_equals_n2_neq_m"]
    assert summary["dual_consistent_rule"] == "iso_iff_n1_neq_minus_m"
    rec = report["results"][0]["primal"]
    for key in ("n", "l", "m", "lambda", "n1", "n2", "dim",
                "rank_phi_image", "surjective", "injective",
                "special_scalar", "scalar_v", "scalar_w"):
        assert key in rec


def test_perturbed_special_scalar_fails_point(tmp_path, monkeypatch):
    # negative control: the injectivity witness subtracts special * [2^n2 1^n1]
    # from the decorated element; a wrong scalar leaves a residual outside
    # the TL span, and that alone must fail the point
    from blobtensor import weightmod

    args = ["adjointness", "--n", "3", "--l", "5", "--m", "2",
            "--lambda", "1", "--out", str(tmp_path / "adj.json")]
    assert main(args) == 0
    orig = weightmod.special_element_scalar
    monkeypatch.setattr(weightmod, "special_element_scalar",
                        lambda n, lam, ctx: orig(n, lam, ctx) + ctx.one)
    assert main(args) == 1
    report = json.loads((tmp_path / "adj.json").read_text())
    assert not report["ok"]
    [rec] = report["results"]
    primal = rec["primal"]
    assert not rec["all_ok"]
    assert not primal["decorated_residual_ok"]
    # every other gated witness still passes
    assert primal["special_nonzero"] and primal["four_way_agree"]
    assert primal["matches_expected"] and primal["spans_agree"]
    assert primal["quotient_scalars_match"] and primal["surjective"]
    assert rec["dual"]["dual_tests_agree"]


def test_localize_report(tmp_path):
    out = tmp_path / "loc.json"
    rc = main(["localize", "--n", "3..5", "--l", "0", "--m", "2",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ok"]
    extremes = [r for r in report["results"] if "localizes_to_zero" in r]
    assert extremes and all(r["localizes_to_zero"] for r in extremes)


def test_localize_small_n_is_skipped(tmp_path, capsys):
    # n = 1 has no U_{n-1} besides the blob generator, and at n = 2 only the
    # extreme weights localize: the interior weight is skipped with its lambda
    out = tmp_path / "loc.json"
    rc = main(["localize", "--n", "1..3", "--l", "5", "--m", "2",
               "--out", str(out)])
    assert rc == 0
    err = capsys.readouterr().err
    assert "skip l=5 m=2 n=1: n_below_min" in err
    assert "skip l=5 m=2 n=2 lambda=0: n_below_min" in err
    report = json.loads(out.read_text())
    assert report["ok"]
    assert report["skipped"] == [
        {"l": 5, "m": 2, "n": 1, "reason": "n_below_min",
         "message": "this command needs n >= 2"},
        {"l": 5, "m": 2, "n": 2, "lambda": 0, "reason": "n_below_min",
         "message": "an interior lambda needs n >= 3"}]
    assert [(r["n"], r["lambda"]) for r in report["results"]] == \
        [(2, -2), (2, 2), (3, -3), (3, -1), (3, 1), (3, 3)]
    assert all(r["localizes_to_zero"] for r in report["results"][:2])
    # a grid of nothing but skipped weights still exits 0
    rc = main(["localize", "--n", "2", "--l", "5", "--lambda", "0",
               "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["results"] == []


def test_restrict_report(tmp_path):
    out = tmp_path / "res.json"
    rc = main(["restrict", "--n", "4", "--lambda", "0", "--l", "5",
               "--m", "2", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    rec = report["results"][0]
    assert rec["splitting"]["split"] is True
    assert rec["splitting"]["eigdims"] == [3, 3]
    assert rec["central"]["ok"]


def test_restrict_wall_case(tmp_path):
    out = tmp_path / "res.json"
    rc = main(["restrict", "--n", "4", "--lambda", "-2", "--l", "3",
               "--m", "2", "--out", str(out)])
    assert rc == 0
    rec = json.loads(out.read_text())["results"][0]
    assert rec["splitting"]["wall"]
    assert rec["splitting"]["split"] == "undetermined"
    assert rec["splitting"]["complement_search"] == "none"


def test_duality_report(tmp_path):
    out = tmp_path / "dual.json"
    rc = main(["duality", "--n", "3", "--l", "0,5", "--m", "2",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ok"]
    assert len(report["results"]) == 8  # 2 params x 4 shapes


def test_smallcase_report(tmp_path):
    out = tmp_path / "small.json"
    rc = main(["smallcase", "--l", "0,5", "--m", "2,3", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ok"] and len(report["results"]) == 4
    rec = report["results"][0]
    assert rec["computed"]["U1"]["basis"] == ["12", "21"]
    assert rec["computed"]["U1"]["columns"] == \
        rec["golden"]["U1"]["columns"]


def test_report_schemas_pinned(tmp_path):
    out = tmp_path / "r.json"
    main(["localize", "--n", "3", "--l", "0", "--m", "2", "--out",
          str(out)])
    rec = json.loads(out.read_text())["results"][1]
    assert set(rec) == {"n", "lambda", "dim_small", "dim_e", "rank",
                        "bijective", "e_fixes_image", "intertwines", "ok",
                        "l", "m"}
    main(["restrict", "--n", "4", "--lambda", "0", "--l", "5", "--m", "2",
          "--out", str(out)])
    rec = json.loads(out.read_text())["results"][0]
    assert set(rec) == {"n", "l", "m", "lambda", "central", "restriction",
                        "splitting", "ok"}
    assert set(rec["splitting"]) == {"n", "lambda", "l", "m", "wall",
                                     "split", "eigdims", "eigdims_expected",
                                     "generator_invariant",
                                     "complement_search"}
    main(["smallcase", "--l", "0", "--m", "2", "--out", str(out)])
    rec = json.loads(out.read_text())["results"][0]
    assert set(rec) == {"l", "m", "checks", "computed", "golden", "all_ok"}
    for key in ("basis", "columns", "convention"):
        assert key in rec["computed"]["X"]


def test_backend_filter(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["verify-relations", "--n", "2", "--l", "0,5", "--m", "2",
               "--backend", "generic", "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert [r["l"] for r in report["results"]] == [0]
    assert report["skipped"][0]["reason"].startswith("backend_mismatch")


def test_smallcase_backend_filter(tmp_path, capsys):
    # smallcase shares the grid of the other commands: a mismatched
    # backend skips the point instead of computing it
    out = tmp_path / "small.json"
    rc = main(["smallcase", "--l", "0,5", "--m", "2", "--backend", "generic",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert [(r["l"], r["m"]) for r in report["results"]] == [(0, 2)]
    assert report["skipped"] == [{
        "l": 5, "m": 2, "reason": "backend_mismatch:cyclotomic",
        "message": "backend_mismatch:cyclotomic"}]
    assert "skip l=5 m=2: backend_mismatch:cyclotomic" in \
        capsys.readouterr().err


def test_size_cap_respected():
    rc = main(["verify-relations", "--n", "13", "--l", "0", "--m", "2"])
    assert rc == 2


def test_size_cap_env_override(tmp_path):
    r = run_cli(["localize", "--n", "13", "--l", "0", "--m", "2"])
    assert r.returncode == 2
    out = tmp_path / "x.json"
    r = run_cli(["triangle", "--n", "3", "--out", str(out)],
                {"BLOBTENSOR_MAX_N": "20"})
    assert r.returncode == 0


@pytest.mark.parametrize("value", ["-1", "0", "abc"])
def test_size_cap_env_must_be_positive(value):
    r = run_cli(["restrict", "--n", "3", "--l", "3", "--m", "2"],
                {"BLOBTENSOR_MAX_N": value})
    assert r.returncode == 2
    assert r.stderr == (f"configuration error: BLOBTENSOR_MAX_N={value!r} "
                        "is not a positive integer\n")


def test_out_in_missing_directory_fails_before_computing(monkeypatch,
                                                          tmp_path, capsys):
    import blobtensor.cli as cli

    def never(*point):
        raise AssertionError("a point ran before --out was checked")

    monkeypatch.setattr(cli, "_restrict_point", never)
    out = tmp_path / "missing" / "x.json"
    rc = main(["restrict", "--n", "3", "--lambda", "all", "--l", "3",
               "--m", "2", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: --out {out}: no directory")
    assert not out.parent.exists()
    # a directory is no file to write to either, nor is a path in a
    # directory the process may not write to
    assert main(["triangle", "--n", "3", "--out", str(tmp_path)]) == 2
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    assert main(["triangle", "--n", "3", "--out",
                 str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err.endswith(
        f"--out {tmp_path / 'x.csv'}: not writable\n")


def test_out_check_leaves_existing_file_alone(tmp_path):
    # the check neither truncates nor creates: a run that then fails its
    # configuration keeps the old file, and a missing file stays missing
    old = tmp_path / "old.json"
    old.write_text("keep")
    new = tmp_path / "new.json"
    for out in (old, new):
        assert main(["restrict", "--n", "40", "--l", "3", "--m", "2",
                     "--out", str(out)]) == 2
    assert old.read_text() == "keep"
    assert not new.exists()


def test_report_write_failure_is_one_line(monkeypatch, tmp_path, capsys):
    # a write that fails after the check (here: the check switched off)
    # ends with one stderr line, no traceback
    import blobtensor.cli as cli

    monkeypatch.setattr(cli, "_check_out", lambda path: None)
    out = tmp_path / "missing" / "x.json"
    rc = main(["restrict", "--n", "3", "--lambda", "all", "--l", "3",
               "--m", "2", "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("cannot write the report: ") and err.count("\n") == 1


def test_internal_error_is_one_line_naming_the_point(monkeypatch, tmp_path,
                                                     capsys):
    # an internal guard hit by a bug is no configuration error: exit 1, one
    # stderr line with the command and the point, no traceback, no report
    from blobtensor import towers

    def guard(n, lam, ctx):
        raise ValueError("internal guard")

    monkeypatch.setattr(towers, "restriction_sequence", guard)
    out = tmp_path / "x.json"
    rc = main(["restrict", "--n", "3", "--l", "5", "--m", "2",
               "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("internal error: restrict at l=5 m=2 n=3 ")
    assert err.endswith("ValueError: internal guard\n")
    assert not out.exists()


@pytest.mark.parametrize("value", ["abc", "1.5"])
def test_malformed_lambda_fails_before_computing(value, monkeypatch, capsys):
    import blobtensor.cli as cli

    def never(*point):
        raise AssertionError("a point ran with a malformed --lambda")

    monkeypatch.setattr(cli, "_restrict_point", never)
    rc = main(["restrict", "--n", "3", "--lambda", value, "--l", "5",
               "--m", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.endswith(
        f"error: argument --lambda: invalid integer {value!r}\n")


@pytest.mark.parametrize("value,reason", [("5..3", "empty range '5..3'"),
                                          ("0", "n must be positive"),
                                          ("3.5", "invalid integer '3.5'"),
                                          ("2..x", "invalid integer 'x'"),
                                          ("1..2..3",
                                           "invalid integer '2..3'")])
def test_bad_n_range_names_its_reason(value, reason, capsys):
    rc = main(["restrict", "--n", value, "--l", "5", "--m", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.endswith(
        f"blobtensor restrict: error: argument --n: {reason}\n")


@pytest.mark.parametrize("option,value,token", [("--m", "x", "x"),
                                                ("--m", "2,x", "x"),
                                                ("--l", "5,1.5", "1.5")])
def test_malformed_list_names_the_token(option, value, token, capsys):
    # the message names the token, not a private parser function
    args = {"--n": "3", "--l": "5", "--m": "2", option: value}
    rc = main(["restrict"] + [a for pair in args.items() for a in pair])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.endswith(
        f"blobtensor restrict: error: argument {option}: "
        f"invalid integer {token!r}\n")


def test_size_cap_is_checked_before_the_first_point(monkeypatch, capsys):
    # n = 3 and 4 are within the cap, n = 5 is not: nothing is computed
    import blobtensor.cli as cli

    def never(*point):
        raise AssertionError("a point ran before the size cap was checked")

    monkeypatch.setattr(cli, "_adjointness_point", never)
    monkeypatch.setenv("BLOBTENSOR_MAX_N", "4")
    rc = main(["adjointness", "--n", "3..5", "--l", "5", "--m", "2"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == ("configuration error: n=5 exceeds the cyclotomic "
                            "cap 4 (set BLOBTENSOR_MAX_N to override)\n")


def test_determinism_byte_identical(tmp_path):
    args = ["adjointness", "--n", "3..4", "--l", "3,5", "--m", "2,3"]
    outputs = []
    for seed in ("0", "1", "random"):
        r = run_cli(args, {"PYTHONHASHSEED": seed})
        assert r.returncode == 0
        outputs.append(r.stdout)
    assert outputs[0] == outputs[1] == outputs[2]


def test_unknown_command_exit_2():
    assert main(["frobnicate"]) == 2


def test_stdout_default(capsys):
    rc = main(["triangle", "--n", "2"])
    assert rc == 0
    assert capsys.readouterr().out == "1,0\n1,1,0\n"


def test_emitted_report_bytes_are_one_json_dumps(tmp_path, capsys):
    # a report of many encoder batches, written to --out and to stdout
    import blobtensor.cli as cli

    report = {"results": [{"n": i, "ok": i % 3 == 0, "name": f"p{i}",
                           "ranks": [i, None, 1.5]} for i in range(2000)],
              "b": "\u00e9"}
    expect = json.dumps(report, sort_keys=True, indent=2) + "\n"
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(report)
    assert sum(1 for _ in chunks) > 12288
    out = tmp_path / "report.json"
    out.write_text("old contents, longer than nothing")
    cli._emit(SimpleNamespace(out=str(out)), report)
    assert out.read_text() == expect
    cli._emit(SimpleNamespace(out=None), report)
    assert capsys.readouterr().out == expect
    cli._emit(SimpleNamespace(out=None), "1,0\n")
    assert capsys.readouterr().out == "1,0\n"
    # any report of JSON values, tuples among them, renders as json renders
    # it; a value json cannot write raises TypeError, as in json, and so
    # does a key that is not a string
    text = st.text(st.characters(max_codepoint=0x2FFF,
                                 blacklist_categories=("Cs",)), max_size=6)
    scalar = st.one_of(st.none(), st.booleans(), st.integers(-10**20, 10**20),
                       st.floats(allow_nan=False), text)
    value = st.recursive(scalar, lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.tuples(inner, inner),
        st.dictionaries(text, inner, max_size=4)), max_leaves=24)

    @given(st.dictionaries(text, value, max_size=5))
    @settings(max_examples=200, deadline=None)
    def renders_as_json(report):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            cli._emit(SimpleNamespace(out=None), report)
        assert buf.getvalue() == \
            json.dumps(report, sort_keys=True, indent=2) + "\n"

    renders_as_json()
    for report in ({"results": [[], {}, ()], "": {"\u00e9\x00\n": -0.0}},
                   {"a": [float("inf"), float("-inf"), float("nan"), 1e300]},
                   {}):
        with contextlib.redirect_stdout(io.StringIO()) as buf:
            cli._emit(SimpleNamespace(out=None), report)
        assert buf.getvalue() == \
            json.dumps(report, sort_keys=True, indent=2) + "\n"
    for bad in ({"results": [{1, 2}]}, {"a": {"b": object()}}, {(1,): 2},
                {"a": {2: None}}):
        with pytest.raises(TypeError), \
                contextlib.redirect_stdout(io.StringIO()):
            cli._emit(SimpleNamespace(out=None), bad)


def test_duality_n1_runs_existing_relations_only(tmp_path):
    # n = 1 has no g_i and no U_1: only squared(U0) and quadratic(X) exist
    out = tmp_path / "dual.json"
    rc = main(["duality", "--n", "1", "--l", "0,5", "--m", "2",
               "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["ok"] and len(report["results"]) == 4
    for rec in report["results"]:
        names = [c["relation"] for c in rec["checks"]]
        assert [x for x in names if x.startswith("S'_blob:")] == \
            ["S'_blob:squared(U0)"]
        assert [x for x in names if x.startswith("S':")] == \
            ["S':quadratic(X)"]


def test_no_result_and_no_skip_is_a_failure(tmp_path, capsys):
    # lambda = 3 is not a weight of n = 4: nothing is checked
    out = tmp_path / "res.json"
    rc = main(["restrict", "--n", "4", "--lambda", "3", "--out", str(out)])
    assert rc == 1
    assert "no grid point produced a result" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["results"] == [] and report["skipped"] == []
    assert report["ok"] is False


def test_operator_leaving_its_block_is_a_verification_error(monkeypatch,
                                                            capsys):
    from functools import lru_cache

    from blobtensor import weightmod

    good = weightmod.table_matrix

    def leaky(symbol, basis, index, ctx):
        # T3 is built against an index that holds none of its images
        return good(symbol, basis, {} if symbol == "T3" else index, ctx)

    # the relation suites read T2 .. Tn from the block operator tables; a
    # fresh table cache builds them with the leaky T3, a fresh module cache
    # reads them, and both are dropped afterwards
    monkeypatch.setattr(weightmod, "table_matrix", leaky)
    monkeypatch.setattr(weightmod, "block_operators",
                        lru_cache(maxsize=None)(weightmod.BlockOperators))
    monkeypatch.setattr(weightmod, "weight_module",
                        lru_cache(maxsize=None)(weightmod.WeightModule))
    rc = main(["verify-relations", "--n", "3", "--l", "0", "--m", "2"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("verification error: T3 leaves the basis span")
    assert err.endswith(" (verify-relations at l=0 m=2 n=3)\n")
    assert "Traceback" not in err


JSON_COMMANDS = ["verify-relations", "adjointness", "localize", "restrict",
                 "duality", "smallcase", "triangle"]


@st.composite
def small_grids(draw):
    command = draw(st.sampled_from(JSON_COMMANDS))
    lo = draw(st.integers(1, 4))
    hi = draw(st.integers(lo, 4))
    n = [] if command == "smallcase" else \
        ["--n", str(lo) if lo == hi else f"{lo}..{hi}"]
    if command == "triangle":
        return [command, *n, "--format", "json"]
    ls = draw(st.lists(st.sampled_from([0, 1, 3, 4, 5, 7]), min_size=1,
                       max_size=2, unique=True))
    ms = draw(st.lists(st.integers(-3, 6), min_size=1, max_size=2,
                       unique=True))
    argv = [command, *n, "--l", ",".join(map(str, ls)),
            "--m", ",".join(map(str, ms))]
    if command in ("adjointness", "localize", "restrict"):
        lam = draw(st.one_of(st.just("all"), st.integers(-5, 5).map(str)))
        argv += ["--lambda", lam]
    return argv


@given(small_grids())
@settings(max_examples=60, deadline=None)
def test_well_formed_grids_never_fail(argv):
    # exit 1 is allowed only for a request that checked nothing at all
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "report.json")
        rc = main(argv + ["--out", out])
        with open(out) as fh:
            report = json.load(fh)
    assert rc in (0, 1), argv
    if rc == 1:
        assert report["results"] == [] and report["skipped"] == [], argv


def _check_benchmark_digests(names, out):
    """Run the commands of each named workload at the first m of its pool
    and compare the reports with the benchmark's pinned sha256."""
    workloads = json.loads((PERFBENCH / "workloads.json").read_text())
    digests = json.loads((PERFBENCH / "digests.json").read_text())
    for name in names:
        spec = workloads[name]
        m = spec["m_pool"][0]
        pins = digests[name][str(m)]
        assert len(pins) == len(spec["commands"]), name
        for command, pin in zip(spec["commands"], pins):
            argv = [a.replace("{m}", str(m)) for a in command]
            assert argv == pin["argv"]
            assert main(argv + ["--out", str(out)]) == 0, argv
            data = out.read_bytes()
            assert len(json.loads(data)["results"]) == pin["points"], argv
            assert hashlib.sha256(data).hexdigest() == pin["sha256"], argv


def test_reports_match_benchmark_digests(tmp_path):
    # the benchmark's pinned report bytes, first m of each workload
    workloads = json.loads((PERFBENCH / "workloads.json").read_text())
    _check_benchmark_digests(list(workloads), tmp_path / "report.json")


def test_warm_scalar_tables_leave_reports_unchanged(tmp_path):
    # the interned scalars and memoized field operations carry no state
    # from one run to the next: run again in the same process, with every
    # table warm, the commands write the same bytes, and the second run
    # computes no new value
    from blobtensor.scalars import GENERIC, cyclotomic_field

    names = ["adjoint-cyc", "relations"]
    fields = [GENERIC, cyclotomic_field(5), cyclotomic_field(7)]
    _check_benchmark_digests(names, tmp_path / "report.json")
    sizes = [len(f._values) for f in fields]
    _check_benchmark_digests(names, tmp_path / "report.json")
    assert [len(f._values) for f in fields] == sizes


def test_a_field_holds_one_context_per_lambda_pair(monkeypatch, tmp_path):
    # every point of m = 2 runs in one context per field, the dual route in
    # its swap, and the block operator tables in the lambda-free one; the
    # context tables and the table cache start empty
    from functools import lru_cache

    from blobtensor import weightmod
    from blobtensor.scalars import cyclotomic_field

    fields = [cyclotomic_field(5), cyclotomic_field(7)]
    for field in fields:
        monkeypatch.setattr(field, "_contexts", {})
    monkeypatch.setattr(weightmod, "block_operators",
                        lru_cache(maxsize=None)(weightmod.BlockOperators))
    assert main(["adjointness", "--n", "3..7", "--l", "5,7", "--m", "2",
                 "--out", str(tmp_path / "report.json")]) == 0
    assert [len(field._contexts) for field in fields] == [3, 3]


@pytest.mark.parametrize("argv,builds", [
    ("adjointness --n 3..6 --l 5 --m -3,2,7", 28),
    ("restrict --n 3..7 --l 5 --m 2,8,14", 99),
    ("adjointness --n 3..7 --l 5,7 --m 2,3,4", 228)])
def test_weight_module_builds_on_fresh_caches(argv, builds, monkeypatch,
                                              tmp_path):
    # m congruent mod l, and the swap of m, share the cached modules
    from blobtensor import weightmod

    built = []
    init = weightmod.WeightModule.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(weightmod.WeightModule, "__init__", counted)
    weightmod.weight_module.cache_clear()
    assert main(argv.split() + ["--out", str(tmp_path / "report.json")]) == 0
    assert len(built) == builds


# sha256 of stdout, the stderr text and the exit code of every command, run
# in process without --out; pinned before the grid runner was introduced
COMMAND_PINS = [
    ("verify-relations --n 1..3 --l 0,4,5 --m 2", 0,
     "fa81efbdcbe222c661a4a2f17c413739a3fe731c07ff4dd126e12fc66783c31d",
     "skip l=0 m=2 n=1: n_below_min\nskip l=4 m=2: l_not_odd\n"
     "skip l=5 m=2 n=1: n_below_min\n"),
    ("adjointness --n 2..4 --l 5 --m 2,5", 0,
     "3bda2c6500cfff111884770b3e11e31b59a200654416dcaf4a22afd618388ce4",
     "skip l=5 m=2 n=2: n_below_min\nskip l=5 m=5: lambda1_eq_lambda2\n"),
    ("localize --n 1..4 --l 0,5 --m 2", 0,
     "a2de22da50faa9ddfc21debb9518b9ebbec4b14a3ec216c0f1a721660f291674",
     "skip l=0 m=2 n=1: n_below_min\nskip l=0 m=2 n=2 lambda=0: n_below_min\n"
     "skip l=5 m=2 n=1: n_below_min\nskip l=5 m=2 n=2 lambda=0: n_below_min\n"),
    ("restrict --n 1..4 --l 5 --m 2,14", 0,
     "753d7893f1a90c850498ab43bc5bbe4a1847ce0f847d8ac659482dddaab60bb9", ""),
    ("restrict --n 4 --lambda 0 --l 0 --m 2", 0,
     "672089dac64e28d06ea4691b0da6d877bb74e9ca6ec40af36edb95a7f7161e6d", ""),
    ("restrict --n 4 --lambda 3 --l 5 --m 2", 1,
     "60575cf77d0fbbfd78b4464c767d7d02b740566c4422004a73be8777e20cda62",
     "no grid point produced a result\n"),
    ("duality --n 1..3 --l 0,5 --m 2", 0,
     "e4d0f566605e9c37b6c747791dcfe4f0d1d89fe94d0dad06cac2dfdaa0ee1ef7", ""),
    ("smallcase --l 0,5 --m 2,3 --backend generic", 0,
     "4263a448818c22e1e795037dd30bb9c4e48e63422ad1c80640d5372d50bf3493",
     "skip l=5 m=2: backend_mismatch:cyclotomic\n"
     "skip l=5 m=3: backend_mismatch:cyclotomic\n"),
    ("triangle --n 6", 0,
     "145bfbf2753a1e83144b0cdc339e62eb67ef015057de93cd75b59563b961ca7f", ""),
    ("triangle --n 6 --format json", 0,
     "c61342171743bc23174b3750c41fa65cac9b63cf7327320e09c2f28311cb3b48", ""),
]


@pytest.mark.parametrize("argv,rc,sha,err", COMMAND_PINS,
                         ids=[pin[0] for pin in COMMAND_PINS])
def test_command_bytes_pinned(argv, rc, sha, err, capsys):
    assert main(argv.split()) == rc
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode()).hexdigest() == sha
    assert captured.err == err
