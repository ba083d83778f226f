"""Command-line driver: parameter grids, verification reports, goldens.

A grid command is a point function and its domain in `build_parser`'s
table; `_run` walks the grid, records skips, builds the report and routes
failures.  Exit codes: 0 = every check passed (or was skipped with a
reason), 1 = a verification failed, a request produced no result at all, a
point raised (one stderr line naming it), or the report could not be
written, 2 = configuration error, found before any point is computed.

Reports are deterministic: grids iterate l ascending, then m, then n, then
lambda; scalars serialize canonically; JSON is emitted with sorted keys.
Running the same configuration twice produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import blob, specht, towers, weightmod
from .scalars import (BlobParams, ParameterError, check_params, check_size,
                      context, _PARAM_MESSAGES)


def _parse_range(text):
    if ".." in text:
        lo, hi = text.split("..")
        lo, hi = int(lo), int(hi)
        if hi < lo:
            raise ValueError(f"empty range {text!r}")
        values = list(range(lo, hi + 1))
    else:
        values = [int(text)]
    if any(n < 1 for n in values):
        raise ValueError("n must be positive")
    return values


def _parse_int_list(text):
    return [int(p) for p in text.split(",") if p != ""]


def _parse_lambda(text):
    return text if text == "all" else int(text)


def _lambda_values(lam, n):
    if lam == "all":
        return weightmod.lambda_range(n)
    return [lam] if (lam + n) % 2 == 0 and abs(lam) <= n else []


def _grid(args, skipped, min_n, weights):
    """Yield the (params, lambda) points of the command's domain in the
    l, m, n, lambda order (lambda None unless `weights`); append a skip
    record, and a stderr line, for every point that fails validation or lies
    below its least n.  An n above the size cap raises ParameterError."""
    least, least_interior = min_n if isinstance(min_n, tuple) \
        else (min_n, min_n)
    for l in sorted(args.l):
        for m in sorted(args.m):
            code = check_params(BlobParams(max(args.n), l, m))
            if code is None and args.backend != "auto":
                actual = "generic" if l == 0 else "cyclotomic"
                if actual != args.backend:
                    code = f"backend_mismatch:{actual}"
            if code is not None:
                _skip(skipped, {"l": l, "m": m}, code)
                continue
            for n in sorted(args.n):
                if n < least:
                    _skip(skipped, {"l": l, "m": m, "n": n}, "n_below_min",
                          f"this command needs n >= {least}")
                    continue
                params = BlobParams(n, l, m)
                check_size(n, params.backend)
                if weights is None:
                    yield params, None
                    continue
                for lam in _lambda_values(getattr(args, "lam", "all"), n):
                    if abs(lam) < n and n < least_interior:
                        _skip(skipped, {"l": l, "m": m, "n": n,
                                        "lambda": lam}, "n_below_min",
                              f"an interior lambda needs n >= "
                              f"{least_interior}")
                    elif abs(lam) < n or weights == "all":
                        yield params, lam


def _run(args):
    """The report of a grid command, its walk validated before the first
    point runs; (None, False) after a point raised (one stderr line)."""
    point, min_n, weights, summary = args.grid
    results, skipped = [], []
    ok = True
    for params, lam in list(_grid(args, skipped, min_n, weights)):
        try:
            record, point_ok = point(params, context(params), lam)
        except ParameterError:
            raise
        except Exception as exc:
            where = f"l={params.l} m={params.m} n={params.n}" + \
                ("" if lam is None else f" lambda={lam}")
            print(f"verification error: {exc} ({args.command} at {where})"
                  if isinstance(exc, ArithmeticError) else
                  f"internal error: {args.command} at {where}: "
                  f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return None, False
        results.append(record)
        ok = ok and point_ok
    report = {"command": args.command, "results": results,
              "skipped": skipped}
    if summary is not None:
        report["summary"], summary_ok = summary(results)
        ok = ok and summary_ok
    # a request that names parameters but yields neither a result nor a
    # skip record checked nothing; an empty --l or --m list asks for nothing
    if args.l and args.m and not results and not skipped:
        print("no grid point produced a result", file=sys.stderr)
        ok = False
    report["ok"] = ok
    return report, ok


def _matrix_json(cols, basis, field):
    dim = len(basis)
    dense = []
    for col in cols:
        dense.append([field.serialize(col[i]) if i in col
                      else field.serialize(field.zero) for i in range(dim)])
    return {"basis": list(basis), "columns": dense,
            "convention": "columns are images"}


def _check_out(path):
    """Reject an --out path that cannot be written before any computation;
    the file itself is neither created nor truncated."""
    if path is None:
        return
    folder = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(folder):
        problem = f"no directory {folder}"
    elif os.path.isdir(path):
        problem = "is a directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "not writable"
    else:
        return
    raise ParameterError("bad_out", f"--out {path}: {problem}")


def _emit(args, report):
    """Write a JSON report, or a command's preformatted text, to --out or
    stdout."""
    text = report if isinstance(report, str) else \
        json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _skip(skipped, point, reason, message=None):
    """Record a skipped point: `point` holds l and m, plus n (and lambda)
    when only that n (or that weight) is skipped."""
    skipped.append(dict(point, reason=reason,
                        message=message or _PARAM_MESSAGES.get(reason,
                                                               reason)))
    where = " ".join(f"{k}={v}" for k, v in point.items())
    print(f"skip {where}: {reason}", file=sys.stderr)


def _with_checks(record, checks):
    ok = all(c.ok for c in checks)
    return dict(record, checks=[c.to_record() for c in checks],
                all_ok=ok), ok


# ---------------------------------------------------------------------------
# commands: one grid point each, (params, ctx, lambda) -> (record, ok)
# ---------------------------------------------------------------------------

def _relations_point(params, ctx, lam):
    return _with_checks({"n": params.n, "l": params.l, "m": params.m,
                         "backend": params.backend},
                        blob.verify_relation_suite(params.n, ctx))


def _adjointness_point(params, ctx, lam):
    primal = weightmod.adjointness_record(params.n, lam, params)
    dual = specht.dual_adjointness_check(params.n, lam, params)
    ok = (primal["four_way_agree"]
          and primal["matches_expected"]
          and primal["spans_agree"]
          and primal["quotient_scalars_match"]
          and primal["decorated_residual_ok"]
          and (primal["surjective"] or primal["codim"] == 1)
          and dual["dual_tests_agree"])
    return {"primal": primal, "dual": dual, "all_ok": ok}, ok


def _adjointness_summary(results):
    """The dual sign rule over the grid; points without one rule fail."""
    rule, tallies = specht.resolve_dual_criterion(
        [r["dual"] for r in results]) if results else (None, {})
    return {
        "points": len(results),
        "primal_verdict_equals_n2_neq_m": all(
            r["primal"]["matches_expected"] for r in results),
        "dual_consistent_rule": rule,
        "dual_rule_tallies": tallies,
    }, rule is not None or not results


def _localize_point(params, ctx, lam):
    n = params.n
    if abs(lam) == n:
        module = weightmod.weight_module(n, lam, ctx)
        dim_e = weightmod.localize(module).dim_e
        return {"n": n, "l": params.l, "m": params.m, "lambda": lam,
                "dim_e": dim_e, "localizes_to_zero": dim_e == 0,
                "ok": dim_e == 0}, dim_e == 0
    res = weightmod.underline_map(n, lam, ctx)
    return dict(res.to_record(), l=params.l, m=params.m), res.ok


def _restrict_point(params, ctx, lam):
    n = params.n
    central = towers.verify_central_z(n, lam, ctx)
    rec = {"n": n, "l": params.l, "m": params.m, "lambda": lam,
           "central": central.to_record()}
    ok = central.ok
    if abs(lam) != n:
        seq = towers.restriction_sequence(n, lam, ctx)
        rec["restriction"] = seq.to_record()
        ok = ok and seq.ok
        if n >= 3:
            split = towers.splitting_check(n, lam, ctx)
            rec["splitting"] = split.to_record(params)
            if not split.wall:
                ok = ok and split.split is True
    rec["ok"] = ok
    return rec, ok


def _duality_point(params, ctx, lam):
    n1 = (params.n + lam) // 2
    n2 = params.n - n1
    checks = specht.verify_phi_intertwines(n1, n2, ctx)
    checks += specht.verify_S_prime_relations(n1, n2, ctx)
    checks += specht.verify_gi_quadratic_on_bitableaux(
        specht.col_shape(n1, n2), ctx)
    checks += specht.xi_word_eigenvalue_checks(n1, n2, ctx)
    checks += specht.xi_bitableau_eigenvalue_checks(n1, n2, ctx)
    checks += specht.verify_dualize_properties(n1, n2, ctx)
    return _with_checks({"n": params.n, "l": params.l, "m": params.m,
                         "n1": n1, "n2": n2}, checks)


def _smallcase_point(params, ctx, lam):
    checks, computed, golden = towers.verify_smallcase_matrices(ctx)
    return _with_checks({
        "l": params.l, "m": params.m,
        "computed": {k: _matrix_json(v, ["12", "21"], ctx.field)
                     for k, v in sorted(computed.items())},
        "golden": {k: _matrix_json(v, ["12", "21"], ctx.field)
                   for k, v in sorted(golden.items())}}, checks)


def cmd_triangle(args):
    n_max = max(args.n)
    table = towers.x_multiplicity_table(n_max)
    checks = towers.verify_triangle(n_max)
    ok = all(c.ok for c in checks)
    if args.format == "csv":
        lines = [",".join(str(v) for v in table[n])
                 for n in range(1, n_max + 1)]
        return "\n".join(lines) + "\n", ok
    report = {"command": "triangle",
              "rows": {str(n): table[n] for n in range(1, n_max + 1)},
              "lambda_columns": {str(n): weightmod.lambda_range(n)
                                 for n in range(1, n_max + 1)},
              "checks": [c.to_record() for c in checks],
              "ok": ok}
    return report, ok


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sub, lam=False, needs_n=True):
    if needs_n:
        sub.add_argument("--n", type=_parse_range, default=[4],
                         help="n or range like 2..6")
    if lam:
        sub.add_argument("--lambda", dest="lam", type=_parse_lambda,
                         default="all", help="a single weight or 'all'")
    sub.add_argument("--l", type=_parse_int_list, default=[0],
                     help="comma list of l values (0 = generic)")
    sub.add_argument("--m", type=_parse_int_list, default=[2],
                     help="comma list of m values")
    sub.add_argument("--backend", choices=["auto", "generic", "cyclotomic"],
                     default="auto")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=["json", "csv"], default="json")


def _attach_negative_values(argv):
    """`--m -1,2` -> `--m=-1,2` for the comma-list and weight options:
    argparse reads a bare value that starts with '-' as an option unless it
    is a single negative number."""
    out = []
    tokens = iter(argv)
    for token in tokens:
        out.append(token)
        if token in ("--l", "--m", "--lambda"):
            value = next(tokens, None)
            if value is None:
                break
            if value[:1] == "-" and value[1:2].isdigit():
                out[-1] = f"{token}={value}"
            else:
                out.append(value)
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="blobtensor",
        description="Exact verification suite for the rank-two tensor "
                    "representation of the type-B Hecke algebra and its "
                    "blob-algebra quotient.")
    subs = parser.add_subparsers(dest="command", required=True)
    # name, point, least n or (least n, least n of an interior weight),
    # weights walked, summary; duality walks all of Lambda_n, no --lambda
    for name, point, min_n, weights, summary in (
            ("verify-relations", _relations_point, 2, None, None),
            ("adjointness", _adjointness_point, 3, "interior",
             _adjointness_summary),
            ("localize", _localize_point, (2, 3), "all", None),
            ("restrict", _restrict_point, 1, "all", None),
            ("duality", _duality_point, 1, "all", None),
            ("smallcase", _smallcase_point, 1, None, None)):
        sub = subs.add_parser(name)
        _add_common(sub, lam=weights is not None and name != "duality",
                    needs_n=name != "smallcase")
        sub.set_defaults(fn=_run, grid=(point, min_n, weights, summary))
    # the goldens live on M_2(0): smallcase runs its grid at n = 2 only
    subs.choices["smallcase"].set_defaults(n=[2])
    tri = subs.add_parser("triangle")
    tri.add_argument("--n", type=_parse_range, default=[4])
    tri.add_argument("--out", default=None)
    tri.add_argument("--format", choices=["json", "csv"], default="csv")
    tri.set_defaults(fn=cmd_triangle)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_negative_values(
            sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    if getattr(args, "format", "json") == "csv" and \
            args.command != "triangle":
        print("csv output is only defined for the triangle command",
              file=sys.stderr)
        return 2
    try:
        _check_out(args.out)
        report, ok = args.fn(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if report is None:
        return 1
    try:
        _emit(args, report)
    except OSError as exc:
        print(f"cannot write the report: {exc}", file=sys.stderr)
        return 1
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
