"""Command-line driver: parameter grids, verification reports, goldens.

Exit codes: 0 = every check passed (or was skipped with a reason),
1 = at least one verification failed, or a request produced no result at
all, 2 = configuration error.

Reports are deterministic: grids iterate l ascending, then m, then n, then
lambda; scalars serialize canonically; JSON is emitted with sorted keys.
Running the same configuration twice produces byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import blob, specht, tensor, towers, weightmod
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


def _lambda_values(text, n):
    if text == "all":
        return weightmod.lambda_range(n)
    lam = int(text)
    if (lam + n) % 2 or abs(lam) > n:
        return []
    return [lam]


def _param_grid(args, skipped, min_n=1):
    """Yield (params, context(params)) for the valid BlobParams of the grid
    in the deterministic l, m, n order; append a skip record (and a stderr
    line) for every point that fails validation, including each n below the
    command's `min_n`.  An n above the size cap raises ParameterError when
    its turn comes."""
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
                if n < min_n:
                    _skip(skipped, {"l": l, "m": m, "n": n}, "n_below_min",
                          f"this command needs n >= {min_n}")
                    continue
                params = BlobParams(n, l, m)
                check_size(n, params.backend)
                yield params, context(params)


def _matrix_json(cols, basis, field):
    dim = len(basis)
    dense = []
    for col in cols:
        dense.append([field.serialize(col[i]) if i in col
                      else field.serialize(field.zero) for i in range(dim)])
    return {"basis": list(basis), "columns": dense,
            "convention": "columns are images"}


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


def _checks_to_records(checks):
    return [c.to_record() for c in checks]


def _skip(skipped, point, reason, message=None):
    """Record a skipped point: `point` holds l and m, plus n (and lambda)
    when only that n (or that weight) is skipped."""
    skipped.append(dict(point, reason=reason,
                        message=message or _PARAM_MESSAGES.get(reason,
                                                               reason)))
    where = " ".join(f"{k}={v}" for k, v in point.items())
    print(f"skip {where}: {reason}", file=sys.stderr)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_verify_relations(args):
    results, skipped = [], []
    ok = True
    for params, ctx in _param_grid(args, skipped, min_n=2):
        n = params.n
        checks = tensor.verify_ariki_koike(n, ctx)
        checks += tensor.verify_blob_identity(n, ctx)
        checks += blob.verify_blob_relations(n, ctx)
        checks += blob.verify_ideal_generators(n, ctx)
        for j in (1, 2):
            for p in range(1, n + 1):
                checks += tensor.verify_partial_rotation_fixing(j, p, n, ctx)
        point_ok = all(c.ok for c in checks)
        ok = ok and point_ok
        results.append({"n": n, "l": params.l, "m": params.m,
                        "backend": params.backend,
                        "checks": _checks_to_records(checks),
                        "all_ok": point_ok})
    return {"command": "verify-relations", "results": results,
            "skipped": skipped, "ok": ok}, ok


def cmd_adjointness(args):
    results, skipped = [], []
    ok = True
    dual_records = []
    for params, _ in _param_grid(args, skipped, min_n=3):
        n = params.n
        for lam in _lambda_values(args.lam, n):
            if abs(lam) == n:
                continue
            primal = weightmod.adjointness_record(n, lam, params)
            dual = specht.dual_adjointness_check(n, lam, params)
            dual_records.append(dual)
            point_ok = (primal["four_way_agree"]
                        and primal["matches_expected"]
                        and primal["spans_agree"]
                        and primal["quotient_scalars_match"]
                        and primal["decorated_residual_ok"]
                        and (primal["surjective"] or primal["codim"] == 1)
                        and dual["dual_tests_agree"])
            ok = ok and point_ok
            results.append({"primal": primal, "dual": dual,
                            "all_ok": point_ok})
    rule, tallies = specht.resolve_dual_criterion(dual_records) \
        if dual_records else (None, {})
    summary = {
        "points": len(results),
        "primal_verdict_equals_n2_neq_m": all(
            r["primal"]["matches_expected"] for r in results),
        "dual_consistent_rule": rule,
        "dual_rule_tallies": tallies,
    }
    if dual_records:
        ok = ok and rule is not None
    return {"command": "adjointness", "results": results,
            "skipped": skipped, "summary": summary, "ok": ok}, ok


def cmd_localize(args):
    results, skipped = [], []
    ok = True
    for params, ctx in _param_grid(args, skipped, min_n=2):
        n = params.n
        for lam in _lambda_values(args.lam, n):
            if abs(lam) == n:
                module = weightmod.weight_module(n, lam, ctx)
                loc = weightmod.localize(module)
                point_ok = loc.dim_e == 0
                rec = {"n": n, "l": params.l, "m": params.m, "lambda": lam,
                       "dim_e": loc.dim_e, "localizes_to_zero": point_ok,
                       "ok": point_ok}
            elif n < 3:
                _skip(skipped, {"l": params.l, "m": params.m, "n": n,
                                "lambda": lam}, "n_below_min",
                      "an interior lambda needs n >= 3")
                continue
            else:
                res = weightmod.underline_map(n, lam, ctx)
                point_ok = res.ok
                rec = dict(res.to_record(), l=params.l, m=params.m)
            ok = ok and point_ok
            results.append(rec)
    return {"command": "localize", "results": results,
            "skipped": skipped, "ok": ok}, ok


def cmd_restrict(args):
    results, skipped = [], []
    ok = True
    for params, ctx in _param_grid(args, skipped):
        n = params.n
        for lam in _lambda_values(args.lam, n):
            rec = {"n": n, "l": params.l, "m": params.m, "lambda": lam}
            point_ok = True
            central = towers.verify_central_z(n, lam, ctx)
            rec["central"] = central.to_record()
            point_ok = point_ok and central.ok
            if abs(lam) != n:
                seq = towers.restriction_sequence(n, lam, ctx)
                rec["restriction"] = seq.to_record()
                point_ok = point_ok and seq.ok
                if n >= 3:
                    split = towers.splitting_check(n, lam, ctx)
                    rec["splitting"] = split.to_record(params)
                    if not split.wall:
                        point_ok = point_ok and split.split is True
            rec["ok"] = point_ok
            ok = ok and point_ok
            results.append(rec)
    return {"command": "restrict", "results": results,
            "skipped": skipped, "ok": ok}, ok


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
              "checks": _checks_to_records(checks),
              "ok": ok}
    return report, ok


def cmd_duality(args):
    results, skipped = [], []
    ok = True
    for params, ctx in _param_grid(args, skipped):
        n = params.n
        for n1 in range(0, n + 1):
            n2 = n - n1
            checks = specht.verify_phi_intertwines(n1, n2, ctx)
            checks += specht.verify_S_prime_relations(n1, n2, ctx)
            checks += specht.verify_gi_quadratic_on_bitableaux(
                specht.col_shape(n1, n2), ctx)
            checks += specht.xi_word_eigenvalue_checks(n1, n2, ctx)
            checks += specht.xi_bitableau_eigenvalue_checks(n1, n2, ctx)
            checks += specht.verify_dualize_properties(n1, n2, ctx)
            point_ok = all(c.ok for c in checks)
            ok = ok and point_ok
            results.append({"n": n, "l": params.l, "m": params.m,
                            "n1": n1, "n2": n2,
                            "checks": _checks_to_records(checks),
                            "all_ok": point_ok})
    return {"command": "duality", "results": results,
            "skipped": skipped, "ok": ok}, ok


def cmd_smallcase(args):
    results, skipped = [], []
    ok = True
    for l in sorted(args.l):
        for m in sorted(args.m):
            params = BlobParams(2, l, m)
            code = check_params(params)
            if code is not None:
                _skip(skipped, {"l": l, "m": m}, code)
                continue
            ctx = context(params)
            checks, computed, golden = towers.verify_smallcase_matrices(ctx)
            field = ctx.field
            point_ok = all(c.ok for c in checks)
            ok = ok and point_ok
            results.append({
                "l": l, "m": m,
                "checks": _checks_to_records(checks),
                "computed": {k: _matrix_json(v, ["12", "21"], field)
                             for k, v in sorted(computed.items())},
                "golden": {k: _matrix_json(v, ["12", "21"], field)
                           for k, v in sorted(golden.items())},
                "all_ok": point_ok})
    return {"command": "smallcase", "results": results,
            "skipped": skipped, "ok": ok}, ok


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_common(sub, lam=False, needs_n=True):
    if needs_n:
        sub.add_argument("--n", type=_parse_range, default=[4],
                         help="n or range like 2..6")
    if lam:
        sub.add_argument("--lambda", dest="lam", default="all",
                         help="a single weight or 'all'")
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
    for name, fn, lam in (
            ("verify-relations", cmd_verify_relations, False),
            ("adjointness", cmd_adjointness, True),
            ("localize", cmd_localize, True),
            ("restrict", cmd_restrict, True),
            ("duality", cmd_duality, False),
            ("smallcase", cmd_smallcase, False)):
        sub = subs.add_parser(name)
        _add_common(sub, lam=lam, needs_n=name != "smallcase")
        sub.set_defaults(fn=fn)
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
        report, ok = args.fn(args)
    except ParameterError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    # a request that names parameters but yields neither a result nor a
    # skip record checked nothing; an empty --l or --m list asks for nothing
    if isinstance(report, dict) and "results" in report and args.l \
            and args.m and not report["results"] and not report["skipped"]:
        print("no grid point produced a result", file=sys.stderr)
        report["ok"] = ok = False
    _emit(args, report)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
