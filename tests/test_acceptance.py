"""Acceptance suite: one test per criterion, one printed line each.

Every check is an exact equality of canonical forms; there are no
tolerances anywhere.  Grids follow the stated ranges; `pytest -s` shows the
PASS/FAIL lines as they complete.
"""

import json
import os
import subprocess
import sys
from math import comb

import pytest

from blobtensor import blob, specht, towers, weightmod
from blobtensor.scalars import BlobParams, context, residues_equal
from blobtensor.weightmod import WeightLabel, lambda_range

RELATION_PARAMS = [(0, 2), (5, 2), (5, 3), (7, 2), (7, 3)]
CYCLOTOMIC_GRID = [(l, m) for l in (3, 5, 7) for m in range(2, l)]


def _report(num, description, ok):
    print(f"ACCEPTANCE {num:>2} {'PASS' if ok else 'FAIL'}: {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_relation_suite():
    failures = []
    for l, m in RELATION_PARAMS:
        for n in range(2, 7):
            ctx = context(BlobParams(n, l, m))
            checks = blob.verify_relation_suite(n, ctx)
            failures += [(n, l, m, c.name) for c in checks if not c.ok]
    _report(1, "relation suite exact on every basis word, n=2..6, "
               "generic and (l,m) in {(5,2),(5,3),(7,2),(7,3)}",
            not failures)


def test_criterion_02_localization():
    failures = []
    for l, m in ((0, 2), (5, 2)):
        for n in range(3, 9):
            ctx = context(BlobParams(n, l, m))
            for lam in lambda_range(n):
                if abs(lam) == n:
                    loc = weightmod.localize(
                        weightmod.weight_module(n, lam, ctx))
                    if loc.dim_e != 0:
                        failures.append((n, lam, l, "extreme_not_zero"))
                    continue
                res = weightmod.underline_map(n, lam, ctx)
                a = WeightLabel(n, lam).a
                if not (res.ok and res.dim_e == comb(n - 2, a - 1)):
                    failures.append((n, lam, l, res.to_record()))
    _report(2, "underline map bijective + intertwining for n=3..8, "
               "dim eM = C(n-2, a-1), F M(+-n) = 0", not failures)


def _adjointness_grid():
    records = []
    for n in range(3, 9):
        for l, m in CYCLOTOMIC_GRID:
            params = BlobParams(n, l, m)
            for lam in lambda_range(n)[1:-1]:
                records.append(weightmod.adjointness_record(n, lam, params))
    return records


ADJOINTNESS_RECORDS = []


def test_criterion_03_adjointness_grid():
    ADJOINTNESS_RECORDS.extend(_adjointness_grid())
    bad = [r for r in ADJOINTNESS_RECORDS
           if not (r["four_way_agree"] and r["matches_expected"]
                   and r["spans_agree"])]
    bad += [r for r in ADJOINTNESS_RECORDS
            if not r["surjective"] and r["codim"] != 1]
    _report(3, f"four equivalent adjointness tests match (n2 != m mod l) "
               f"on {len(ADJOINTNESS_RECORDS)} grid points, "
               f"failing codimension always 1", not bad)


def test_criterion_04_quotient_scalars():
    records = ADJOINTNESS_RECORDS or _adjointness_grid()
    bad = [r for r in records if not r["quotient_scalars_match"]]
    # spot-verify the closed forms directly on a sample
    for n, lam, l, m in ((4, 0, 3, 2), (5, 1, 5, 2), (6, -2, 7, 3)):
        ctx = context(BlobParams(n, l, m))
        rec = weightmod.quotient_scalar_record(n, lam, ctx)
        lab = WeightLabel(n, lam)
        if not (rec.ok and rec.computed_v == ctx.lam1 * ctx.q_pow(-2 * lab.n2)
                and rec.computed_w == ctx.lam2):
            bad.append((n, lam, l, m))
    _report(4, "straightening reductions of X on 1^n1 2^n2 and 2^n2 1^n1 "
               "equal lam1 q^(-2 n2) and lam2 exactly", not bad)


def test_criterion_05_smallcase_goldens():
    grid = [(0, 2), (0, 3), (0, -2), (3, 2), (5, 2), (5, 3), (5, 4),
            (7, 2), (7, 3), (7, 4), (7, 5), (7, 6), (9, 2)]
    failures = []
    for l, m in grid:
        checks, computed, golden = towers.verify_smallcase_matrices(
            context(BlobParams(2, l, m)))
        failures += [(l, m, c.name) for c in checks if not c.ok]
        for name in ("U1", "X", "U0"):
            if not all(a == b for a, b in zip(
                    map(dict, computed[name]), map(dict, golden[name]))):
                failures.append((l, m, name))
    _report(5, "M_2(0) matrices match the golden forms bit-exactly and the "
               "U0-underline coefficient is nonzero for all valid (l, m)",
            not failures)


def test_criterion_06_pascal_triangle():
    table = towers.x_multiplicity_table(10)
    ok = (table[1] == [1, 0] and table[2] == [1, 1, 0]
          and table[3] == [1, 2, 1, 0] and table[4] == [1, 3, 3, 1, 0])
    for n in range(1, 11):
        for j, lam in enumerate(lambda_range(n)):
            ok = ok and table[n][j] == comb(n - 1, (lam + n) // 2)
    ok = ok and all(c.ok for c in towers.verify_triangle(10))
    for n in range(2, 9):
        ctx = context(BlobParams(n, 0, 2))
        for lam in lambda_range(n):
            ok = ok and all(
                c.ok for c in towers.verify_x_triangular(n, lam, ctx))
    _report(6, "triangle rows match the printed values, C(n-1, a) and the "
               "Pascal recursion to n=10; X triangular for n <= 8", ok)


def test_criterion_07_duality():
    failures = []
    for n in range(2, 8):
        for l, m in ((0, 2), (5, 2)):
            ctx = context(BlobParams(n, l, m))
            for n1 in range(n + 1):
                n2 = n - n1
                checks = specht.verify_phi_intertwines(n1, n2, ctx)
                checks += specht.verify_S_prime_relations(n1, n2, ctx)
                checks += specht.xi_word_eigenvalue_checks(n1, n2, ctx)
                checks += specht.xi_bitableau_eigenvalue_checks(n1, n2, ctx)
                failures += [(n, l, m, n1, c.name)
                             for c in checks if not c.ok]
    _report(7, "phi intertwines every g_i for all two-column shapes n <= 7; "
               "transported X satisfies its quadratic; X_i eigenvalues "
               "match both displays", not failures)


def test_criterion_08_restriction_splitting():
    failures = []
    # generic spot batch: z scalar, centrality, restriction identifications
    for n in range(3, 7):
        ctx = context(BlobParams(n, 0, 2))
        for lam in lambda_range(n):
            if not towers.verify_central_z(n, lam, ctx).ok:
                failures.append((n, lam, 0, 2, "central_generic"))
            if abs(lam) != n and \
                    not towers.restriction_sequence(n, lam, ctx).ok:
                failures.append((n, lam, 0, 2, "restriction_generic"))
    grid = [(3, 2), (5, 2), (5, 3), (7, 2), (7, 3)]
    for n in range(3, 9):
        for l, m in grid:
            ctx = context(BlobParams(n, l, m))
            for lam in lambda_range(n):
                central = towers.verify_central_z(n, lam, ctx)
                if not central.ok:
                    failures.append((n, lam, l, m, "central"))
                if abs(lam) == n:
                    continue
                seq = towers.restriction_sequence(n, lam, ctx)
                if not seq.ok:
                    failures.append((n, lam, l, m, "restriction"))
                split = towers.splitting_check(n, lam, ctx)
                wall = residues_equal(lam, -m, l)
                if split.wall != wall:
                    failures.append((n, lam, l, m, "wall_flag"))
                if not wall:
                    lab = WeightLabel(n, lam)
                    expected = (comb(n - 1, lab.a - 1), comb(n - 1, lab.a))
                    if split.split is not True or \
                            split.eig_dims != expected:
                        failures.append((n, lam, l, m, "split"))
    _report(8, "restriction identifications, central scalar, and splitting "
               "with binomial eigenspace dimensions for n=3..8 "
               "(wall cases report coinciding scalars)", not failures)


def test_criterion_09_sign_resolution():
    records = []
    for n in range(3, 9):
        for l, m in CYCLOTOMIC_GRID:
            params = BlobParams(n, l, m)
            for lam in lambda_range(n)[1:-1]:
                rec = specht.dual_adjointness_check(n, lam, params)
                records.append(rec)
    agree = all(r["dual_tests_agree"] for r in records)
    rule, tallies = specht.resolve_dual_criterion(records)
    # the resolution must be a single negated-form rule across the grid;
    # mixed outcomes (no consistent rule) fail
    negated_forms = ("iso_iff_n1_neq_m", "iso_iff_n1_neq_minus_m")
    ok = agree and rule in negated_forms
    _report(9, f"dual adjointness verdicts consistent on {len(records)} "
               f"points; resolved criterion: {rule} "
               f"(tallies: {tallies})", ok)


def test_criterion_10_determinism(tmp_path):
    args = [sys.executable, "-m", "blobtensor.cli", "adjointness",
            "--n", "3..5", "--l", "3,5", "--m", "2,3,4"]
    outputs = []
    for seed in ("0", "31337"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert proc.returncode == 0
        outputs.append(proc.stdout)
    same = outputs[0] == outputs[1]
    args = [sys.executable, "-m", "blobtensor.cli", "triangle", "--n", "8"]
    t1 = subprocess.run(args, capture_output=True, text=True).stdout
    t2 = subprocess.run(args, capture_output=True, text=True).stdout
    _report(10, "full-report reruns are byte-identical",
            same and t1 == t2)
