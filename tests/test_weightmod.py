"""Weight modules, localization, and the adjointness criteria."""

import json
from functools import lru_cache
from math import comb

import pytest

from blobtensor import specht, towers, weightmod
from blobtensor.blob import dualize
from blobtensor.cli import main
from blobtensor.linalg import (SpanSolver, mat_is_zero, mat_mul,
                               mat_transpose, vec_scale, vec_sub)
from blobtensor.relations import RelationCheck
from blobtensor.scalars import BlobParams, context, residues_equal
from blobtensor.tensor import LinOp, all_words, op_T_ctx, op_X_ctx
from blobtensor.weightmod import (WeightLabel, _adjointness_injective,
                                  _adjointness_surjective,
                                  _decorated_combination, _e_matrix,
                                  adjointness_record, decorated_vect,
                                  lambda_range, localized_dim,
                                  quotient_scalar_record,
                                  special_element_scalar, straighten_word,
                                  underline_map, weight_basis, weight_module)

P3 = BlobParams(3, 0, 2)
C3 = context(P3)


def test_weight_label():
    lab = WeightLabel(4, 0)
    assert (lab.a, lab.n1, lab.n2, lab.dim) == (2, 2, 2, 6)
    with pytest.raises(ValueError):
        WeightLabel(4, 1)
    with pytest.raises(ValueError):
        WeightLabel(4, 6)
    assert lambda_range(3) == [-3, -1, 1, 3]


def test_weight_basis_order():
    assert weight_basis(3, 1) == ["211", "112", "121"]
    assert weight_basis(3, 3) == ["111"]
    assert len(weight_basis(4, 0)) == 6
    basis = weight_basis(5, 1)
    b2 = [w for w in basis if w[0] == "2"]
    assert basis[: len(b2)] == sorted(b2)
    assert basis[len(b2):] == sorted(w for w in basis if w[0] == "1")


def test_weight_basis_dimensions():
    for n in range(1, 13):
        for lam in lambda_range(n):
            assert len(weight_basis(n, lam)) == comb(n, (lam + n) // 2)


def test_module_matrices_match_generators():
    # oracle: the lazy operators word by word, shifted by hand
    module = weight_module(3, 1, C3)
    ops = [(op_X_ctx(3, C3), C3.lam1), (op_T_ctx(2, 3, C3), C3.q),
           (op_T_ctx(3, 3, C3), C3.q)]
    for i, (op, shift) in enumerate(ops):
        stored = module.x if i == 0 else module.g[i]
        for j, w in enumerate(module.basis):
            assert module.words(stored[j]) == op(w)
            assert module.words(module.U[i][j]) == \
                vec_sub(op(w), {w: shift})


def test_dual_generators_are_transposes():
    # dual_adjointness_check takes the transposed U_i as the dual's
    # generators, since (g - c)^T = g^T - c
    for n, lam, l in ((3, 1, 0), (4, 0, 0), (5, -1, 0), (4, -2, 5),
                      (5, 1, 7), (6, 0, 5)):
        module = weight_module(n, lam, context(BlobParams(n, l, 2)))
        dual = dualize(module)
        assert len(dual.U) == len(module.U) == n
        for u, du in zip(module.U, dual.U):
            assert du == mat_transpose(u, module.dim)


# ---------------------------------------------------------------------------
# the block operator tables against a word-rule reference
# ---------------------------------------------------------------------------

TABLE_PARAMS = [BlobParams(2, 0, 2), BlobParams(2, 5, 2), BlobParams(2, 7, 3)]


def _ref_rules(ctx):
    """The defining rules on words, stated here from the conventions and
    not taken from the package: T_i, T_i^-1, S_i on letters (i-1, i), and
    varpi."""
    q, qinv, one = ctx.q, ctx.qinv, ctx.one
    d = q - qinv

    def local(i, equal, rise, fall):
        def rule(w):
            a, b = w[i - 2], w[i - 1]
            if a == b:
                return {w: equal}
            swapped = w[:i - 2] + b + a + w[i:]
            out = {swapped: one}
            extra = rise if a == "1" else fall
            if extra is not None:
                out[w] = extra
            return out
        return rule

    return {"T": lambda i: local(i, q, d, None),
            "T_inv": lambda i: local(i, qinv, None, -d),
            "S": lambda i: local(i, q, None, None),
            "varpi": lambda w: {w: ctx.lam1 if w[0] == "1" else ctx.lam2}}


def _ref_apply(rule, vec):
    out = {}
    for w, c in vec.items():
        for u, d in rule(w).items():
            out[u] = out[u] + c * d if u in out else c * d
    return {u: c for u, c in out.items() if not c.is_zero()}


def _ref_minus(image, c):
    """The rule w -> image(w) - c w."""
    def rule(w):
        out = dict(image(w))
        out[w] = out[w] - c if w in out else -c
        return {u: x for u, x in out.items() if not x.is_zero()}
    return rule


def _ref_matrix(basis, rule):
    index = {w: i for i, w in enumerate(basis)}
    return [{index[u]: c for u, c in rule(w).items()} for w in basis]


def _ref_theta_varpi(n, rules, one):
    """theta varpi = S_n ... S_2 varpi on one word, rule by rule."""
    def rule(w):
        vec = _ref_apply(rules["varpi"], {w: one})
        for i in range(2, n + 1):
            vec = _ref_apply(rules["S"](i), vec)
        return vec
    return rule


def _ref_x(n, rules, one):
    """X = T_2^-1 ... T_n^-1 S_n ... S_2 varpi on one word, rule by rule."""
    theta_varpi = _ref_theta_varpi(n, rules, one)

    def rule(w):
        vec = theta_varpi(w)
        for i in range(n, 1, -1):
            vec = _ref_apply(rules["T_inv"](i), vec)
        return vec
    return rule


def _ref_block(n, basis, ctx, rules):
    """Every matrix that module_blocks names, from the word rules."""
    x = _ref_x(n, rules, ctx.one)
    named = {"X": x, "U0": _ref_minus(x, ctx.lam1), "varpi": rules["varpi"],
             "theta*varpi": _ref_theta_varpi(n, rules, ctx.one)}
    for i in range(2, n + 1):
        named[f"T{i}"] = rules["T"](i)
        named[f"T{i}^-1"] = rules["T_inv"](i)
        named[f"S{i}"] = rules["S"](i)
        named[f"U{i - 1}"] = _ref_minus(rules["T"](i), ctx.q)
    return {name: _ref_matrix(basis, rule) for name, rule in named.items()}


@pytest.mark.parametrize("params", TABLE_PARAMS, ids=["generic", "l5", "l7"])
def test_block_tables_match_the_word_rules(params):
    # every matrix of every relation block, and g of every module, for n <= 6
    ctx = context(params)
    rules = _ref_rules(ctx)
    for n in range(1, 7):
        blocks = list(weightmod.module_blocks(n, ctx))
        assert len(blocks) == len(lambda_range(n))
        for lam, (basis, mats) in zip(lambda_range(n), blocks):
            ops = weightmod.block_operators(n, lam, ctx.field, ctx.q)
            module = weight_module(n, lam, ctx)
            assert ops.basis == module.basis == basis == weight_basis(n, lam)
            ref = _ref_block(n, basis, ctx, rules)
            assert mats.keys() == ref.keys(), (n, lam)
            for name, mat in mats.items():
                assert mat == ref[name], (name, n, lam)
            assert module.g == {i - 1: ops.T[i] for i in range(2, n + 1)}


def _fresh_tables(monkeypatch):
    """Fresh table and module caches for the whole package; returns the list
    that every table built from now on is appended to."""
    tables = []

    def table(*key):
        tables.append(weightmod.BlockOperators(*key))
        return tables[-1]

    monkeypatch.setattr(weightmod, "block_operators",
                        lru_cache(maxsize=None)(table))
    module = lru_cache(maxsize=None)(weightmod.WeightModule)
    for home in (weightmod, towers, specht):
        monkeypatch.setattr(home, "weight_module", module)
    return tables


def test_only_the_relation_suites_keep_the_extra_matrices(monkeypatch,
                                                          tmp_path):
    # T^-1, S and theta stay off the tables of the adjointness and restrict
    # points: keeping T^-1 there raised the peak memory of restrict
    extra = {"T_inv", "S", "theta"}
    out = str(tmp_path / "report.json")
    for argv in (["adjointness", "--n", "6", "--lambda", "0"],
                 ["restrict", "--n", "6", "--lambda", "all"]):
        tables = _fresh_tables(monkeypatch)
        assert main([*argv, "--l", "5", "--m", "2", "--out", out]) == 0
        assert tables and all(extra.isdisjoint(vars(t)) for t in tables), \
            argv
    tables = _fresh_tables(monkeypatch)
    assert main(["verify-relations", "--n", "4", "--l", "5", "--m", "2",
                 "--out", out]) == 0
    assert len(tables) == len(lambda_range(4))
    assert all(extra <= vars(t).keys() for t in tables)


def test_swapped_context_shares_the_table():
    # g and U_1 .. are the table's own objects in both contexts; X differs
    # only by varpi, column by column
    ctx = context(BlobParams(5, 5, 2))
    sctx = ctx.swapped()
    for lam in (-1, 1, 3):
        a, b = weight_module(5, lam, ctx), weight_module(5, lam, sctx)
        assert a is not b and a.g.keys() == b.g.keys()
        assert all(a.g[i] is b.g[i] for i in a.g)
        assert all(u is v for u, v in zip(a.U[1:], b.U[1:]))
        assert a.x != b.x and a.U[0] != b.U[0]
        for w, xa, xb in zip(a.basis, a.x, b.x):
            la, lb = (ctx.lam1, sctx.lam1) if w[0] == "1" else \
                (ctx.lam2, sctx.lam2)
            assert {i: c / la for i, c in xa.items()} == \
                {i: c / lb for i, c in xb.items()}, w


def test_each_field_gets_its_own_table():
    # one (n, lam) on three fields in one process: the cache key holds the
    # field and q, so no field is handed another's matrices
    n, lam = 4, 0
    tables = []
    for params in TABLE_PARAMS:
        ctx = context(params)
        ops = weightmod.block_operators(n, lam, ctx.field, ctx.q)
        rules = _ref_rules(ctx)
        basis = weight_basis(n, lam)
        for i in range(2, n + 1):
            assert ops.T[i] == _ref_matrix(basis, rules["T"](i))
            assert ops.T_inv[i] == _ref_matrix(basis, rules["T_inv"](i))
        x = _ref_matrix(basis, _ref_x(n, rules, ctx.one))
        assert weight_module(n, lam, ctx).x == x
        tables.append(ops)
    assert len({id(t) for t in tables}) == len(tables)


def test_idempotent():
    module = weight_module(3, 1, C3)
    em = _e_matrix(module.U, C3)
    two = C3.q + C3.qinv
    col = em[module.index["112"]]
    assert module.words(col) == {"112": two.inv() * C3.qinv,
                                 "121": -two.inv()}
    assert mat_is_zero(_e_matrix(weight_module(3, 3, C3).U, C3))
    assert mat_mul(em, em) == em


def test_localize_small_cases():
    # on M_3(+-1) the image of e is the line of the underline vector
    for lam, target in ((1, {"112": C3.one, "121": -C3.q}),
                        (-1, {"212": C3.one, "221": -C3.q})):
        module = weight_module(3, lam, C3)
        assert localized_dim(module) == 1
        solver = SpanSolver()
        solver.insert(module.coords(target))
        assert all(solver.contains(col) for col in _e_matrix(module.U, C3))


def test_localize_extremes_vanish():
    for n in (2, 3, 4, 5):
        for lam in (n, -n):
            assert localized_dim(weight_module(n, lam, C3)) == 0
    # at n = 1 there is no U_{n-1} besides the blob generator U_0
    with pytest.raises(ValueError):
        localized_dim(weight_module(1, -1, C3))


def test_localize_extremes_fail_on_a_nonzero_U(monkeypatch, tmp_path):
    # raise g_{n-1} from q to q + 1 on the constant words, the bases of
    # M_n(+-n): then U_{n-1} = 1 there, e != 0 and the point must fail
    real = weightmod.op_T_ctx

    def op_T(i, n, ctx):
        op = real(i, n, ctx)
        if i != n:
            return op
        return LinOp(n, ctx, lambda w: {w: ctx.q + ctx.one}
                     if len(set(w)) == 1 else op.apply_word(w),
                     name=op.name)

    monkeypatch.setattr(weightmod, "op_T_ctx", op_T)
    monkeypatch.setattr(weightmod, "block_operators",
                        lru_cache(maxsize=None)(weightmod.BlockOperators))
    monkeypatch.setattr(weightmod, "weight_module",
                        lru_cache(maxsize=None)(weightmod.WeightModule))
    for lam in (3, -3):
        assert localized_dim(weightmod.weight_module(3, lam, C3)) == 1
    out = tmp_path / "localize.json"
    assert main(["localize", "--n", "3", "--l", "0", "--m", "2", "--out",
                 str(out)]) == 1
    results = json.loads(out.read_text())["results"]
    extremes = [r for r in results if abs(r["lambda"]) == 3]
    assert [(r["dim_e"], r["localizes_to_zero"], r["ok"])
            for r in extremes] == [(1, False, False)] * 2
    # the interior weights have no constant word and still pass
    assert all(r["ok"] for r in results if abs(r["lambda"]) < 3)


def test_underline_map_explicit_image():
    # T3 T2 (112 - q 121) = q 121 - q^2 211
    T2, T3 = op_T_ctx(2, 3, C3), op_T_ctx(3, 3, C3)
    v = T3(T2({"112": C3.one, "121": -C3.q}))
    assert v == {"121": C3.q, "211": -(C3.q ** 2)}


@pytest.mark.parametrize("params", [BlobParams(3, 0, 2), BlobParams(3, 5, 2)])
def test_underline_map_grid(params):
    ctx = context(params)
    for n in range(3, 7):
        for lam in lambda_range(n)[1:-1]:
            res = underline_map(n, lam, ctx)
            assert res.ok, (n, lam, res.to_record())
            assert res.dim_e == comb(n - 2, WeightLabel(n, lam).a - 1)


def test_underline_map_rejects_extremes():
    with pytest.raises(ValueError):
        underline_map(3, 3, C3)
    with pytest.raises(ValueError):
        underline_map(2, 0, C3)


def test_straightening():
    assert straighten_word("21", C3) == C3.one
    assert straighten_word("12", C3) == C3.q
    # inversion-count closed form as the oracle
    for w in ("1122", "1212", "2112", "1221", "2121", "2211"):
        inv = sum(1 for i in range(len(w)) for j in range(i + 1, len(w))
                  if w[i] == "1" and w[j] == "2")
        assert straighten_word(w, C3) == C3.q ** inv


@pytest.mark.parametrize("l,m", [(0, 2), (0, 3), (5, 2), (7, 3)])
def test_quotient_scalars(l, m):
    ctx = context(BlobParams(3, l, m))
    for n in (3, 4, 5):
        for lam in lambda_range(n)[1:-1]:
            lab = WeightLabel(n, lam)
            rec = quotient_scalar_record(n, lam, ctx)
            sv, sw = rec.computed_v, rec.computed_w
            assert sv == ctx.lam1 * ctx.q_pow(-2 * lab.n2)
            assert sw == ctx.lam2
            assert rec.ok
            # the two scalars agree exactly when n2 = m mod l
            assert (sv == sw) == residues_equal(lab.n2, m, l)


def test_special_element_scalar():
    # generic: nonzero unless n2 = m exactly
    assert not special_element_scalar(5, 1,
                                      context(BlobParams(5, 0, 3))).is_zero()
    assert special_element_scalar(5, 1, C3).is_zero()
    # l = 5, m = 2: vanishes iff n2 = 2 mod 5
    c5 = context(BlobParams(5, 5, 2))
    assert not special_element_scalar(5, 3, c5).is_zero()
    assert special_element_scalar(5, 1, c5).is_zero()
    s = special_element_scalar(6, 2, c5)
    assert s.is_zero()  # n2 = 2


def test_adjointness_pass_point():
    rec = adjointness_record(3, 1, BlobParams(3, 5, 2))
    assert rec["surjective"] and rec["injective"]
    assert rec["four_way_agree"] and rec["matches_expected"]
    assert rec["spans_agree"] and rec["quotient_scalars_match"]


def test_adjointness_failing_point_codim_one():
    # l=3, m=2, n=4, lambda=0: n2 = 2 = m mod 3 -> fails with codimension 1
    rec = adjointness_record(4, 0, BlobParams(4, 3, 2))
    assert not rec["surjective"] and not rec["injective"]
    assert rec["codim"] == 1
    assert rec["four_way_agree"] and rec["matches_expected"]
    assert not rec["expected_residue_verdict"]


def test_adjointness_generic_diagonal():
    # generic backend: obstruction exactly at n2 = m
    rec = adjointness_record(4, 0, BlobParams(4, 0, 2))  # n2 = 2 = m
    assert not rec["surjective"] and rec["codim"] == 1
    assert rec["four_way_agree"] and rec["matches_expected"]
    rec = adjointness_record(4, 0, BlobParams(4, 0, 3))  # n2 = 2 != 3
    assert rec["surjective"]
    assert rec["four_way_agree"] and rec["matches_expected"]


def test_adjointness_family_size():
    # canonical family has exactly dim-many members
    ctx = context(BlobParams(4, 5, 2))
    for (n, lam) in ((4, 0), (5, 1), (5, -1)):
        res = _adjointness_injective(n, lam, ctx)
        assert res.family_size == WeightLabel(n, lam).dim


def test_adjointness_grid_four_way():
    for n in (3, 4, 5):
        for l in (3, 5):
            for m in range(2, l):
                params = BlobParams(n, l, m)
                for lam in lambda_range(n)[1:-1]:
                    rec = adjointness_record(n, lam, params)
                    assert rec["four_way_agree"], rec
                    assert rec["matches_expected"], rec
                    assert rec["spans_agree"], rec
                    if not rec["surjective"]:
                        assert rec["codim"] == 1, rec


def test_adjointness_composite_l():
    # l = 9: Phi_9 = x^6 + x^3 + 1, so reduction is not the all-ones case
    for n in (3, 4, 5):
        for m in (2, 3, 11):
            params = BlobParams(n, 9, m)
            for lam in lambda_range(n)[1:-1]:
                rec = adjointness_record(n, lam, params)
                assert rec["four_way_agree"] and rec["matches_expected"]
    rec = adjointness_record(5, 1, BlobParams(5, 9, 2))  # n2 = 2 = m
    assert not rec["surjective"] and rec["codim"] == 1


def test_adjointness_negative_m_matches_residue():
    for n in (3, 4):
        for lam in lambda_range(n)[1:-1]:
            r1 = adjointness_record(n, lam, BlobParams(n, 5, -3))
            r2 = adjointness_record(n, lam, BlobParams(n, 5, 2))
            assert r1["surjective"] == r2["surjective"]
            assert r1["four_way_agree"] and r1["matches_expected"]


def test_adjointness_rejects_bad_inputs():
    with pytest.raises(ValueError):
        _adjointness_surjective(2, 0, C3)
    with pytest.raises(ValueError):
        _adjointness_surjective(4, 4, C3)


# ---------------------------------------------------------------------------
# formal ("trivial") relations among the underline symbols
# ---------------------------------------------------------------------------

def verify_trivial_relations(n, lam, ctx):
    """The two systems of formal relations between shifted underline elements
    and the decorated elements, expanded to plain vectors in M_n(lam); each
    check names its first failing split of the word.  The underline vectors
    are read through the module, so a patched `weightmod.underline_vect`
    reaches them."""
    label = WeightLabel(n, lam)
    n1, n2 = label.n1, label.n2

    def tl_failures():
        for l1 in range(n - 3):
            for l2 in range(n - 3 - l1):
                l3 = n - 4 - l1 - l2
                for w1 in all_words(l1):
                    for w2 in all_words(l2):
                        for w3 in all_words(l3):
                            if (w1 + w2 + w3).count("1") != n1 - 2:
                                continue
                            lhs = vec_sub(
                                vec_scale(weightmod.underline_vect(w1 + "12" + w2, w3,
                                                         ctx), ctx.qinv),
                                weightmod.underline_vect(w1 + "21" + w2, w3, ctx))
                            rhs = vec_sub(
                                vec_scale(weightmod.underline_vect(w1, w2 + "12" + w3,
                                                         ctx), ctx.qinv),
                                weightmod.underline_vect(w1, w2 + "21" + w3, ctx))
                            if lhs != rhs:
                                yield w1 + "|" + w2 + "|" + w3

    def decorated_failures():
        for l1 in range(n - 3):
            l2 = n - 4 - l1
            for w1 in all_words(l1):
                for w2 in all_words(l2):
                    if (w1 + w2).count("1") != n1 - 2:
                        continue
                    lhs = vec_sub(
                        vec_scale(decorated_vect(w1 + "12" + w2, label, ctx),
                                  ctx.qinv),
                        decorated_vect(w1 + "21" + w2, label, ctx))
                    rhs = _decorated_combination(
                        weightmod.underline_vect("1" + w1, w2 + "2", ctx),
                        weightmod.underline_vect("2" + w1, w2 + "1", ctx), label, ctx)
                    if lhs != rhs:
                        yield w1 + "|" + w2

    checks = []
    for name, failures in (("shift_relation_tl", tl_failures),
                           ("shift_relation_decorated", decorated_failures)):
        bad = next(failures(), None) if n1 >= 2 and n2 >= 2 else None
        checks.append(RelationCheck(name, bad is None, bad))
    return checks


def test_trivial_relations():
    # every index choice, every weight, n <= 6
    for n in (4, 5, 6):
        for lam in lambda_range(n):
            checks = verify_trivial_relations(n, lam, C3)
            assert all(c.ok for c in checks), (n, lam)


def test_trivial_relations_name_first_failure(monkeypatch):
    # a stray term that breaks every shift relation: the first split of the
    # scan is named, w1 = w2 = '' and the first w3 with one letter 1
    real = weightmod.underline_vect

    def wrong(w1, w2, ctx):
        return {**real(w1, w2, ctx), "x" + w1: ctx.one}

    monkeypatch.setattr(weightmod, "underline_vect", wrong)
    tl, _ = verify_trivial_relations(6, 0, C3)
    assert (tl.ok, tl.first_failure) == (False, "||12")

