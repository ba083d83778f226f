"""The relation table and its block evaluator: an independent oracle for
the T_i rule, and bad representations that the evaluator must reject."""

import pytest

from blobtensor import specht
from blobtensor.relations import ariki_koike_relations, evaluate
from blobtensor.scalars import BlobParams, context
from blobtensor.tensor import (LinOp, all_words, op_T_ctx, op_X_ctx,
                               weight_words)
from blobtensor.weightmod import lambda_range, weight_basis

LOCAL = ("11", "12", "21", "22")


def _r_matrix(ctx):
    """The local 4x4 R-matrix on v_a (x) v_b, rows and columns in LOCAL
    order, columns are images; None is a zero entry."""
    q, one, qmq = ctx.q, ctx.one, ctx.q - ctx.qinv
    return [[q, None, None, None],
            [None, qmq, one, None],
            [None, one, None, None],
            [None, None, None, q]]


@pytest.mark.parametrize("l", [0, 5])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_T_is_identity_tensor_R_tensor_identity(n, l):
    # assembled from the R-matrix alone, without the operator's word rule
    ctx = context(BlobParams(n, l, 2))
    r = _r_matrix(ctx)
    for i in range(2, n + 1):
        for ones in range(n + 1):
            basis = weight_words(n, ones)
            index = {w: k for k, w in enumerate(basis)}
            oracle = []
            for w in basis:
                col = LOCAL.index(w[i - 2:i])
                oracle.append({index[w[:i - 2] + LOCAL[row] + w[i:]]:
                               r[row][col]
                               for row in range(4) if r[row][col] is not None})
            assert op_T_ctx(i, n, ctx).matrix(basis) == oracle, (i, ones)


def _bad_T3(n, ctx):
    """T3 with (q - q^-1) + 1 in place of q - q^-1 on '12'."""
    good = op_T_ctx(3, n, ctx)

    def rule(w):
        out = dict(good.apply_word(w))
        if w[1:3] == "12":
            out[w] = out[w] + ctx.one
        return out

    return LinOp(n, ctx, rule, name="T3")


def _apply(ops, w):
    """ops[0] ... ops[-1] applied to the basis word w, one word at a time."""
    v = ops[-1](w)
    for op in reversed(ops[:-1]):
        v = op(v)
    return v


def _blocks(n, ops):
    """(basis, matrices) for each weight block of V^(x)n: the matrix of every
    LinOp in `ops` on the block's basis, keyed by its name."""
    for lam in lambda_range(n):
        basis = weight_basis(n, lam)
        yield basis, {op.name: op.matrix(basis) for op in ops}


def _first_difference(lhs, rhs, n):
    for w in all_words(n):
        a, b = lhs(w), rhs(w)
        if {u: c for u, c in a.items() if not c.is_zero()} != \
                {u: c for u, c in b.items() if not c.is_zero()}:
            return w
    return None


def test_wrong_T_coefficient_fails_with_first_word():
    n = 4
    ctx = context(BlobParams(n, 0, 2))
    T2, T4, X = op_T_ctx(2, n, ctx), op_T_ctx(4, n, ctx), op_X_ctx(n, ctx)
    T3 = _bad_T3(n, ctx)
    rels = ariki_koike_relations(["T2", "T3", "T4"], ctx, identity=False)
    checks = {c.name: c for c in evaluate(
        rels, _blocks(n, [T2, T3, T4, X]), ctx.one)}
    for name in ("quadratic(T3)", "braid(T2,T3)", "braid(T3,T4)"):
        assert not checks[name].ok, name
    for name in ("quadratic(T2)", "quadratic(T4)", "commute(T2,T4)",
                 "mixed_braid(T2,X)", "commute(X,T4)", "quadratic(X)"):
        assert checks[name].ok, name

    def quadratic(w):
        # (T3 - q)(T3 + q^-1) w = T3 T3 w + (q^-1 - q) T3 w - w
        out = _apply([T3, T3], w)
        for u, c in T3(w).items():
            out[u] = out.get(u, ctx.zero) + (ctx.qinv - ctx.q) * c
        out[w] = out.get(w, ctx.zero) - ctx.one
        return out

    def zero(w):
        return {}

    expected = {
        "quadratic(T3)": _first_difference(quadratic, zero, n),
        "braid(T2,T3)": _first_difference(
            lambda w: _apply([T2, T3, T2], w),
            lambda w: _apply([T3, T2, T3], w), n),
        "braid(T3,T4)": _first_difference(
            lambda w: _apply([T3, T4, T3], w),
            lambda w: _apply([T4, T3, T4], w), n),
    }
    for name, word in expected.items():
        assert word is not None
        assert checks[name].first_failure == word, name


def test_perturbed_S_prime_X_fails_quadratic(monkeypatch):
    ctx = context(BlobParams(4, 0, 2))
    assert all(c.ok for c in specht.verify_S_prime_relations(2, 2, ctx))
    build = specht.build_S_prime

    def perturbed(n1, n2, ctx):
        # a copy: the built representation is cached
        rep = build(n1, n2, ctx)
        x = [dict(col) for col in rep.x]
        x[3][3] = x[3][3] + ctx.one
        return specht.MatrixRep(rep.labels, x, rep.g, ctx)

    monkeypatch.setattr(specht, "build_S_prime", perturbed)
    checks = {c.name: c
              for c in specht.verify_S_prime_relations(2, 2, ctx)}
    assert not checks["S':quadratic(X)"].ok
    # the failure keeps its witness, the column of the perturbed entry
    assert checks["S':quadratic(X)"].first_failure == 3
    assert checks["S':quadratic(X)"].to_record()["first_failure"] == 3
    braids = [name for name in checks if name.startswith("S':braid(g")]
    assert braids and all(checks[name].ok for name in braids)


def test_perturbed_S_prime_g1_names_its_column(monkeypatch):
    ctx = context(BlobParams(4, 0, 2))
    build = specht.build_S_prime

    def perturbed(n1, n2, ctx):
        rep = build(n1, n2, ctx)
        g1 = [dict(col) for col in rep.g[1]]
        g1[0][0] = g1[0].get(0, ctx.zero) + ctx.one
        return specht.MatrixRep(rep.labels, rep.x, {**rep.g, 1: g1}, ctx)

    monkeypatch.setattr(specht, "build_S_prime", perturbed)
    checks = specht.verify_phi_intertwines(2, 2, ctx)
    assert [(c.name, c.ok, c.first_failure) for c in checks] == [
        ("phi_intertwines(g1)", False, 0),
        ("phi_intertwines(g2)", True, None),
        ("phi_intertwines(g3)", True, None),
        ("phi_bijective", True, None)]


def test_phi_bijective_names_count_and_dim(monkeypatch):
    # one standard bitableau short: the failure carries (count, dim)
    ctx = context(BlobParams(4, 0, 2))
    specht.build_S_prime(2, 2, ctx)
    real = specht.standard_bitableaux
    monkeypatch.setattr(specht, "standard_bitableaux",
                        lambda shape: real(shape)[:-1])
    check = specht.verify_phi_intertwines(2, 2, ctx)[-1]
    assert (check.name, check.ok, check.first_failure) == \
        ("phi_bijective", False, (5, 6))


def test_operator_leaving_its_weight_is_an_arithmetic_error():
    n = 3
    ctx = context(BlobParams(n, 0, 2))
    leaky = LinOp(n, ctx, lambda w: {"1" * n: ctx.one}, name="X")
    rels = ariki_koike_relations([], ctx)
    with pytest.raises(ArithmeticError, match="X leaves the basis span"):
        evaluate(rels, _blocks(n, [leaky]), ctx.one)
