"""Tensor-space operators: defining rules, relations, triangularity."""

import doctest
import operator
from functools import lru_cache, reduce

import pytest

import blobtensor.tensor as tensor_module
from blobtensor import relations, weightmod
from blobtensor.blob import verify_blob_relations
from blobtensor.linalg import vec_sub
from blobtensor.relations import RelationCheck, ariki_koike_relations
from blobtensor.scalars import BlobParams, context
from blobtensor.tensor import (LinOp, all_words, certify_tables,
                               evaluate_on_support, op_S_ctx, op_T_ctx,
                               op_T_inv_ctx, op_theta_varpi_ctx, op_X_ctx,
                               ops_Xk_ctx, two_letter_table,
                               verify_ariki_koike, verify_blob_identity,
                               verify_partial_rotation_fixing,
                               weight_words)
from blobtensor.weightmod import module_blocks

C2 = context(BlobParams(2, 0, 2))
C3 = context(BlobParams(3, 0, 2))


def test_words():
    assert all_words(2) == ["11", "12", "21", "22"]
    assert weight_words(3, 2) == ["112", "121", "211"]


def test_weight_words_are_the_filtered_words():
    # the words with a given number of 1s, in the order of all_words
    for n in range(11):
        words = all_words(n)
        for ones in range(-1, n + 2):
            assert weight_words(n, ones) == \
                [w for w in words if w.count("1") == ones]


def test_op_T_rules():
    T2 = op_T_ctx(2, 2, C2)
    q = C2.q
    assert T2("11") == {"11": q}
    assert T2("22") == {"22": q}
    assert T2("21") == {"12": C2.one}
    assert T2("12") == {"21": C2.one, "12": C2.q_minus_qinv}


def test_op_T_inverse():
    Ti = op_T_inv_ctx(2, 2, C2)
    assert Ti("11") == {"11": C2.qinv}
    assert Ti("21") == {"12": C2.one, "21": -C2.q_minus_qinv}
    for n in range(2, 7):
        for i in range(2, n + 1):
            comp = op_T_inv_ctx(i, n, C2) @ op_T_ctx(i, n, C2)
            assert all(comp.apply_word(w) == {w: C2.one}
                       for w in all_words(n))


def test_op_S():
    S2 = op_S_ctx(2, 2, C2)
    assert S2("11") == {"11": C2.q}
    assert S2("12") == {"21": C2.one}
    S3 = op_S_ctx(3, 3, C3)
    assert S3("121") == {"112": C3.one}


def test_theta_varpi_examples():
    tv = op_theta_varpi_ctx(2, C2)
    assert tv("12") == {"21": C2.lam1}
    assert tv("11") == {"11": C2.lam1 * C2.q}
    tv3 = op_theta_varpi_ctx(3, C3)
    assert tv3("211") == {"112": C3.lam2}


def test_X_eigen_structure():
    X3 = op_X_ctx(3, C3)
    # 2-initial words are exact lambda2 eigenvectors
    for w in all_words(3):
        if w[0] == "2":
            assert X3(w) == {w: C3.lam2}
        else:
            # triangularity: X(1w) - lam1*1w lies in the 2-initial span
            residual = dict(X3(w))
            residual[w] = residual[w] - C3.lam1
            assert all(u[0] == "2" for u, c in residual.items()
                       if not c.is_zero())
    assert X3("111") == {"111": C3.lam1}


def test_X_printed_matrix_n2():
    X = op_X_ctx(2, C2)
    assert X("12") == {"12": C2.lam1,
                       "21": -(C2.lam1 * C2.q_minus_qinv)}
    assert X("21") == {"21": C2.lam2}


def test_Xk_examples():
    X1, X2 = ops_Xk_ctx(2, C2)
    assert X1("21") == {"21": C2.lam2}
    assert X2("21") == {"21": C2.lam1}
    X2_3 = ops_Xk_ctx(3, C3)[1]
    assert X2_3("221") == {"221": C3.lam2 * C3.q ** 2}


def test_Xk_index_errors():
    with pytest.raises(ValueError):
        op_T_ctx(5, 3, C3)
    with pytest.raises(ValueError):
        op_T_ctx(1, 3, C3)


@pytest.mark.parametrize("params", [
    BlobParams(3, 0, 2), BlobParams(4, 0, 3),
    BlobParams(3, 5, 2), BlobParams(4, 7, 3), BlobParams(3, 9, 4)])
def test_ariki_koike_relations(params):
    n, ctx = params.n, context(params)
    checks = verify_ariki_koike(n, ctx, module_blocks(n, ctx))
    assert checks and all(c.ok for c in checks), \
        [c for c in checks if not c.ok]


@pytest.mark.parametrize("params", [
    BlobParams(2, 0, 2), BlobParams(4, 0, 2),
    BlobParams(5, 5, 3), BlobParams(4, 7, 2)])
def test_blob_identity(params):
    n, ctx = params.n, context(params)
    checks = verify_blob_identity(n, ctx, module_blocks(n, ctx))
    assert all(c.ok for c in checks)


LOCAL_SUITES = (verify_ariki_koike, verify_blob_relations)


def _on_full_blocks(monkeypatch, suite, n, ctx, blocks):
    """The suite with its certificate refused: every relation evaluated on
    the full blocks."""
    with monkeypatch.context() as patch:
        patch.setattr(tensor_module, "certify_tables", lambda *args: False)
        return suite(n, ctx, blocks)


def _fresh_caches(monkeypatch):
    """Fresh block-table and module caches, so that blocks are built with
    whatever operators the test has patched in."""
    monkeypatch.setattr(weightmod, "block_operators",
                        lru_cache(maxsize=None)(weightmod.BlockOperators))
    monkeypatch.setattr(weightmod, "weight_module",
                        lru_cache(maxsize=None)(weightmod.WeightModule))


def test_U_table_is_T_table_minus_q():
    for ctx in (C2, context(BlobParams(4, 5, 2))):
        t, u = two_letter_table("T", ctx), two_letter_table("U", ctx)
        assert u == {"11": {}, "12": {"21": ctx.one, "12": -ctx.qinv},
                     "21": {"12": ctx.one, "21": -ctx.q}, "22": {}}
        for pair in t:
            diff = dict(t[pair])
            diff[pair] = diff.get(pair, ctx.zero) - ctx.q
            assert {w: c for w, c in diff.items() if not c.is_zero()} == \
                u[pair]
    with pytest.raises(ValueError, match="no two-letter table"):
        two_letter_table("X", C2)


@pytest.mark.parametrize("l", [0, 5, 7])
def test_relations_on_their_support_read_as_on_the_full_blocks(monkeypatch,
                                                               l):
    # every block matrix is its table, and deciding the local relations on
    # their support gives the verdicts the full blocks give
    for n in range(2, 7):
        ctx = context(BlobParams(n, l, 2))
        blocks = list(module_blocks(n, ctx))
        names = set(blocks[0][1])
        assert certify_tables(blocks, n, ctx, names), n
        assert not certify_tables(blocks[1:], n, ctx, names), n
        assert not certify_tables(blocks + blocks[:1], n, ctx, names), n
        for suite in LOCAL_SUITES:
            checks = suite(n, ctx, blocks)
            assert checks and all(c.ok for c in checks), n
            assert checks == _on_full_blocks(monkeypatch, suite, n, ctx,
                                             blocks), n
            with pytest.raises(ValueError, match="no block"):
                suite(n, ctx, iter(()))


def test_a_block_not_closed_under_a_generator_fails_the_certificate():
    # the bases still hold every word once, but M_3(1) is cut in two, so
    # T2 sends 211 to 121 across the cut: the certificate fails, it does
    # not raise
    ctx = context(BlobParams(3, 5, 2))
    blocks = []
    for basis, mats in module_blocks(3, ctx):
        if basis[0] == "211":
            blocks += [(basis[:1], {"T2": [{}]}),
                       (basis[1:], {"T2": [{}, {}]})]
        else:
            blocks.append((basis, mats))
    assert not certify_tables(blocks, 3, ctx, {"T2"})


def test_entry_reading_a_third_letter_fails_the_certificate(monkeypatch):
    # negative control: one entry of T_3 off by one on M_5(1), so T_3 reads
    # the letters outside (2, 3); the certificate fails, and the suite
    # evaluates every relation once on the full blocks, as before, naming
    # the word of the perturbed column
    n, target, image = 5, "21211", "22111"
    ctx = context(BlobParams(n, 5, 2))
    real = weightmod.table_matrix

    def build(symbol, basis, index, ctx_):
        mat = real(symbol, basis, index, ctx_)
        if symbol == "T3" and target in index:
            col = mat[index[target]]
            col[index[image]] = col[index[image]] + ctx_.one
        return mat

    _fresh_caches(monkeypatch)
    monkeypatch.setattr(weightmod, "table_matrix", build)
    blocks = list(module_blocks(n, ctx))
    assert not certify_tables(blocks, n, ctx, set(blocks[0][1]))
    calls = []
    evaluate = tensor_module.evaluate
    monkeypatch.setattr(tensor_module, "evaluate", lambda rels, b, one: (
        calls.append((len(rels), b)) or evaluate(rels, b, one)))
    checks = verify_ariki_koike(n, ctx, blocks)
    assert calls == [(len(checks), blocks)]
    failed = {c.name: c.first_failure for c in checks if not c.ok}
    assert failed["quadratic(T3)"] == target
    assert "quadratic(T2)" not in failed


def test_the_shifted_generators_are_certified_too():
    # quadratic(T4) is decided as quadratic(T2) on the words u 111: with
    # one entry of T2 off by one, the certificate must read T2 as well, and
    # fail, so that quadratic(T4) holds as it does on the full blocks
    n, ctx = 5, context(BlobParams(5, 5, 2))
    rel = ariki_koike_relations(["T4"], ctx, identity=False)[0]
    blocks = []
    for basis, mats in module_blocks(n, ctx):
        if "11111" in basis:
            t2 = [dict(col) for col in mats["T2"]]
            t2[0][0] = t2[0][0] + ctx.one
            mats = {**mats, "T2": t2}
        blocks.append((basis, mats))
    assert rel.name == "quadratic(T4)"
    assert evaluate_on_support([rel], n, ctx, blocks) == \
        [RelationCheck("quadratic(T4)", True)]


@pytest.mark.parametrize("l", [0, 5, 7])
def test_perturbed_T_table_fails_on_its_support(monkeypatch, l):
    # negative control: the T table gains '21' -> '21' at every position;
    # each block matrix is still its (perturbed) table, so the certificate
    # passes, the local relations fail, and the verdicts and the padded
    # witnesses are those the full blocks give
    real = tensor_module.two_letter_table

    def table(kind, ctx):
        out = real(kind, ctx)
        if kind == "T":
            out["21"] = {"12": ctx.one, "21": ctx.one}
        return out

    monkeypatch.setattr(tensor_module, "two_letter_table", table)
    for n in range(2, 7):
        _fresh_caches(monkeypatch)
        ctx = context(BlobParams(n, l, 2))
        blocks = list(module_blocks(n, ctx))
        assert certify_tables(blocks, n, ctx, set(blocks[0][1])), n
        failed = {}
        for suite in LOCAL_SUITES:
            checks = suite(n, ctx, blocks)
            assert checks == _on_full_blocks(monkeypatch, suite, n, ctx,
                                             blocks), n
            failed.update((c.name, c.first_failure) for c in checks
                          if not c.ok)
        local = failed["quadratic(T2)"]
        assert len(local) == n and local[2:] == "1" * (n - 2)
        for i in range(2, n + 1):
            assert failed[f"quadratic(T{i})"] == \
                "1" * (i - 2) + local[:2] + "1" * (n - i), (n, i)
            assert f"squared(U{i - 1})" in failed, (n, i)
        assert not any(name.startswith("commute(T") for name in failed)


def test_local_relations_need_fewer_products(monkeypatch):
    # products made by the evaluator at n = 6, l = 5, m = 2: on the full
    # blocks the Ariki-Koike suite needs 399 and the blob relations 308;
    # on their support, V^(x)2 and V^(x)3 included, far fewer
    n, ctx = 6, context(BlobParams(6, 5, 2))
    blocks = list(module_blocks(n, ctx))
    made = []
    mat_mul = relations.mat_mul
    monkeypatch.setattr(relations, "mat_mul",
                        lambda a, b: made.append(1) or mat_mul(a, b))

    def products(run):
        made.clear()
        run()
        return len(made)

    assert [products(lambda: _on_full_blocks(monkeypatch, suite, n, ctx,
                                             blocks))
            for suite in LOCAL_SUITES] == [399, 308]
    local = [products(lambda: suite(n, ctx, blocks))
             for suite in LOCAL_SUITES]
    assert local[0] <= 155 and local[1] <= 96, local


def _rotation_checks(n, ctx):
    """The partial-rotation checks on the blocks of module_blocks."""
    return verify_partial_rotation_fixing(n, ctx, module_blocks(n, ctx))


def test_partial_rotation_fixing_all_small():
    for n in (2, 3, 4):
        checks = _rotation_checks(n, C2)
        assert [c.name for c in checks] == [
            f"rotation_fixes_filtration({j},{p})"
            for j in (1, 2) for p in range(1, n + 1)]
        assert all(c.ok for c in checks), n


def test_partial_rotation_exact_fixing_j2():
    # Y_{3,p} = 0, so words with letter 2 at p are fixed exactly
    ctx = context(BlobParams(4, 0, 3))
    comp = op_S_ctx(2, 4, ctx)
    for r in range(3, 5):
        comp = op_S_ctx(r, 4, ctx) @ comp
    for r in range(4, 1, -1):
        comp = op_T_inv_ctx(r, 4, ctx) @ comp
    for w in all_words(4):
        if w[0] == "2":
            assert comp.apply_word(w) == {w: ctx.one}


def test_all_ones_fixed_by_rotation_composite():
    ctx = C2
    checks = _rotation_checks(5, ctx)
    assert all(c.ok for c in checks)
    comp = op_S_ctx(3, 5, ctx)
    for r in range(4, 6):
        comp = op_S_ctx(r, 5, ctx) @ comp
    for r in range(5, 2, -1):
        comp = op_T_inv_ctx(r, 5, ctx) @ comp
    assert comp.apply_word("11111") == {"11111": ctx.one}


def _lazy_rotation(p, n, ctx):
    """v -> R_p v from the lazy chain
    T_{p+1}^-1 @ ... @ T_n^-1 @ S_n @ ... @ S_{p+1} (R_n = I)."""
    factors = [tensor_module.op_T_inv_ctx(r, n, ctx)
               for r in range(p + 1, n + 1)]
    factors += [tensor_module.op_S_ctx(r, n, ctx) for r in range(n, p, -1)]
    if not factors:
        return lambda v: {v: ctx.one}
    return reduce(operator.matmul, factors).apply_word


def _lazy_rotation_checks(n, ctx):
    """(name, ok, witness) of every partial-rotation check from the lazy
    chains, applied word by word over all_words(n); the witness is the
    first word whose residual leaves the filtration."""
    out = []
    for j in (1, 2):
        for p in range(1, n + 1):
            rotate = _lazy_rotation(p, n, ctx)
            bad = None
            for v in all_words(n):
                if int(v[p - 1]) < j:
                    continue
                residual = vec_sub(rotate(v), {v: ctx.one})
                if any(int(u[p - 1]) < j + 1 for u in residual):
                    bad = v
                    break
            out.append((f"rotation_fixes_filtration({j},{p})", bad is None,
                        bad))
    return out


@pytest.mark.parametrize("l", [0, 5])
@pytest.mark.parametrize("n", [5, 6])
def test_perturbed_S_fails_at_the_lazy_chains_word(monkeypatch, n, l):
    # one coefficient of one word of one S_r off by one: the block
    # recurrence names the same failing (j, p) and word as the lazy chain
    ctx = context(BlobParams(n, l, 2))
    real, real_matrix = tensor_module.op_S_ctx, weightmod.table_matrix
    cases = [(r, target) for r in (2, 4, n)
             for target in (all_words(n)[3], all_words(n)[-6])]
    failing = 0
    for r, target in cases:
        def op_S(i, n_, ctx_, r=r, target=target):
            op = real(i, n_, ctx_)
            if i != r:
                return op

            def rule(w):
                out = dict(op.apply_word(w))
                if w == target:
                    u = min(out)
                    out[u] = out[u] + ctx_.one
                return out

            return LinOp(n_, ctx_, rule, name=op.name)

        def build(symbol, basis, index, ctx_, r=r, target=target):
            mat = real_matrix(symbol, basis, index, ctx_)
            if symbol == f"S{r}" and target in index:
                col = mat[index[target]]
                u = index[min(basis[j] for j in col)]
                col[u] = col[u] + ctx_.one
            return mat

        # the lazy chain perturbs S through tensor's binding, the blocks
        # through weightmod's binding of the block builder; module_blocks
        # builds S on every call, and the caches stay fresh all the same
        monkeypatch.setattr(tensor_module, "op_S_ctx", op_S)
        monkeypatch.setattr(weightmod, "table_matrix", build)
        monkeypatch.setattr(weightmod, "block_operators",
                            lru_cache(maxsize=None)(weightmod.BlockOperators))
        checks = [(c.name, c.ok, c.first_failure)
                  for c in _rotation_checks(n, ctx)]
        assert checks == _lazy_rotation_checks(n, ctx), (r, target)
        failing += not all(ok for _, ok, _ in checks)
    monkeypatch.undo()
    assert failing == len(cases)
    checks = _rotation_checks(n, ctx)
    assert all(c.ok for c in checks)
    assert [(c.name, c.ok, c.first_failure) for c in checks] == \
        _lazy_rotation_checks(n, ctx)


@pytest.mark.parametrize("l", [0, 5])
@pytest.mark.parametrize("n,p", [(5, 2), (6, 3)])
def test_j2_residual_off_position_p_fails(monkeypatch, n, p, l):
    # v = 1^(p-1) 2 2 1^(n-p-1) and u = v with its 2 at p and its last
    # letter exchanged (a 1 at p, the same weight); T_{p+1}^-1 v gains u, so
    # R_p v = v + q u: R_p P_p = P_p fails at v, while the weaker
    # P_p R_p P_p = P_p still holds
    ctx = context(BlobParams(n, l, 2))
    v = "1" * (p - 1) + "22" + "1" * (n - p - 1)
    u = v[:p - 1] + v[-1] + v[p:-1] + v[p - 1]
    real = tensor_module.op_T_inv_ctx

    def op_T_inv(i, n_, ctx_):
        op = real(i, n_, ctx_)
        if i != p + 1:
            return op
        return LinOp(n_, ctx_, lambda w: {**op.apply_word(w), u: ctx_.one}
                     if w == v else op.apply_word(w), name=op.name)

    real_matrix = weightmod.table_matrix

    def build(symbol, basis, index, ctx_):
        mat = real_matrix(symbol, basis, index, ctx_)
        if symbol == f"T{p + 1}^-1" and v in index:
            mat[index[v]][index[u]] = ctx_.one
        return mat

    monkeypatch.setattr(tensor_module, "op_T_inv_ctx", op_T_inv)
    # module_blocks builds T^-1 through weightmod's binding of the block
    # builder on every call, and the tables form X from T by the quadratic
    # relation, so the perturbed table reaches R_p but not X; the caches
    # stay fresh all the same
    monkeypatch.setattr(weightmod, "table_matrix", build)
    monkeypatch.setattr(weightmod, "block_operators",
                        lru_cache(maxsize=None)(weightmod.BlockOperators))
    monkeypatch.setattr(weightmod, "weight_module",
                        lru_cache(maxsize=None)(weightmod.WeightModule))
    checks = [(c.name, c.ok, c.first_failure)
              for c in _rotation_checks(n, ctx)]
    assert (f"rotation_fixes_filtration(2,{p})", False, v) in checks
    assert checks == _lazy_rotation_checks(n, ctx)
    rotate = _lazy_rotation(p, n, ctx)
    assert vec_sub(rotate(v), {v: ctx.one}) == {u: ctx.q}
    for w in all_words(n):
        if w[p - 1] == "2":
            assert {x: c for x, c in rotate(w).items()
                    if x[p - 1] == "2"} == {w: ctx.one}, w


def test_linop_matrix_and_arith():
    basis = weight_words(3, 2)
    X = op_X_ctx(3, C3)
    mat = X.matrix(basis)
    assert len(mat) == 3
    ident = op_T_inv_ctx(2, 3, C3) @ op_T_ctx(2, 3, C3)
    assert (X @ ident).apply_word("211") == X.apply_word("211")


def test_matrix_rejects_leaving_span():
    # an image outside the block is a failed verification, not bad input
    X = op_X_ctx(3, C3)
    with pytest.raises(ArithmeticError):
        X.matrix(["112", "121"])  # missing 211 from the weight space


def test_doctests():
    results = doctest.testmod(tensor_module)
    assert results.failed == 0
