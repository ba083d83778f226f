"""Blob generators on the tensor space and the defining relations."""

import pytest

from blobtensor.blob import (verify_blob_relations, verify_ideal_generators,
                            verify_relation_suite)
from blobtensor.linalg import mat_vec, vec_scale
from blobtensor.relations import commute, evaluate
from blobtensor.scalars import BlobParams, context
from blobtensor.tensor import (all_words, verify_ariki_koike,
                               verify_blob_identity,
                               verify_partial_rotation_fixing)
from blobtensor.weightmod import (lambda_range, module_blocks, weight_basis,
                                  weight_module)

P3 = BlobParams(3, 0, 2)
C3 = context(P3)


def _generator(i, n, ctx):
    """U_i as a map on words, read off the matrices of the weight module
    that holds the word."""
    def apply(w):
        module = weight_module(n, 2 * w.count("1") - n, ctx)
        return module.words(module.U[i][module.index[w]])
    return apply


def test_generator_examples():
    u2 = _generator(2, 3, C3)
    assert u2("112") == {"121": C3.one, "112": -C3.qinv}
    u0 = _generator(0, 3, C3)
    m = C3.lam1 - C3.lam2
    for w in all_words(3):
        if w[0] == "2":
            assert u0(w) == {w: -m}
    u1 = _generator(1, 3, C3)
    assert u1("112") == {}
    assert u1("111") == {}


def test_apply_word():
    # products of generators applied column by column on M_3(1)
    module = weight_module(3, 1, C3)
    u0, u1, u2 = module.U
    m1 = C3.qinv * C3.lam1 - C3.q * C3.lam2
    col = u1[module.index["112"]]
    assert mat_vec(u1, mat_vec(u0, col)) == vec_scale(col, m1)
    for j in range(module.dim):
        assert mat_vec(u2, mat_vec(u1, u2[j])) == u2[j]


def test_u0_kills_all_ones():
    # U0(1^n) = 0 since X(1^n) = lam1 1^n
    for n in (2, 3, 4, 5):
        assert _generator(0, n, context(BlobParams(n, 0, 3)))("1" * n) == {}


@pytest.mark.parametrize("params", [
    BlobParams(2, 0, 2), BlobParams(3, 0, 2), BlobParams(4, 0, 3),
    BlobParams(5, 0, 2),
    BlobParams(4, 5, 2), BlobParams(4, 5, 3),
    BlobParams(4, 7, 2), BlobParams(3, 7, 3),
])
def test_blob_relations(params):
    n, ctx = params.n, context(params)
    checks = verify_blob_relations(n, ctx, module_blocks(n, ctx))
    assert checks and all(c.ok for c in checks), \
        [c.name for c in checks if not c.ok]


def test_u1u0u1_is_zero_operator_difference_n2():
    # U1 U0 U1 - [m-1] U1 vanishes on all of V^(x)2: every weight module
    ctx = context(BlobParams(2, 0, 5))
    m1 = ctx.qinv * ctx.lam1 - ctx.q * ctx.lam2
    for lam in (-2, 0, 2):
        module = weight_module(2, lam, ctx)
        u0, u1 = module.U
        for col in u1:
            assert mat_vec(u1, mat_vec(u0, col)) == vec_scale(col, m1)


@pytest.mark.parametrize("params", [
    BlobParams(2, 0, 2), BlobParams(4, 0, 3), BlobParams(4, 5, 2)])
def test_ideal_generators(params):
    n, ctx = params.n, context(params)
    checks = verify_ideal_generators(n, ctx, module_blocks(n, ctx))
    assert all(c.ok for c in checks)


def test_xk_pairwise_commute():
    # X_1 .. X_n commute pairwise on every weight module M_n(lam)
    for params in (BlobParams(4, 0, 2), BlobParams(5, 5, 2)):
        n, ctx = params.n, context(params)
        names = [f"X{k}" for k in range(1, n + 1)]
        rels = [commute(a, b) for i, a in enumerate(names)
                for b in names[i + 1:]]
        blocks = []
        for lam in lambda_range(n):
            module = weight_module(n, lam, ctx)
            blocks.append((module.basis, dict(zip(names, module.xk))))
        checks = evaluate(rels, blocks, ctx.one)
        assert len(checks) == n * (n - 1) // 2
        assert all(c.ok for c in checks)


SUITES = (verify_ariki_koike, verify_blob_identity, verify_blob_relations,
          verify_ideal_generators, verify_partial_rotation_fixing)


@pytest.mark.parametrize("l", [0, 5, 7])
def test_shared_stream_is_invisible(l):
    # the five suites on one shared stream read as the five suites each on
    # a stream of its own, and no suite adds a matrix to a shared block
    for n in range(2, 7):
        ctx = context(BlobParams(n, l, 2))
        seen = []

        def recorded():
            for basis, mats in module_blocks(n, ctx):
                seen.append((mats, set(mats)))
                yield basis, mats

        shared = verify_relation_suite(n, ctx, recorded())
        alone = [c for suite in SUITES
                 for c in suite(n, ctx, module_blocks(n, ctx))]
        assert shared == alone, n
        assert len(seen) == len(lambda_range(n))
        assert all(mats.keys() == keys for mats, keys in seen), n


def test_perturbed_U1_fails_alike_through_the_shared_stream():
    # one U1 entry off by one on M_4(0): the suite names the failing checks
    # and witnesses that the blob relations name on their own
    n, ctx = 4, context(BlobParams(4, 5, 2))

    def perturbed():
        for basis, mats in module_blocks(n, ctx):
            if basis == weight_basis(n, 0):
                # a copy: U1 is the block operator table's own matrix
                u1 = [dict(col) for col in mats["U1"]]
                u1[2][2] = u1[2].get(2, ctx.zero) + ctx.one
                mats = {**mats, "U1": u1}
            yield basis, mats

    failed = [c for c in verify_relation_suite(n, ctx, perturbed())
              if not c.ok]
    alone = [c for c in verify_blob_relations(n, ctx, perturbed())
             if not c.ok]
    assert failed and failed == alone
    assert all(c.first_failure in weight_basis(n, 0) for c in failed)


def test_a_spent_stream_is_an_error_not_a_pass():
    # one block generator handed to two suites: the second finds it spent,
    # and an evaluation over no block would pass vacuously
    n, ctx = 4, context(BlobParams(4, 5, 2))
    blocks = module_blocks(n, ctx)
    assert all(c.ok for c in verify_blob_relations(n, ctx, blocks))
    with pytest.raises(ValueError, match="no block"):
        verify_ideal_generators(n, ctx, blocks)
    with pytest.raises(ValueError, match="no block"):
        evaluate([commute("U0", "U2")], [], ctx.one)
