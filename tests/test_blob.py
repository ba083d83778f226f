"""Blob generators on the tensor space and the defining relations."""

import pytest

from blobtensor.blob import (verify_blob_relations, verify_ideal_generators,
                             verify_xk_commute)
from blobtensor.linalg import mat_vec, vec_scale
from blobtensor.scalars import BlobParams, context
from blobtensor.tensor import all_words
from blobtensor.weightmod import weight_module

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
    checks = verify_blob_relations(params.n, context(params))
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
    checks = verify_ideal_generators(params.n, context(params))
    assert all(c.ok for c in checks)


def test_xk_pairwise_commute():
    for params in (BlobParams(4, 0, 2), BlobParams(5, 5, 2)):
        checks = verify_xk_commute(params.n, context(params))
        assert all(c.ok for c in checks)
