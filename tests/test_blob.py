"""Blob generators on the tensor space and the defining relations."""

import pytest

from blobtensor.blob import (BlobAction, verify_blob_relations,
                             verify_ideal_generators, verify_xk_commute)
from blobtensor.linalg import vec_scale
from blobtensor.scalars import BlobParams, context
from blobtensor.tensor import all_words

P3 = BlobParams(3, 0, 2)
C3 = context(P3)


def test_generator_examples():
    action = BlobAction(3, C3)
    u2 = action.generator(2)
    assert u2("112") == {"121": C3.one, "112": -C3.qinv}
    u0 = action.generator(0)
    m = C3.lam1 - C3.lam2
    for w in all_words(3):
        if w[0] == "2":
            assert u0(w) == {w: -m}
    u1 = action.generator(1)
    assert u1("112") == {}
    assert u1("111") == {}


def test_generator_index_errors():
    action = BlobAction(3, C3)
    with pytest.raises(ValueError):
        action.generator(3)
    with pytest.raises(ValueError):
        action.generator(-1)


def test_apply_word():
    # products of generators applied word by word through LinOp composition
    action = BlobAction(3, C3)
    u0, u1, u2 = (action.generator(i) for i in range(3))
    m1 = C3.qinv * C3.lam1 - C3.q * C3.lam2
    assert (u1 @ u0 @ u1).apply_word("112") == vec_scale(u1("112"), m1)
    for w in all_words(3):
        assert (u2 @ u1 @ u2).apply_word(w) == u2(w)


def test_u0_kills_all_ones():
    # U0(1^n) = 0 since X(1^n) = lam1 1^n
    for n in (2, 3, 4, 5):
        action = BlobAction(n, context(BlobParams(n, 0, 3)))
        assert action.generator(0)("1" * n) == {}


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
    # U1 U0 U1 - [m-1] U1 vanishes on all of V^(x)2
    ctx = context(BlobParams(2, 0, 5))
    action = BlobAction(2, ctx)
    u0, u1 = action.generator(0), action.generator(1)
    m1 = ctx.qinv * ctx.lam1 - ctx.q * ctx.lam2
    for w in all_words(2):
        lhs = u1(u0(u1(w)))
        assert lhs == vec_scale(u1(w), m1)


@pytest.mark.parametrize("params", [
    BlobParams(2, 0, 2), BlobParams(4, 0, 3), BlobParams(4, 5, 2)])
def test_ideal_generators(params):
    checks = verify_ideal_generators(params.n, context(params))
    assert all(c.ok for c in checks)


def test_xk_pairwise_commute():
    for params in (BlobParams(4, 0, 2), BlobParams(5, 5, 2)):
        checks = verify_xk_commute(params.n, context(params))
        assert all(c.ok for c in checks)
