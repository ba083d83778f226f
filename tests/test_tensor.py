"""Tensor-space operators: defining rules, relations, triangularity."""

import doctest

import pytest

import blobtensor.tensor as tensor_module
from blobtensor.scalars import GENERIC, BlobParams, context
from blobtensor.tensor import (LinOp, all_words, op_S, op_T, op_T_inv,
                               op_theta_varpi, op_X, op_Xk, vect_to_json,
                               verify_ariki_koike, verify_blob_identity,
                               verify_partial_rotation_fixing,
                               weight_words)

P2 = BlobParams(2, 0, 2)
P3 = BlobParams(3, 0, 2)
C2 = context(P2)
C3 = context(P3)


def test_words():
    assert all_words(2) == ["11", "12", "21", "22"]
    assert weight_words(3, 2) == ["112", "121", "211"]


def test_op_T_rules():
    T2 = op_T(2, P2)
    q = C2.q
    assert T2("11") == {"11": q}
    assert T2("22") == {"22": q}
    assert T2("21") == {"12": C2.one}
    assert T2("12") == {"21": C2.one, "12": C2.q_minus_qinv}


def test_op_T_inverse():
    Ti = op_T_inv(2, P2)
    assert Ti("11") == {"11": C2.qinv}
    assert Ti("21") == {"12": C2.one, "21": -C2.q_minus_qinv}
    for n in range(2, 7):
        params = BlobParams(n, 0, 2)
        for i in range(2, n + 1):
            comp = op_T_inv(i, params) @ op_T(i, params)
            assert all(comp.apply_word(w) == {w: context(params).one}
                       for w in all_words(n))


def test_op_S():
    S2 = op_S(2, P2)
    assert S2("11") == {"11": C2.q}
    assert S2("12") == {"21": C2.one}
    S3 = op_S(3, P3)
    assert S3("121") == {"112": C3.one}


def test_theta_varpi_examples():
    tv = op_theta_varpi(P2)
    assert tv("12") == {"21": C2.lam1}
    assert tv("11") == {"11": C2.lam1 * C2.q}
    tv3 = op_theta_varpi(P3)
    assert tv3("211") == {"112": C3.lam2}


def test_X_eigen_structure():
    X3 = op_X(P3)
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
    X = op_X(P2)
    assert X("12") == {"12": C2.lam1,
                       "21": -(C2.lam1 * C2.q_minus_qinv)}
    assert X("21") == {"21": C2.lam2}


def test_Xk_examples():
    assert op_Xk(1, P2)("21") == {"21": C2.lam2}
    X2 = op_Xk(2, P2)
    assert X2("21") == {"21": C2.lam1}
    X2_3 = op_Xk(2, P3)
    assert X2_3("221") == {"221": C3.lam2 * C3.q ** 2}


def test_Xk_index_errors():
    with pytest.raises(ValueError):
        op_Xk(4, P3)
    with pytest.raises(ValueError):
        op_T(5, P3)
    with pytest.raises(ValueError):
        op_T(1, P3)


@pytest.mark.parametrize("params", [
    BlobParams(3, 0, 2), BlobParams(4, 0, 3),
    BlobParams(3, 5, 2), BlobParams(4, 7, 3), BlobParams(3, 9, 4)])
def test_ariki_koike_relations(params):
    checks = verify_ariki_koike(params.n, params)
    assert checks and all(c.ok for c in checks), \
        [c for c in checks if not c.ok]


@pytest.mark.parametrize("params", [
    BlobParams(2, 0, 2), BlobParams(4, 0, 2),
    BlobParams(5, 5, 3), BlobParams(4, 7, 2)])
def test_blob_identity(params):
    checks = verify_blob_identity(params.n, params)
    assert all(c.ok for c in checks)


def test_partial_rotation_fixing_all_small():
    for n in (2, 3, 4):
        params = BlobParams(n, 0, 2)
        for j in (1, 2):
            for p in range(1, n + 1):
                checks = verify_partial_rotation_fixing(j, p, n, params)
                assert all(c.ok for c in checks), (j, p, n)


def test_partial_rotation_exact_fixing_j2():
    # Y_{3,p} = 0, so words with letter 2 at p are fixed exactly
    params = BlobParams(4, 0, 3)
    ctx = context(params)
    from blobtensor.tensor import op_S_ctx, op_T_inv_ctx

    comp = LinOp.identity(4, ctx)
    for r in range(2, 5):
        comp = op_S_ctx(r, 4, ctx) @ comp
    for r in range(4, 1, -1):
        comp = op_T_inv_ctx(r, 4, ctx) @ comp
    for w in all_words(4):
        if w[0] == "2":
            assert comp.apply_word(w) == {w: ctx.one}


def test_all_ones_fixed_by_rotation_composite():
    params = BlobParams(5, 0, 2)
    checks = verify_partial_rotation_fixing(1, 2, 5, params)
    assert all(c.ok for c in checks)
    ctx = context(params)
    from blobtensor.tensor import op_S_ctx, op_T_inv_ctx

    comp = LinOp.identity(5, ctx)
    for r in range(3, 6):
        comp = op_S_ctx(r, 5, ctx) @ comp
    for r in range(5, 2, -1):
        comp = op_T_inv_ctx(r, 5, ctx) @ comp
    assert comp.apply_word("11111") == {"11111": ctx.one}


def test_linop_matrix_and_arith():
    basis = weight_words(3, 2)
    X = op_X(P3)
    mat = X.matrix(basis)
    assert len(mat) == 3
    ident = LinOp.identity(3, C3)
    assert (X @ ident).apply_word("211") == X.apply_word("211")


def test_matrix_rejects_leaving_span():
    # an image outside the block is a failed verification, not bad input
    X = op_X(P3)
    with pytest.raises(ArithmeticError):
        X.matrix(["112", "121"])  # missing 211 from the weight space


def test_vect_json():
    v = op_X(P2)("12")
    js = vect_to_json(v, GENERIC)
    assert set(js) == {"12", "21"}
    assert GENERIC.parse(js["12"]) == C2.lam1


def test_doctests():
    results = doctest.testmod(tensor_module)
    assert results.failed == 0
