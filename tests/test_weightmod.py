"""Weight modules, localization, and the adjointness criteria."""

from math import comb

import pytest

from blobtensor.blob import dualize
from blobtensor.linalg import (SpanSolver, mat_eq, mat_is_zero, mat_mul,
                               mat_transpose, span_rank, vec_sub)
from blobtensor.scalars import BlobParams, context, residues_equal
from blobtensor.tensor import op_T_ctx, op_X_ctx
from blobtensor.weightmod import (WeightLabel, _adjointness_injective,
                                  _adjointness_surjective, _e_matrix,
                                  adjointness_record, lambda_range, localize,
                                  quotient_scalar_record,
                                  special_element_scalar, straighten_word,
                                  underline_map, verify_module_blob_relations,
                                  verify_trivial_relations, weight_basis,
                                  weight_module)

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
    for n, lam in ((3, 1), (4, 0), (5, -1)):
        module = weight_module(n, lam, C3)
        dual = dualize(module)
        assert len(dual.U) == len(module.U) == n
        for u, du in zip(module.U, dual.U):
            assert mat_eq(du, mat_transpose(u, module.dim))


def test_idempotent():
    module = weight_module(3, 1, C3)
    em = _e_matrix(module.U, C3)
    two = C3.q + C3.qinv
    col = em[module.index["112"]]
    assert module.words(col) == {"112": two.inv() * C3.qinv,
                                 "121": -two.inv()}
    assert mat_is_zero(_e_matrix(weight_module(3, 3, C3).U, C3))
    assert mat_eq(mat_mul(em, em), em)


def test_localize_small_cases():
    module = weight_module(3, 1, C3)
    loc = localize(module)
    assert loc.dim_e == 1 and loc.e_fixes_basis
    target = module.coords({"112": C3.one, "121": -C3.q})
    solver = SpanSolver()
    solver.insert(target)
    assert all(solver.contains(b) for b in loc.basis_coords)

    module = weight_module(3, -1, C3)
    loc = localize(module)
    tgt = module.coords({"212": C3.one, "221": -C3.q})
    solver = SpanSolver()
    solver.insert(tgt)
    assert loc.dim_e == 1
    assert all(solver.contains(b) for b in loc.basis_coords)


def test_localize_extremes_vanish():
    for n in (2, 3, 4, 5):
        for lam in (n, -n):
            assert localize(weight_module(n, lam, C3)).dim_e == 0
    # at n = 1 there is no U_{n-1} besides the blob generator U_0
    with pytest.raises(ValueError):
        localize(weight_module(1, -1, C3))


def test_localized_generator_matrices_satisfy_blob_relations():
    from blobtensor.blob import blob_relation_checks_matrices

    loc = localize(weight_module(5, 1, C3))
    assert loc.dim_e == comb(3, 1)
    checks = blob_relation_checks_matrices(loc.gens, C3)
    assert all(c.ok for c in checks)


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


def test_trivial_relations():
    # every index choice, every weight, n <= 6
    for n in (4, 5, 6):
        for lam in lambda_range(n):
            checks = verify_trivial_relations(n, lam, C3)
            assert all(c.ok for c in checks), (n, lam)


def test_module_blob_relations_and_transpose():
    for (n, lam, l, m) in ((4, 0, 0, 2), (5, 1, 5, 2), (4, 2, 7, 3)):
        checks = verify_module_blob_relations(n, lam,
                                              context(BlobParams(n, l, m)))
        assert all(c.ok for c in checks), (n, lam, l, m)
