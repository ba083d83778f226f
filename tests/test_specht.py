"""Bitableaux, the transported column module, duals and sign resolution."""

from math import comb

import pytest

from blobtensor import specht
from blobtensor.scalars import BlobParams, context
from blobtensor.specht import (Bitableau, Shape, build_S_prime, col_shape,
                               dual_adjointness_check, dualize, gi_action,
                               phi_map, resolve_dual_criterion, row_shape,
                               special_col_bitableau, standard_bitableaux,
                               verify_dualize_properties,
                               verify_gi_quadratic_on_bitableaux,
                               verify_phi_intertwines,
                               verify_S_prime_relations,
                               xi_bitableau_eigenvalue_checks,
                               xi_word_eigenvalue_checks)
from blobtensor.weightmod import lambda_range, weight_basis

C4 = context(BlobParams(4, 0, 2))


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape("diag", 1, 1)
    assert row_shape(2, 3).n == 5
    # col_shape(n1, n2) has n2 boxes in the first component
    s = col_shape(3, 2)
    assert (s.size1, s.size2) == (2, 3)


def test_standard_bitableaux_counts():
    tabs = standard_bitableaux(row_shape(1, 1))
    assert [(t.t1, t.t2) for t in tabs] == [((1,), (2,)), ((2,), (1,))]
    assert len(standard_bitableaux(row_shape(2, 2))) == 6
    assert all(t.standard for t in standard_bitableaux(row_shape(3, 2)))
    tabs = standard_bitableaux(row_shape(5, 6))
    special = [t for t in tabs if t.t1 == tuple(range(1, 6))]
    assert len(special) == 1 and special[0].t2 == tuple(range(6, 12))
    assert len(standard_bitableaux(col_shape(2, 2))) == comb(4, 2)


def test_bitableau_validation():
    with pytest.raises(ValueError):
        Bitableau(row_shape(1, 1), (1,), (1,))
    with pytest.raises(ValueError):
        Bitableau(row_shape(2, 1), (1,), (2,))


def test_gi_action_cases():
    ctx = C4
    shape = row_shape(2, 2)
    t = Bitableau(shape, (1, 2), (3, 4))
    # i, i+1 in the same component -> q[t]
    assert gi_action(1, t, ctx) == {t: ctx.q}
    assert gi_action(3, t, ctx) == {t: ctx.q}
    # i in t1, i+1 in t2 -> swap
    out = gi_action(2, t, ctx)
    swapped = Bitableau(shape, (1, 3), (2, 4))
    assert out == {swapped: ctx.one}
    # i+1 in t1, i in t2 -> swap + (q - q^-1)
    out = gi_action(2, swapped, ctx)
    assert out == {t: ctx.one, swapped: ctx.q_minus_qinv}
    with pytest.raises(ValueError):
        gi_action(4, t, ctx)


@pytest.mark.parametrize("shape", [row_shape(2, 2), col_shape(2, 1),
                                   col_shape(2, 3), row_shape(3, 1)])
def test_gi_quadratic(shape):
    assert all(c.ok
               for c in verify_gi_quadratic_on_bitableaux(shape, C4))


def test_gi_quadratic_names_first_failure(monkeypatch):
    # a stray term in g_1 and g_3: the check names i = 1, the first failure
    real = specht.gi_action

    def wrong(i, t, ctx):
        out = real(i, t, ctx)
        return {**out, t: out.get(t, ctx.zero) + ctx.one} if i in (1, 3) \
            else out

    monkeypatch.setattr(specht, "gi_action", wrong)
    (check,) = verify_gi_quadratic_on_bitableaux(row_shape(2, 2), C4)
    assert (check.ok, check.first_failure) == (False, "i=1")


def test_phi_examples():
    tabs = standard_bitableaux(col_shape(1, 1))
    images = {(t.t1, t.t2): phi_map(t) for t in tabs}
    assert images[((1,), (2,))] == "21"
    assert images[((2,), (1,))] == "12"
    assert phi_map(special_col_bitableau(3, 2)) == "22111"
    with pytest.raises(ValueError):
        phi_map(Bitableau(row_shape(1, 1), (1,), (2,)))


def test_phi_bijective_onto_weight_basis():
    for n1, n2 in ((2, 2), (3, 1), (1, 3), (3, 2)):
        n = n1 + n2
        tabs = standard_bitableaux(col_shape(n1, n2))
        words = sorted(phi_map(t) for t in tabs)
        assert words == sorted(weight_basis(n, n1 - n2))


@pytest.mark.parametrize("l,m", [(0, 2), (5, 2), (7, 3)])
def test_phi_intertwines_and_relations(l, m):
    ctx = context(BlobParams(2, l, m))
    for n in range(2, 6):
        for n1 in range(n + 1):
            n2 = n - n1
            assert all(c.ok for c in verify_phi_intertwines(n1, n2, ctx))
            assert all(c.ok
                       for c in verify_S_prime_relations(n1, n2, ctx))


def test_build_S_prime_shape():
    rep = build_S_prime(2, 2, C4)
    assert rep.dim == 6
    assert rep.n == 4
    assert phi_map(rep.labels[0]) == weight_basis(4, 0)[0]


@pytest.mark.parametrize("n1,n2", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 2)])
def test_xi_eigenvalue_displays(n1, n2):
    for l, m in ((0, 2), (5, 3)):
        ctx = context(BlobParams(n1 + n2, l, m))
        assert all(c.ok for c in xi_word_eigenvalue_checks(n1, n2, ctx))
        assert all(c.ok
                   for c in xi_bitableau_eigenvalue_checks(n1, n2, ctx))


def test_dualize_involution_and_relations():
    for n1, n2 in ((2, 2), (3, 1)):
        assert all(c.ok for c in verify_dualize_properties(n1, n2, C4))


def test_dualize_transposes():
    rep = build_S_prime(2, 1, C4)
    dual = dualize(rep)
    for j, col in enumerate(rep.x):
        for i, c in col.items():
            assert dual.x[i][j] == c


def test_dual_adjointness_hand_points():
    # l=3, m=2: at lambda=1 (n1=2=m) the dual counit is onto and iso;
    # at lambda=-1 (n1=1=-m mod 3) it is not onto.
    rec = dual_adjointness_check(3, 1, BlobParams(3, 3, 2))
    assert rec["dual_tests_agree"]
    assert rec["iso"] and rec["n1_eq_m_mod_l"]
    rec = dual_adjointness_check(3, -1, BlobParams(3, 3, 2))
    assert rec["dual_tests_agree"]
    assert not rec["iso"] and rec["n1_eq_minus_m_mod_l"]


def test_dual_adjointness_grid_consistency():
    records = []
    for n in (3, 4, 5):
        for l in (3, 5):
            for m in range(2, l):
                for lam in lambda_range(n)[1:-1]:
                    rec = dual_adjointness_check(n, lam, BlobParams(n, l, m))
                    assert rec["dual_tests_agree"], rec
                    records.append(rec)
    rule, tallies = resolve_dual_criterion(records)
    assert rule == "iso_iff_n1_neq_minus_m"
    assert tallies["iso_iff_n1_neq_minus_m"] == len(records)
    # neither printed candidate is grid-consistent
    assert tallies["iso_iff_n1_eq_m"] < len(records)
    assert tallies["iso_iff_n1_neq_m"] < len(records)


def test_dual_multiplicities_match_swapped_model():
    # transpose preserves the X eigenvalue multiplicities, and in the
    # parameter-swapped model the 2-initial block carries lambda1 instead of
    # lambda2 while the total multiplicities agree with the original module
    from blobtensor.linalg import mat_sub_scalar_diag, mat_transpose, span_rank
    from blobtensor.weightmod import weight_module

    ctx = C4
    for n, lam in ((4, 0), (5, 1), (5, -3)):
        module = weight_module(n, lam, ctx)
        x = module.x
        xt = mat_transpose(x, module.dim)
        swap = weight_module(n, -lam, ctx.swapped())
        xs = swap.x
        for val in (ctx.lam1, ctx.lam2):
            mult = module.dim - span_rank(mat_sub_scalar_diag(x, val))
            assert module.dim - span_rank(mat_sub_scalar_diag(xt, val)) \
                == mult
            assert swap.dim - span_rank(mat_sub_scalar_diag(xs, val)) == mult
        # the swapped module's 2-block diagonal is lambda1
        b2 = sum(1 for w in swap.basis if w[0] == "2")
        for j in range(b2):
            assert xs[j] == {j: ctx.lam1}


def test_dual_adjointness_generic():
    # generic parameters: the dual counit is an isomorphism off n1 = -m
    rec = dual_adjointness_check(4, 0, BlobParams(4, 0, 2))
    assert rec["iso"] and rec["dual_tests_agree"]
    rec = dual_adjointness_check(4, 0, BlobParams(4, 0, -2))  # n1 = 2 = -m
    assert not rec["iso"] and rec["dual_tests_agree"]
