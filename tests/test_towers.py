"""Restriction, the central element, splitting, triangle, n = 2 goldens."""

import copy
from math import comb

import pytest

from blobtensor import towers
from blobtensor.blob import MatrixRep
from blobtensor.relations import RelationCheck
from blobtensor.scalars import BlobParams, context, residues_equal
from blobtensor.tensor import op_S_ctx, op_T_inv_ctx, ops_Xk_ctx
from blobtensor.towers import (restriction_sequence, smallcase_golden,
                               verify_smallcase_matrices, splitting_check,
                               verify_central_z, verify_triangle,
                               x_multiplicity_entry,
                               x_multiplicity_table, z_matrix,
                               z_scalar_formula)
from blobtensor.weightmod import WeightLabel, lambda_range, weight_module

C4 = context(BlobParams(4, 0, 2))


def test_restriction_bridge_spot_checks():
    # T_n^-1 S_n fixes x11 and maps x12 to x12 modulo words ending in 1
    ctx = C4
    comp = op_T_inv_ctx(3, 3, ctx) @ op_S_ctx(3, 3, ctx)
    assert comp.apply_word("111") == {"111": ctx.one}
    assert comp.apply_word("211") == {"211": ctx.one}
    out = dict(comp.apply_word("112"))
    out["112"] = out["112"] - ctx.one
    assert all(u.endswith("1") for u, c in out.items() if not c.is_zero())


@pytest.mark.parametrize("l,m", [(0, 2), (5, 2), (3, 2)])
def test_restriction_sequence(l, m):
    ctx = context(BlobParams(2, l, m))
    for n in range(2, 7):
        for lam in lambda_range(n)[1:-1]:
            res = restriction_sequence(n, lam, ctx)
            assert res.ok, (n, lam, res.to_record())
            lab = WeightLabel(n, lam)
            assert len(res.sub_basis) == comb(n - 1, lab.a - 1)
            assert len(res.quotient_basis) == comb(n - 1, lab.a)


@pytest.mark.parametrize("small_lam", [-1, 1])
def test_perturbed_small_module_breaks_intertwining(monkeypatch, small_lam):
    # one extra unit in g_1 of M_3(-1) (the submodule) or of M_3(1) (the
    # quotient) of res M_4(0) must break exactly that identification
    ctx = context(BlobParams(4, 5, 2))
    assert restriction_sequence(4, 0, ctx).ok
    _perturbed_modules(monkeypatch, 1, 0, 0,
                       where=lambda n, lam: (n, lam) == (3, small_lam))
    res = restriction_sequence(4, 0, ctx)
    assert res.sub_invariant and res.dims_match
    assert res.sub_intertwines == (small_lam != -1)
    assert res.quotient_intertwines == (small_lam != 1)
    assert not res.ok


def test_restriction_rejects_extremes():
    with pytest.raises(ValueError):
        restriction_sequence(4, 4, C4)


def test_central_z_scalar_m31():
    ctx = C4
    module = weight_module(3, 1, ctx)
    z = z_matrix(3, module)
    expect = (ctx.lam1 ** 2) * ctx.lam2 * (ctx.q ** 2)
    assert z_scalar_formula(WeightLabel(3, 1), ctx) == expect
    assert sorted(module.basis) == ["112", "121", "211"]
    for w in ("211", "112", "121"):
        j = module.index[w]
        assert z[j] == {j: expect}


# l in {0, 3, 5}, m in {2, 3}; (3, 3) has lambda1 = lambda2 and is invalid
@pytest.mark.parametrize("l,m", [(0, 2), (0, 3), (3, 2), (5, 2), (5, 3)])
def test_module_chain_matches_lazy_chain(l, m):
    # X_k and z_k from products of the module's matrices equal the matrices
    # of the lazy word-rule chain X_k = T_k X_{k-1} T_k, z_k = X_k z_{k-1}
    ctx = context(BlobParams(2, l, m))
    for n in range(1, 7):
        xs = ops_Xk_ctx(n, ctx)
        for lam in lambda_range(n):
            module = weight_module(n, lam, ctx)
            assert len(module.xk) == len(module.z) == n
            z = xs[0]
            for k in range(1, n + 1):
                if k > 1:
                    z = xs[k - 1] @ z
                assert module.xk[k - 1] == xs[k - 1].matrix(module.basis), \
                    (n, lam, k)
                assert module.z[k - 1] == z.matrix(module.basis), (n, lam, k)
                assert z_matrix(k, module) is module.z[k - 1]


@pytest.mark.parametrize("l,m", [(0, 2), (5, 2), (7, 3)])
def test_central_z_grid(l, m):
    ctx = context(BlobParams(2, l, m))
    for n in range(2, 6):
        for lam in lambda_range(n):
            rep = verify_central_z(n, lam, ctx)
            assert rep.ok, (n, lam, rep.to_record())


def test_central_z_range_check():
    module = weight_module(4, 0, C4)
    for k in (0, 5):
        with pytest.raises(ValueError):
            z_matrix(k, module)


def test_non_central_z_fails(monkeypatch):
    # X_1 alone is neither scalar on M_4(0) nor central: both verdicts drop
    monkeypatch.setattr(towers, "z_matrix", lambda k, module: module.x)
    rep = verify_central_z(4, 0, context(BlobParams(4, 5, 2)))
    assert not rep.scalar_matches and not rep.central and not rep.ok


def test_perturbed_x_breaks_central_scalar(monkeypatch):
    # one off-diagonal unit in X of M_4(0): z_4 is rebuilt from the
    # perturbed matrices (the cached chain of the real module must not
    # leak into the copy) and is no longer the scalar
    ctx = context(BlobParams(4, 5, 2))
    assert verify_central_z(4, 0, ctx).ok
    _perturbed_modules(monkeypatch, 0, 0, 1)
    rep = verify_central_z(4, 0, ctx)
    assert not rep.scalar_matches and not rep.ok


def test_splitting_generic_and_cyclotomic():
    res = splitting_check(4, 0, context(BlobParams(4, 5, 2)))
    assert not res.wall and res.split is True
    assert res.eig_dims == (3, 3)

    # wall case: lambda = -m mod l
    res = splitting_check(4, -2, context(BlobParams(4, 3, 2)))
    assert res.wall and res.split == "undetermined"
    assert res.complement == "none"

    # generic wall happens exactly at lambda = -m
    res = splitting_check(4, -2, C4)
    assert res.wall
    res = splitting_check(4, 2, C4)
    assert not res.wall and res.split is True
    res = splitting_check(5, 1, C4)
    assert res.split is True and res.eig_dims == res.eig_dims_expected


@pytest.mark.parametrize("l,m", [(3, 2), (5, 2), (5, 3)])
def test_splitting_sweep(l, m):
    ctx = context(BlobParams(3, l, m))
    for n in (3, 4, 5):
        for lam in lambda_range(n)[1:-1]:
            res = splitting_check(n, lam, ctx)
            assert res.wall == residues_equal(lam, -m, l), (n, lam)
            if not res.wall:
                lab = WeightLabel(n, lam)
                assert res.split is True
                assert res.eig_dims == (comb(n - 1, lab.a - 1),
                                        comb(n - 1, lab.a))


@pytest.mark.parametrize("l,m", [(5, 2), (5, 8), (5, 14), (3, 2), (0, 2)])
def test_wall_certificate_fires_everywhere(l, m):
    # every wall point of n = 3..7 has z_{n-1} != s, so no splitting
    walls = 0
    ctx = context(BlobParams(3, l, m))
    for n in range(3, 8):
        for lam in lambda_range(n)[1:-1]:
            if not residues_equal(lam, -m, l):
                continue
            res = splitting_check(n, lam, ctx)
            assert res.wall and res.split == "undetermined", (n, lam)
            assert res.complement == "none", (n, lam)
            assert res.eig_dims is None and res.invariant is None
            walls += 1
    assert walls > 0


def test_wall_certificate_negative_controls():
    ctx = context(BlobParams(4, 3, 2))
    s = z_scalar_formula(WeightLabel(3, -3), ctx)
    certify = towers._wall_complement_search
    scalar = [{j: s} for j in range(4)]
    assert certify(scalar, s) == "not_attempted"
    # one off-diagonal entry: a nontrivial Jordan block
    bumped = [dict(col) for col in scalar]
    bumped[2][0] = ctx.one
    assert certify(bumped, s) == "none"
    # a scalar matrix, but for another scalar
    assert certify(scalar, s + ctx.one) == "none"


def test_wall_with_scalar_z_is_not_certified(monkeypatch):
    # force z_{n-1} = s*Id at a wall point: the certificate must stay silent,
    # which also pins the scalar splitting_check compares against
    ctx = context(BlobParams(4, 3, 2))
    s = z_scalar_formula(WeightLabel(3, -3), ctx)

    monkeypatch.setattr(towers, "z_matrix", lambda k, module: [
        {j: s} for j in range(module.dim)])
    res = splitting_check(4, -2, ctx)
    assert res.wall and res.complement == "not_attempted"


def verify_x_triangular(n, lam, ctx):
    """In the 2-initial-first basis order the matrix of X is upper triangular
    with lambda2 on the first |B2| diagonal entries and lambda1 after; the
    check names the first failure, column by column.  The module is read
    through `towers`, so the perturbed modules below reach it."""
    module = towers.weight_module(n, lam, ctx)
    b2 = sum(1 for w in module.basis if w[0] == "2")

    def failures():
        for j, col in enumerate(module.x):
            expect_diag = ctx.lam2 if j < b2 else ctx.lam1
            for i, c in col.items():
                if i > j:
                    yield f"below-diagonal entry at ({i},{j})"
                if i == j and c != expect_diag:
                    yield f"diagonal at {j}"
            if j < b2 and list(col.keys()) != [j]:
                yield f"2-block column {j} not diagonal"
            if module.basis[j][0] == "1" and j < b2:
                yield "basis order broken"

    bad = next(failures(), None)
    return [RelationCheck("x_upper_triangular", bad is None, bad)]


def _perturbed_modules(monkeypatch, gen, i, j, where=None):
    """Make towers see weight modules whose generator `gen` (0 for X, else
    g_gen) has one extra unit at (i, j), with U rebuilt from the perturbed
    matrices; only the modules (n, lam) that `where` accepts change, and the
    cached modules stay untouched.  The copy drops the X_k and z_k chains
    cached on the real module, so they are rebuilt from the perturbed
    matrices."""
    real = towers.weight_module

    def fake(n, lam, ctx):
        module = real(n, lam, ctx)
        if where is not None and not where(n, lam):
            return module
        module = copy.copy(module)
        for chain in ("xk", "z"):
            vars(module).pop(chain, None)
        stored = module.x if gen == 0 else module.g[gen]
        mat = [dict(col) for col in stored]
        mat[j][i] = mat[j][i] + ctx.one if i in mat[j] else ctx.one
        if gen == 0:
            module.x = mat
        else:
            module.g = {**module.g, gen: mat}
        module.U = MatrixRep(module.labels, module.x, module.g, ctx).U
        return module

    monkeypatch.setattr(towers, "weight_module", fake)


@pytest.mark.parametrize("offset", [1, 2, 3, 4])
def test_non_triangular_x_fails(monkeypatch, offset):
    # M_6(0): dim 20, the first 10 columns are the 2-block; one entry
    # below the diagonal of a 1-block column must be caught at any depth
    ctx = context(BlobParams(6, 5, 2))
    assert all(c.ok for c in verify_x_triangular(6, 0, ctx))
    j = comb(5, 3)
    _perturbed_modules(monkeypatch, 0, j + offset, j)
    (check,) = verify_x_triangular(6, 0, ctx)
    assert not check.ok
    assert check.first_failure == f"below-diagonal entry at ({j + offset},{j})"


def test_first_failure_is_named(monkeypatch):
    # two injected failures each: the checks name the first, not the last
    ctx = context(BlobParams(6, 5, 2))
    j = comb(5, 3)
    _perturbed_modules(monkeypatch, 0, j + 4, j)
    _perturbed_modules(monkeypatch, 0, j + 5, j + 1)
    (check,) = verify_x_triangular(6, 0, ctx)
    assert check.first_failure == f"below-diagonal entry at ({j + 4},{j})"

    real = towers.x_multiplicity_table

    def wrong_table(n_max):
        table = real(n_max)
        table[3][1] += 1  # lambda = -1
        table[4][2] += 1  # lambda = 0
        return table

    monkeypatch.setattr(towers, "x_multiplicity_table", wrong_table)
    assert [(c.name, c.first_failure) for c in verify_triangle(6)] == [
        ("triangle_counts_words", "n=3,lambda=-1"),
        ("triangle_pascal_recursion", "n=3,lambda=-1")]


def test_non_invariant_eigenspace_fails(monkeypatch):
    ctx = context(BlobParams(4, 5, 2))
    _perturbed_modules(monkeypatch, 1, 5, 0)
    res = splitting_check(4, 0, ctx)
    assert not res.wall
    assert res.eig_dims == res.eig_dims_expected == (3, 3)
    assert res.invariant is False
    assert res.split is False


def test_z_restricted_minimal_polynomial():
    # z_{n-1} on res M_n(lam) satisfies (z - s_minus)(z - s_plus) = 0, so its
    # eigenvalues are contained in the two closed-form scalars (equal on
    # walls, where the product is a square)
    from blobtensor.linalg import mat_is_zero, mat_mul, mat_sub_scalar_diag

    for n, lam, l, m in ((4, 0, 5, 2), (4, -2, 3, 2), (5, 1, 0, 2),
                         (5, -1, 5, 3)):
        ctx = context(BlobParams(n, l, m))
        module = weight_module(n, lam, ctx)
        zmat = z_matrix(n - 1, module)
        s_minus = z_scalar_formula(WeightLabel(n - 1, lam - 1), ctx)
        s_plus = z_scalar_formula(WeightLabel(n - 1, lam + 1), ctx)
        prod = mat_mul(mat_sub_scalar_diag(zmat, s_minus),
                       mat_sub_scalar_diag(zmat, s_plus))
        assert mat_is_zero(prod), (n, lam, l, m)


def test_triangle_printed_rows():
    table = x_multiplicity_table(4)
    assert table[1] == [1, 0]
    assert table[2] == [1, 1, 0]
    assert table[3] == [1, 2, 1, 0]
    assert table[4] == [1, 3, 3, 1, 0]
    # the first 3 in row 4 sits at lambda = -2: multiplicity 3
    assert x_multiplicity_entry(4, -2) == 3
    for n in range(1, 11):
        assert x_multiplicity_entry(n, n) == 0
        assert x_multiplicity_entry(n, -n) == 1


def test_triangle_recursion_and_counts():
    assert all(c.ok for c in verify_triangle(10))


def test_x_triangular():
    for n in range(2, 7):
        for lam in lambda_range(n):
            assert all(c.ok for c in verify_x_triangular(n, lam, C4))
    assert all(c.ok for c in verify_x_triangular(
        4, 0, context(BlobParams(4, 5, 2))))


def test_smallcase_golden_matrices():
    ctx = C4
    checks, computed, golden = verify_smallcase_matrices(ctx)
    assert all(c.ok for c in checks), [c.name for c in checks if not c.ok]
    # printed forms, entry by entry (basis order 12, 21)
    q, qinv = ctx.q, ctx.qinv
    lam1, lam2 = ctx.lam1, ctx.lam2
    m = lam1 - lam2
    assert computed["U1"][0] == {0: -qinv, 1: ctx.one}
    assert computed["U1"][1] == {0: ctx.one, 1: -q}
    assert computed["X"][0] == {0: lam1, 1: -(lam1 * ctx.q_minus_qinv)}
    assert computed["X"][1] == {1: lam2}
    assert computed["U0"][0] == {1: -(lam1 * ctx.q_minus_qinv)}
    assert computed["U0"][1] == {1: -m}
    for name in ("U1", "X", "U0"):
        assert computed[name] == golden[name]


@pytest.mark.parametrize("l,m", [(5, 2), (5, 3), (5, 4), (7, 2), (7, 6),
                                 (0, 5), (0, -2), (9, 2)])
def test_smallcase_all_valid_params(l, m):
    checks, _, _ = verify_smallcase_matrices(context(BlobParams(2, l, m)))
    assert all(c.ok for c in checks), (l, m)
