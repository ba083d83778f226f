"""Sparse exact elimination: checked against brute-force Fraction oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blobtensor.linalg import (certified_rank, invariant_closure, mat_eq,
                               mat_identity, mat_mul, mat_transpose, mat_vec,
                               nullspace, span_rank, vec_sub)
from blobtensor.scalars import GENERIC, cyclotomic_field


def to_sparse(row, field):
    return {j: field.from_int(c) for j, c in enumerate(row) if c}


def dense_rank_fractions(rows):
    """Brute-force row reduction over Fraction, the oracle for ranks."""
    rows = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    pivot_row = 0
    for col in range(ncols):
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                rows[pivot_row], rows[r] = rows[r], rows[pivot_row]
                break
        else:
            continue
        pv = rows[pivot_row][col]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                f = rows[r][col] / pv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
    return rank


matrices = st.lists(
    st.lists(st.integers(-4, 4), min_size=4, max_size=4),
    min_size=1, max_size=6)


@given(matrices)
@settings(max_examples=120)
def test_span_rank_matches_fraction_oracle(rows):
    sparse = [to_sparse(r, GENERIC) for r in rows]
    rank = dense_rank_fractions(rows)
    assert span_rank(sparse) == rank
    # the rank must not depend on the insertion order
    assert span_rank(sparse[::-1]) == rank


@pytest.mark.parametrize("field", [GENERIC, cyclotomic_field(5)],
                         ids=["generic", "cyc5"])
@given(rows=matrices)
@settings(max_examples=80)
def test_nullspace_and_rank_nullity(field, rows):
    # interpret the rows as columns of a map; kernel vectors must be killed
    cols = [to_sparse(r, field) for r in rows]
    dim = len(cols)
    basis = nullspace(cols, field.one)
    assert len(basis) == dim - dense_rank_fractions(rows)
    for v in basis:
        assert mat_vec(cols, v) == {}
        # one kernel vector per column that depends on the earlier ones,
        # with coefficient one at that column
        j = max(v)
        assert v[j] == field.one
        assert span_rank(cols[:j + 1]) == span_rank(cols[:j])
    assert len({max(v) for v in basis}) == len(basis)
    # kernel vectors are independent
    assert span_rank(basis) == len(basis)


def test_matrix_helpers():
    one = GENERIC.one
    q = GENERIC.q
    a = [{0: q}, {0: one, 1: q}]           # columns
    ident = mat_identity(2, one)
    assert mat_eq(mat_mul(a, ident), a)
    assert mat_eq(mat_mul(ident, a), a)
    at = mat_transpose(a, 2)
    assert at[0] == {0: q, 1: one}
    assert mat_eq(mat_transpose(at, 2), a)
    assert vec_sub(a[1], a[1]) == {}


def test_invariant_closure_cyclic():
    # shift matrix on 4 coordinates: closure of e0 is everything
    F = cyclotomic_field(5)
    shift = [{(j + 1) % 4: F.one} for j in range(4)]
    span = invariant_closure([{0: F.one}], [shift])
    assert span.rank == 4
    # block matrix: closure of e0 under a block-diagonal map stays in block
    block = [{0: F.q}, {1: F.q}, {3: F.one}, {2: F.one}]
    span = invariant_closure([{0: F.one}], [block])
    assert span.rank == 1
    span = invariant_closure([{2: F.one}], [block])
    assert span.rank == 2


def test_full_rank_mod_p_is_certified_without_a_kernel(monkeypatch):
    # full rank mod p proves full rank: no exact left kernel is computed,
    # and a caller's Y cannot turn the proof down
    F = cyclotomic_field(5)
    one = F.one
    swap = [{1: one}, {0: one}]

    def refuse(*args):
        raise AssertionError("exact left kernel at full rank")

    monkeypatch.setattr("blobtensor.linalg.left_kernel", refuse)
    plane = [{0: one}, {1: one}]
    assert certified_rank(plane, [], 2, F.modular, one) == (2, [])
    assert certified_rank([{0: one}], [swap], 2, F.modular, one) == (2, [])
    assert certified_rank(plane, [swap], 2, F.modular, one,
                          [{0: one}]) == (2, [])


def test_nullspace_inverts_once_per_pivot(monkeypatch):
    # the tracked inserts know the field's one: the only inversions left
    # are the pivot normalizations, and the kernel is unchanged
    from blobtensor.scalars import CycScalar

    F = cyclotomic_field(5)
    q, one = F.q, F.one
    c0 = {0: q, 1: one}
    c2 = {1: q + one, 2: q ** 3}
    cols = [c0, {0: q * q, 1: q}, c2, {0: q, 1: q + one + one, 2: q ** 3},
            {2: F.from_int(2)}]
    rank = span_rank(cols)
    calls = []
    real = CycScalar.inv
    monkeypatch.setattr(CycScalar, "inv",
                        lambda self: calls.append(self) or real(self))
    kernel = nullspace(cols, one)
    assert len(calls) == rank == 3
    assert kernel == [{0: -q, 1: one}, {0: -one, 2: -one, 3: one}]
