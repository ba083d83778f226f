"""Sparse exact elimination: checked against brute-force Fraction oracles."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blobtensor.linalg import (SpanSolver, certified_rank, invariant_closure,
                               mat_identity, mat_mul, mat_sub_scalar_diag,
                               mat_transpose, mat_vec, nullspace, span_rank,
                               vec_add_scaled, vec_scale, vec_sub)
from blobtensor.scalars import (GENERIC, CycScalar, CyclotomicField,
                                cyclotomic_field)


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
    assert mat_mul(a, ident) == a
    assert mat_mul(ident, a) == a
    at = mat_transpose(a, 2)
    assert at[0] == {0: q, 1: one}
    assert mat_transpose(at, 2) == a
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


# ---------------------------------------------------------------------------
# the fused kernels against references built only from the scalar operators
# ---------------------------------------------------------------------------

KERNEL_FIELDS = {
    "generic": lambda: GENERIC,
    "cyc5": lambda: cyclotomic_field(5),
    "cyc7": lambda: cyclotomic_field(7),
    # a field no other test has touched: its memos start empty, so the
    # kernels go through the operators on (almost) every product and sum
    "fresh-cyc5": lambda: CyclotomicField(5),
    "fresh-cyc7": lambda: CyclotomicField(7),
}

cells = st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 3))


def scalar(field, cell):
    a, b, e = cell
    return field.from_int(a) + field.from_int(b) * field.q_pow(e)


def sparse_matrix(data, field, nrows, ncols):
    """ncols random columns on nrows rows, about half their entries zero
    (some cancel only once a + b q^e is formed), none of them stored."""
    out = []
    for _ in range(ncols):
        col = {}
        for i in range(nrows):
            if data.draw(st.booleans()):
                x = scalar(field, data.draw(cells))
                if not x.is_zero():
                    col[i] = x
        out.append(col)
    return out


def ref_vec(entries, zero):
    return {i: x for i, x in entries if not x.is_zero()}


def ref_mat_mul(a, b, nrows, zero):
    out = []
    for col in b:
        sums = []
        for i in range(nrows):
            s = zero
            for k, c in col.items():
                x = a[k].get(i)
                if x is not None:
                    s = s + c * x
            sums.append((i, s))
        out.append(ref_vec(sums, zero))
    return out


def ref_rank(vectors, nrows, zero):
    rows = [[v.get(i, zero) for i in range(nrows)] for v in vectors]
    rank = 0
    for j in range(nrows):
        piv = next((r for r in range(rank, len(rows))
                    if not rows[r][j].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][j].inv()
        for r in range(len(rows)):
            if r != rank and not rows[r][j].is_zero():
                f = rows[r][j] * inv
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def no_stored_zero(*vectors):
    return all(not x.is_zero() for v in vectors for x in v.values())


@pytest.mark.parametrize("make_field", KERNEL_FIELDS.values(),
                         ids=KERNEL_FIELDS.keys())
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_kernels_match_operator_reference(make_field, data):
    F = make_field()
    zero = F.zero
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = sparse_matrix(data, F, n, k)
    b = sparse_matrix(data, F, k, m)
    v, w = a[0], a[-1]
    c = scalar(F, data.draw(cells))
    # the kernels run first, so on a fresh field they meet empty memos
    got_mul = mat_mul(a, b)
    got_vec = mat_vec(a, b[0])
    got_add = vec_add_scaled(dict(v), w, c)
    got_scale = vec_scale(v, c)
    got_sub = vec_sub(v, w)
    got_diag = mat_sub_scalar_diag(a, c)
    assert got_mul == ref_mat_mul(a, b, n, zero)
    assert got_vec == ref_mat_mul(a, [b[0]], n, zero)[0]
    keys = set(v) | set(w)
    assert got_add == ref_vec(((i, v.get(i, zero) + c * w.get(i, zero))
                               for i in keys), zero)
    assert got_scale == ref_vec(((i, c * x) for i, x in v.items()), zero)
    assert got_sub == ref_vec(((i, v.get(i, zero) - w.get(i, zero))
                               for i in keys), zero)
    assert got_diag == [
        ref_vec(((i, col.get(i, zero) - (c if i == j else zero))
                 for i in set(col) | {j}), zero)
        for j, col in enumerate(a)]
    assert no_stored_zero(got_vec, got_add, got_scale, got_sub, *got_mul,
                          *got_diag)
    # columns that cancel: a duplicated column taken with c and -c, and a
    # vector added to -1 times itself
    if not c.is_zero():
        dup = a + [a[0]]
        assert mat_mul(dup, [{0: c, k: -c}]) == [{}]
        assert vec_add_scaled(vec_scale(v, c), v, -c) == {}
    assert vec_sub(v, v) == {}


@pytest.mark.parametrize("make_field", KERNEL_FIELDS.values(),
                         ids=KERNEL_FIELDS.keys())
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_span_solver_matches_operator_reference(make_field, data):
    F = make_field()
    zero = F.zero
    n, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    cols = sparse_matrix(data, F, n, k)
    if k > 1 and data.draw(st.booleans()):
        # a column that is a combination of two others
        c = scalar(F, data.draw(cells))
        cols.append(vec_add_scaled(dict(cols[0]), cols[1], c))
    span = SpanSolver()
    for col in cols:
        span.insert(col)
    assert span.rank == ref_rank(cols, n, zero)
    assert all(span.contains(col) for col in cols)
    assert no_stored_zero(*span.rows.values())
    basis = nullspace(cols, F.one)
    assert len(basis) == len(cols) - span.rank
    prefix = [ref_rank(cols[:t], n, zero) for t in range(len(cols) + 1)]
    for v in basis:
        # the relation that rejected column j: coefficient one at j, the
        # rest on earlier independent columns, killed by the matrix; these
        # conditions determine it uniquely
        j = max(v)
        assert v[j] == F.one and prefix[j + 1] == prefix[j]
        assert all(prefix[t + 1] > prefix[t] for t in v if t != j)
        assert ref_mat_mul(cols, [v], n, zero) == [{}]
        assert no_stored_zero(v)


def test_a_repeated_kernel_call_reads_every_result_from_the_memos(
        monkeypatch):
    # products are keyed (c, x) and sums (cur, p), as the operators store
    # them: after one call, the same call asks no operator for anything
    F = CyclotomicField(5)
    q, one = F.q, F.one
    a = [{0: q, 1: one + q}, {0: q * q, 2: -one}, {1: q + q, 2: q}]
    b = [{0: one, 1: q, 2: -q}, {2: q * q}, {0: -one, 1: one}]
    first = (mat_mul(a, b), mat_sub_scalar_diag(a, q),
             vec_add_scaled(dict(a[0]), a[1], q), vec_scale(a[0], q),
             vec_sub(a[0], a[2]), nullspace(a + b, one))

    def refuse(*args):
        raise AssertionError("a memoized result went through the operator")

    for op in ("__mul__", "__rmul__", "__add__", "__radd__"):
        monkeypatch.setattr(CycScalar, op, refuse)
    again = (mat_mul(a, b), mat_sub_scalar_diag(a, q),
             vec_add_scaled(dict(a[0]), a[1], q), vec_scale(a[0], q),
             vec_sub(a[0], a[2]), nullspace(a + b, one))
    assert again == first


MIXED = {
    "cyc5-cyc7": (lambda: cyclotomic_field(5), lambda: cyclotomic_field(7)),
    "generic-cyc5": (lambda: GENERIC, lambda: cyclotomic_field(5)),
    "cyc5-generic": (lambda: cyclotomic_field(5), lambda: GENERIC),
}


@pytest.mark.parametrize("fields", MIXED.values(), ids=MIXED.keys())
def test_mixed_fields_raise_through_every_kernel(fields):
    F, G = (make() for make in fields)
    x, y = F.q + F.one, G.q + G.one
    u, v = {0: x, 1: F.q}, {0: y, 1: G.q}
    # the first operand's memos already hold its own pairs, so a lookup
    # that ignored the second operand's field would find something
    vec_add_scaled(dict(u), u, x)
    mat_mul([u, u], [u, u])
    mat_sub_scalar_diag([u, u], x)
    calls = [
        lambda: vec_add_scaled(dict(u), v, x),
        lambda: vec_add_scaled(dict(u), u, y),
        lambda: vec_add_scaled(dict(v), u, x),
        lambda: vec_scale(u, y),
        lambda: vec_sub(u, v),
        lambda: mat_vec([u, u], v),
        lambda: mat_mul([u, u], [v]),
        lambda: mat_mul([v, v], [u]),
        lambda: mat_sub_scalar_diag([u, u], y),
        lambda: span_rank([u, v]),
        lambda: nullspace([u, v], F.one),
        lambda: u == v,
        lambda: [u] == [v],
        lambda: u != v,
    ]
    for k, call in enumerate(calls):
        with pytest.raises(TypeError):
            call()
            pytest.fail(f"call {k} mixed two fields without a TypeError")
