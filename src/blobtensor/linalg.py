"""Exact sparse linear algebra over the package's coefficient fields.

Vectors are dicts {index: scalar} with no stored zeros; matrices are lists of
column dicts (column j maps row index -> scalar).  Everything is elimination
based and division-exact; there are no tolerances anywhere.

The kernels below (`vec_add_scaled`, `vec_scale`, `vec_sub`, `mat_vec`,
`mat_mul`, `mat_sub_scalar_diag` and the reduction of `SpanSolver`) take
their operands from one field.  Every product c * x and sum cur + p is read
from that field's memo tables (`scalars.memos`), keyed by the operand pair;
only a miss goes through the scalar operator, which computes and stores the
result and raises TypeError on operands of another field.  A sum that is the
field's zero object removes its entry.  Scalars are interned, so two vectors
or matrices are equal exactly when they are `==` as dicts or lists: the
containers compare values by identity first, and distinct scalars of one
field are unequal.

Ranks may also be read over F_p, through a field's `ModularMap`, on vectors
of residues: a rank mod p is only a lower bound, so `certified_rank`
accepts it only with an exact annihilator certificate and otherwise returns
None, leaving the exact elimination to decide.
"""

from __future__ import annotations

from .scalars import memos


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------

def vec_add_scaled(acc, v, c):
    """acc += c * v in place (acc a dict, never aliased with v)."""
    products, sums, zero = memos(c)
    if c is zero:
        return acc
    for i, x in v.items():
        p = products.get((c, x))
        if p is None:
            p = c * x
        cur = acc.get(i)
        if cur is None:
            acc[i] = p
        else:
            s = sums.get((cur, p))
            if s is None:
                s = cur + p
            if s is zero:
                del acc[i]
            else:
                acc[i] = s
    return acc


def vec_scale(v, c):
    products, _, zero = memos(c)
    if c is zero:
        return {}
    out = {}
    for i, x in v.items():
        p = products.get((c, x))
        out[i] = c * x if p is None else p
    return out


def vec_sub(a, b):
    out = dict(a)
    if not b:
        return out
    _, sums, zero = memos(next(iter(b.values())))
    for i, x in b.items():
        x = -x
        cur = out.get(i)
        if cur is None:
            out[i] = x
        else:
            s = sums.get((cur, x))
            if s is None:
                s = cur + x
            if s is zero:
                del out[i]
            else:
                out[i] = s
    return out


# ---------------------------------------------------------------------------
# incremental row echelon (optionally tracking combinations)
# ---------------------------------------------------------------------------

class SpanSolver:
    """Row-echelon span of a growing family of sparse vectors.

    Given the field's one (which every tracked insert needs, so it is passed
    in rather than obtained by an inversion), every stored row remembers its
    expression in terms of the inserted generators, and an insert that does
    not raise the rank leaves the linear relation it found in `relation`:
    {tag: scalar} with the rejected vector's own tag at coefficient one
    (absent when that vector was zero), summing to zero.  `nullspace` reads
    its kernel vectors from these relations.
    """

    def __init__(self, one=None):
        self.rows = {}  # pivot index -> reduced row (pivot coefficient 1)
        self.one = one  # the field's one when tracking, else None
        self.combos = None if one is None else {}  # pivot -> {tag: scalar}
        self.rank = 0
        self.relation = None

    def _reduce(self, vec, combo=None):
        # subtracting c times the row of pivot i cancels vec[i] = c against
        # the row's coefficient one, so the kernel removes that entry too
        vec = dict(vec)
        while vec:
            i = min(vec)
            row = self.rows.get(i)
            if row is None:
                return i, vec, combo
            c = -vec[i]
            vec_add_scaled(vec, row, c)
            if combo is not None:
                vec_add_scaled(combo, self.combos[i], c)
        return None, vec, combo

    def insert(self, vec, tag=None):
        """Add a vector to the span.  Returns True if the rank grew."""
        combo = None
        if self.one is not None:
            combo = {tag: self.one} if vec else {}
        piv, red, combo = self._reduce(vec, combo)
        if piv is None:
            self.relation = combo
            return False
        cinv = red[piv].inv()
        self.rows[piv] = vec_scale(red, cinv)
        if combo is not None:
            self.combos[piv] = vec_scale(combo, cinv)
        self.rank += 1
        return True

    def contains(self, vec):
        piv, _, _ = self._reduce(vec)
        return piv is None


def span_rank(vectors):
    s = SpanSolver()
    for v in vectors:
        s.insert(v)
    return s.rank


# ---------------------------------------------------------------------------
# matrices: list of column dicts
# ---------------------------------------------------------------------------

def mat_identity(dim, one):
    return [{i: one} for i in range(dim)]


def _columns(a, b):
    """The columns of a @ b, column by column in one loop (F. G. Gustavson,
    ACM TOMS 4(3), 1978).  `mat_vec` calls this rather than `mat_mul`, so
    that a trace of `mat_mul` (perfbench/layers.py) counts matrix products
    only."""
    first = next((c for col in b for c in col.values()), None)
    if first is None:
        return [{} for _ in b]
    products, sums, zero = memos(first)
    out = []
    for col in b:
        acc = {}
        for k, c in col.items():
            for i, x in a[k].items():
                p = products.get((c, x))
                if p is None:
                    p = c * x
                cur = acc.get(i)
                if cur is None:
                    acc[i] = p
                else:
                    s = sums.get((cur, p))
                    if s is None:
                        s = cur + p
                    if s is zero:
                        del acc[i]
                    else:
                        acc[i] = s
        out.append(acc)
    return out


def mat_vec(cols, v):
    return _columns(cols, (v,))[0]


def mat_mul(a, b):
    """Matrix product a @ b, both lists of column dicts."""
    return _columns(a, b)


def mat_scale(a, c):
    return [vec_scale(col, c) for col in a]


def mat_sub_scalar_diag(a, c):
    """a - c * I."""
    _, sums, zero = memos(c)
    c = -c
    out = []
    for j, col in enumerate(a):
        col = dict(col)
        cur = col.get(j)
        if cur is None:
            if c is not zero:
                col[j] = c
        else:
            s = sums.get((cur, c))
            if s is None:
                s = cur + c
            if s is zero:
                del col[j]
            else:
                col[j] = s
        out.append(col)
    return out


def mat_is_zero(a):
    return all(not col for col in a)


def mat_transpose(a, nrows):
    out = [{} for _ in range(nrows)]
    for j, col in enumerate(a):
        for i, x in col.items():
            out[i][j] = x
    return out


# ---------------------------------------------------------------------------
# kernels and closures
# ---------------------------------------------------------------------------

def nullspace(cols, one):
    """Kernel basis of the linear map with the given columns; rows live in
    any index set.  Column j that is a combination sum_t c_t col_t of the
    earlier independent columns gives the kernel vector e_j - sum_t c_t e_t,
    read off the relation that rejected it.  Returns sparse vectors."""
    span = SpanSolver(one)
    basis = []
    for j, col in enumerate(cols):
        if not span.insert(col, tag=j):
            v = span.relation
            v.pop(j, None)
            v[j] = one
            basis.append(v)
    return basis


def _closure(span, seeds, matrices, apply, stop=None):
    """Grow `span` (anything with `insert(vec, tag)` and `rank`) to the
    smallest subspace holding the seeds and invariant under every matrix,
    applied as `apply(matrix, vec)`: the seeds in order, then each matrix
    over each frontier vector, until the rank reaches `stop`.  Each accepted
    vector is tagged with its origin: (None, k) for seed k, (i, a) for
    matrix i applied to accepted vector a."""
    frontier = []
    for k, v in enumerate(seeds):
        if span.insert(v, (None, k)):
            frontier.append((span.rank - 1, v))
    while frontier and span.rank != stop:
        new_frontier = []
        for i, m in enumerate(matrices):
            for a, v in frontier:
                w = apply(m, v)
                if span.insert(w, (i, a)):
                    if span.rank == stop:
                        return span
                    new_frontier.append((span.rank - 1, w))
        frontier = new_frontier
    return span


def invariant_closure(seed_vectors, matrices):
    """Span of the smallest subspace containing the seeds and invariant under
    every matrix; returns the SpanSolver holding it."""
    return _closure(SpanSolver(), seed_vectors, matrices, mat_vec)


# ---------------------------------------------------------------------------
# ranks over F_p, certified exactly
# ---------------------------------------------------------------------------

class ModSpan:
    """Span over F_p of sparse vectors of residues (ints in [0, p)), kept
    in reduced row echelon form: a row has no entry in another row's pivot
    column, so reducing a vector takes one pass over its entries, and near
    full rank the rows are short.  The pivot of a new row is its column
    with the fewest entries among the stored rows, the smallest such index
    on ties (Markowitz's rule), and a column index names the rows to clear
    in it.  Whether a vector is accepted depends only on the span, never on
    the pivots.  `tags` lists the tags of the accepted vectors in order."""

    def __init__(self, p):
        self.p = p
        self.rows = {}  # pivot index -> row without its pivot entry
        self.cols = {}  # column -> pivots whose row has an entry there
        self.tags = []

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, vec, tag=None):
        """Add a vector to the span.  Returns True if the rank grew."""
        p, rows, cols = self.p, self.rows, self.cols
        red = {}
        for i, x in vec.items():
            row = rows.get(i)
            if row is None:
                red[i] = red.get(i, 0) + x
            else:
                for j, y in row.items():
                    red[j] = red.get(j, 0) - x * y
        red = _nonzero_mod(red, p)
        if not red:
            return False
        piv = min(red, key=lambda j: (len(cols.get(j, ())), j))
        cinv = pow(red.pop(piv), -1, p)
        new = {j: x * cinv % p for j, x in red.items()}
        for r in cols.pop(piv, ()):
            row = rows[r]
            c = row.pop(piv)
            for j, x in new.items():
                s = (row.get(j, 0) - c * x) % p
                if s:
                    if j not in row:
                        cols.setdefault(j, set()).add(r)
                    row[j] = s
                elif j in row:
                    del row[j]
                    cols[j].discard(r)
        rows[piv] = new
        for j in new:
            cols.setdefault(j, set()).add(piv)
        self.tags.append(tag)
        return True


def _nonzero_mod(acc, p):
    """The nonzero residues mod p of a vector of raw integer sums: one
    reduction per entry, after the accumulation."""
    out = {}
    for j, x in acc.items():
        x %= p
        if x:
            out[j] = x
    return out


def _mat_vec_mod(cols, v, p):
    out = {}
    for i, c in v.items():
        for j, x in cols[i].items():
            out[j] = out.get(j, 0) + c * x
    return _nonzero_mod(out, p)


def _dot(y, v):
    """y.v, or None when no index is shared."""
    if len(y) > len(v):
        y, v = v, y
    acc = None
    for i, x in y.items():
        z = v.get(i)
        if z is not None:
            acc = x * z if acc is None else acc + x * z
    return acc


def _annihilates(ys, vectors):
    for y in ys:
        for v in vectors:
            d = _dot(y, v)
            if d is not None and not d.is_zero():
                return False
    return True


def left_kernel(vectors, dim, one):
    """Basis of the row vectors y with y.v = 0 for every given v: the kernel
    of the transposed family."""
    return nullspace(mat_transpose(vectors, dim), one)


def certified_rank(seed_vectors, matrices, dim, modular, one, ys=None,
                   residues=None):
    """Exact rank of invariant_closure(seed_vectors, matrices) in a
    dim-dimensional space, read mod p through `modular`, with the left
    kernel Y that certifies it: (rank, Y), or None.  With no matrices the
    closure is the span of the seeds.

    The closure mod p is spanned by residues of vectors of the exact
    closure, so the rank r of any part of it is a lower bound, and r = dim
    proves full rank.  Below it, if Y annihilates every seed and y.M lies in
    span(Y) for every y in Y and every matrix M, then Y^perp is an invariant
    subspace of dimension dim - |Y| holding the seeds, so it holds the
    closure, and r = dim - |Y| proves the rank; the closure mod p stops
    there.  Y defaults to the exact left kernel of the vectors accepted mod
    p, rebuilt from their origins.

    `residues`, when given, returns the matrices already reduced by
    `modular` (a caller's stored residues); it is called here, so that a
    vanishing denominator still returns None.  `matrices` may then be a
    function that builds the exact matrices, called only when the
    certificate reads them, that is, below full rank."""
    p = modular.p
    try:
        seeds = [modular.vec(v) for v in seed_vectors]
        reduced = [modular.mat(m) for m in matrices] if residues is None \
            else residues()
        span = _closure(ModSpan(p), seeds, reduced,
                        lambda m, v: _mat_vec_mod(m, v, p),
                        dim if ys is None else dim - len(ys))
    except ZeroDivisionError:
        return None
    r = span.rank
    if r == dim:
        return r, []
    if callable(matrices):
        matrices = matrices()
    if ys is None:
        accepted = []
        for i, a in span.tags:
            accepted.append(seed_vectors[a] if i is None
                            else mat_vec(matrices[i], accepted[a]))
        ys = left_kernel(accepted, dim, one)
    if r != dim - len(ys) or not _annihilates(ys, seed_vectors):
        return None
    if matrices:
        kernel = SpanSolver()
        for y in ys:
            kernel.insert(y)
        for m in matrices:
            for y in ys:
                row = {}
                for j, col in enumerate(m):
                    d = _dot(y, col)
                    if d is not None and not d.is_zero():
                        row[j] = d
                if not kernel.contains(row):
                    return None
    return r, ys
