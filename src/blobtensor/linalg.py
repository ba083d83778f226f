"""Exact sparse linear algebra over the package's coefficient fields.

Vectors are dicts {index: scalar} with no stored zeros; matrices are lists of
column dicts (column j maps row index -> scalar).  Everything is elimination
based and division-exact; there are no tolerances anywhere.

Ranks may also be read over F_p, through a field's `ModularMap`, on vectors
of residues: a rank mod p is only a lower bound, so `certified_rank`
accepts it only with an exact annihilator certificate and otherwise returns
None, leaving the exact elimination to decide.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# sparse vectors
# ---------------------------------------------------------------------------

def vec_add_scaled(acc, v, c):
    """acc += c * v in place (acc a dict, never aliased with v)."""
    if c.is_zero():
        return acc
    for i, x in v.items():
        cur = acc.get(i)
        if cur is None:
            acc[i] = c * x
        else:
            s = cur + c * x
            if s.is_zero():
                del acc[i]
            else:
                acc[i] = s
    return acc


def vec_scale(v, c):
    if c.is_zero():
        return {}
    return {i: c * x for i, x in v.items()}


def vec_sub(a, b):
    out = dict(a)
    for i, x in b.items():
        cur = out.get(i)
        if cur is None:
            out[i] = -x
        else:
            s = cur - x
            if s.is_zero():
                del out[i]
            else:
                out[i] = s
    return out


def vec_eq(a, b):
    if len(a) != len(b):
        return False
    for i, x in a.items():
        y = b.get(i)
        if y is None or x != y:
            return False
    return True


# ---------------------------------------------------------------------------
# incremental row echelon (optionally tracking combinations)
# ---------------------------------------------------------------------------

class SpanSolver:
    """Row-echelon span of a growing family of sparse vectors.

    Given the field's one (which every tracked insert needs, so it is passed
    in rather than obtained by an inversion), every stored row remembers its
    expression in terms of the inserted generators, so `express` can write a
    vector as an explicit linear combination of the generators that were
    accepted or rejected so far, and an insert that does not raise the rank
    leaves the linear relation it found in `relation`: {tag: scalar} with the
    rejected vector's own tag at coefficient one (absent when that vector was
    zero), summing to zero.
    """

    def __init__(self, one=None):
        self.rows = {}  # pivot index -> reduced row (pivot coefficient 1)
        self.one = one  # the field's one when tracking, else None
        self.combos = None if one is None else {}  # pivot -> {tag: scalar}
        self.rank = 0
        self.relation = None

    def _reduce(self, vec, combo=None):
        vec = dict(vec)
        while vec:
            i = min(vec)
            row = self.rows.get(i)
            if row is None:
                return i, vec, combo
            c = vec[i]
            del vec[i]
            for j, x in row.items():
                if j == i:
                    continue
                cur = vec.get(j)
                s = (cur - c * x) if cur is not None else -(c * x)
                if s.is_zero():
                    vec.pop(j, None)
                else:
                    vec[j] = s
            if combo is not None:
                vec_add_scaled(combo, self.combos[i], -c)
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
        c = red[piv]
        cinv = c.inv()
        row = {j: cinv * x for j, x in red.items()}
        self.rows[piv] = row
        if combo is not None:
            self.combos[piv] = vec_scale(combo, cinv)
        self.rank += 1
        return True

    def contains(self, vec):
        piv, _, _ = self._reduce(vec)
        return piv is None

    def express(self, vec):
        """Write vec as {tag: coeff} over the inserted generators, or None."""
        if self.one is None:
            raise ValueError("SpanSolver built without the field's one")
        piv, _, combo = self._reduce(dict(vec), {})
        if piv is not None:
            return None
        return {t: -c for t, c in combo.items()}


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


def mat_vec(cols, v):
    out = {}
    for i, c in v.items():
        vec_add_scaled(out, cols[i], c)
    return out


def mat_mul(a, b):
    """Matrix product a @ b, both lists of column dicts."""
    return [mat_vec(a, col) for col in b]


def mat_scale(a, c):
    return [vec_scale(col, c) for col in a]


def mat_sub_scalar_diag(a, c):
    """a - c * I.  Generator matrices repeat a few diagonal values, so each
    distinct value is shifted once."""
    shifted = {}
    out = []
    for j, col in enumerate(a):
        col = dict(col)
        cur = col.get(j)
        s = shifted.get(cur)
        if s is None:
            s = shifted[cur] = (cur - c) if cur is not None else -c
        if s.is_zero():
            col.pop(j, None)
        else:
            col[j] = s
        out.append(col)
    return out


def mat_eq(a, b):
    return len(a) == len(b) and all(vec_eq(x, y) for x, y in zip(a, b))


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
    full rank the rows are short.  `tags` lists the tags of the accepted
    vectors in order."""

    def __init__(self, p):
        self.p = p
        self.rows = {}  # pivot index -> row without its pivot entry
        self.tags = []

    @property
    def rank(self):
        return len(self.rows)

    def insert(self, vec, tag=None):
        """Add a vector to the span.  Returns True if the rank grew."""
        p, rows = self.p, self.rows
        red = {}
        for i, x in vec.items():
            row = rows.get(i)
            if row is None:
                red[i] = red.get(i, 0) + x
            else:
                for j, y in row.items():
                    red[j] = red.get(j, 0) - x * y
        red = {j: x % p for j, x in red.items() if x % p}
        if not red:
            return False
        piv = min(red)
        cinv = pow(red.pop(piv), -1, p)
        new = {j: x * cinv % p for j, x in red.items()}
        for row in rows.values():
            c = row.pop(piv, None)
            if c is not None:
                for j, x in new.items():
                    s = (row.get(j, 0) - c * x) % p
                    if s:
                        row[j] = s
                    else:
                        row.pop(j, None)
        rows[piv] = new
        self.tags.append(tag)
        return True


def _mat_vec_mod(cols, v, p):
    out = {}
    for i, c in v.items():
        for j, x in cols[i].items():
            out[j] = (out.get(j, 0) + c * x) % p
    return {j: x for j, x in out.items() if x}


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


def certified_rank(seed_vectors, matrices, dim, modular, one, ys=None):
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
    p, rebuilt from their origins."""
    p = modular.p
    try:
        span = _closure(ModSpan(p), [modular.vec(v) for v in seed_vectors],
                        [modular.mat(m) for m in matrices],
                        lambda m, v: _mat_vec_mod(m, v, p),
                        dim if ys is None else dim - len(ys))
    except ZeroDivisionError:
        return None
    r = span.rank
    if r == dim:
        return r, []
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
