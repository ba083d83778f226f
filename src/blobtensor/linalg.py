"""Exact sparse linear algebra over the package's coefficient fields.

Vectors are dicts {index: scalar} with no stored zeros; matrices are lists of
column dicts (column j maps row index -> scalar).  Everything is elimination
based and division-exact; there are no tolerances anywhere.
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

    With track=True every stored row remembers its expression in terms of the
    inserted generators, so `express` can write a vector as an explicit linear
    combination of the generators that were accepted or rejected so far, and
    an insert that does not raise the rank leaves the linear relation it
    found in `relation`: {tag: scalar} with the rejected vector's own tag at
    coefficient one (absent when that vector was zero), summing to zero.
    """

    def __init__(self, track=False):
        self.rows = {}  # pivot index -> reduced row (pivot coefficient 1)
        self.combos = {} if track else None  # pivot index -> {tag: scalar}
        self.track = track
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
        if self.track:
            one = None
            for x in vec.values():
                one = x / x
                break
            combo = {} if one is None else {tag: one}
        piv, red, combo = self._reduce(vec, combo)
        if piv is None:
            self.relation = combo
            return False
        c = red[piv]
        cinv = c.inv()
        row = {j: cinv * x for j, x in red.items()}
        self.rows[piv] = row
        if self.track:
            self.combos[piv] = vec_scale(combo, cinv)
        self.rank += 1
        return True

    def contains(self, vec):
        piv, _, _ = self._reduce(vec)
        return piv is None

    def express(self, vec):
        """Write vec as {tag: coeff} over the inserted generators, or None."""
        if not self.track:
            raise ValueError("SpanSolver built without track=True")
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
    """a - c * I."""
    out = []
    for j, col in enumerate(a):
        col = dict(col)
        cur = col.get(j)
        s = (cur - c) if cur is not None else -c
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
    span = SpanSolver(track=True)
    basis = []
    for j, col in enumerate(cols):
        if not span.insert(col, tag=j):
            v = span.relation
            v.pop(j, None)
            v[j] = one
            basis.append(v)
    return basis


def invariant_closure(seed_vectors, matrices):
    """Span of the smallest subspace containing the seeds and invariant under
    every matrix; returns the SpanSolver holding it."""
    span = SpanSolver()
    frontier = []
    for v in seed_vectors:
        if span.insert(v):
            frontier.append(v)
    while frontier:
        new_frontier = []
        for m in matrices:
            for v in frontier:
                w = mat_vec(m, v)
                if span.insert(w):
                    new_frontier.append(w)
        frontier = new_frontier
    return span
