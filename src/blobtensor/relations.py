"""Defining relations as data, and the one evaluator that checks them.

A relation is (name, lhs, rhs).  Each side is a sum of terms
c * (w1 - s1) ... (wk - sk), where a word w is a product of generator symbols
(the rightmost acts first), c is a scalar or None for 1, and s is a scalar or
None for 0.  A side with no terms is the zero operator; the empty word is the
identity.

`evaluate` checks lhs = rhs as matrices on each block of a representation.
A block is (basis, matrices) with `matrices` mapping every generator symbol
to its column matrix on `basis`; the blocks are read once, and no block at
all is an error, not a pass.  For V^(x)n the blocks are the weight
modules M_n(lam) (`weightmod.module_blocks`): their bases cover every basis
word because every operator keeps the weight.  A failing relation names its
witness: the smallest basis label, over all blocks and whatever the order
within a block, whose columns differ -- for V^(x)n the first word of
`all_words(n)` on which the two sides differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .linalg import (mat_identity, mat_mul, mat_sub_scalar_diag,
                     vec_add_scaled)


@dataclass(frozen=True)
class RelationCheck:
    """A verdict and its witness, None when the check holds or names none:
    a basis word or a descriptive string (`n=...,lambda=...`, `i=...`,
    `w1|w2`), a column index from `evaluate` on a matrix block, or the pair
    (count, dim) of `phi_bijective`."""

    name: str
    ok: bool
    first_failure: str | int | tuple[int, int] | None = None

    def to_record(self):
        return {"relation": self.name, "ok": self.ok,
                "first_failure": self.first_failure}


class Relation(NamedTuple):
    name: str
    lhs: tuple
    rhs: tuple


ZERO = ()


def word(*symbols, c=None):
    """The side c * symbols[0] ... symbols[-1]."""
    return ((c, ((symbols, None),)),)


def product(*factors):
    """The side (w1 - s1) ... (wk - sk) for factors (w, s), w a tuple of
    symbols."""
    return ((None, factors),)


def commute(a, b):
    return Relation(f"commute({a},{b})", word(a, b), word(b, a))


def blob_identity(g1, ctx):
    """The quotient identity (X g1 X g1 - lam1 lam2)(g1 - q) = 0."""
    return Relation("blob_identity",
                    product((("X", g1, "X", g1), ctx.lam1 * ctx.lam2),
                            ((g1,), ctx.q)),
                    ZERO)


def ariki_koike_relations(g, ctx, identity=True):
    """The type-B Ariki-Koike relations on X and the Hecke generators g
    (g[0] braids with X), with the blob identity after the mixed braid
    unless identity=False."""
    rels = [Relation(f"quadratic({a})",
                     product(((a,), ctx.q), ((a,), -ctx.qinv)), ZERO)
            for a in g]
    for i, a in enumerate(g):
        if i + 1 < len(g):
            b = g[i + 1]
            rels.append(Relation(f"braid({a},{b})",
                                 word(a, b, a), word(b, a, b)))
        rels += [commute(a, b) for b in g[i + 2:]]
    if g:
        a = g[0]
        rels.append(Relation(f"mixed_braid({a},X)",
                             word(a, "X", a, "X"), word("X", a, "X", a)))
        if identity:
            rels.append(blob_identity(a, ctx))
    rels += [commute("X", b) for b in g[1:]]
    rels.append(Relation("quadratic(X)",
                         product((("X",), ctx.lam1), (("X",), ctx.lam2)),
                         ZERO))
    return rels


def blob_relations(u, ctx):
    """The blob-algebra relations on the generators u = (U0, U1, ...):
    [2] = q + q^-1, [m] = lam1 - lam2, [m-1] = q^-1 lam1 - q lam2."""
    two = ctx.q + ctx.qinv
    m = ctx.lam1 - ctx.lam2
    rels = [Relation(f"squared({a})", word(a, a),
                     word(a, c=-(m if i == 0 else two)))
            for i, a in enumerate(u)]
    for a, b in zip(u[1:], u[2:]):
        rels.append(Relation(f"tl({a},{b})", word(a, b, a), word(a)))
        rels.append(Relation(f"tl({b},{a})", word(b, a, b), word(b)))
    if len(u) > 1:
        m1 = ctx.qinv * ctx.lam1 - ctx.q * ctx.lam2
        rels.append(Relation(f"blob({u[1]},{u[0]},{u[1]})",
                             word(u[1], u[0], u[1]), word(u[1], c=m1)))
    for i, a in enumerate(u):
        rels += [commute(a, b) for b in u[i + 2:]]
    return rels


# ---------------------------------------------------------------------------
# the evaluator
# ---------------------------------------------------------------------------

def evaluate(relations, blocks, one):
    """One RelationCheck per relation, in order, over all blocks; raises
    ValueError on an empty block stream, which would pass vacuously."""
    witness = [None] * len(relations)
    seen = False
    for basis, mats in blocks:
        seen = True
        dim = len(basis)
        products = {(): mat_identity(dim, one)}
        for k, rel in enumerate(relations):
            lhs = _side(rel.lhs, mats, products, dim, one)
            rhs = _side(rel.rhs, mats, products, dim, one)
            if lhs == rhs:
                continue
            bad = min(basis[j] for j in range(dim) if lhs[j] != rhs[j])
            if witness[k] is None or bad < witness[k]:
                witness[k] = bad
    if not seen:
        raise ValueError("no block to check the relations on")
    return [RelationCheck(rel.name, bad is None, bad)
            for rel, bad in zip(relations, witness)]


def _word_matrix(w, mats, products):
    m = products.get(w)
    if m is None:
        m = mats[w[0]] if len(w) == 1 else \
            mat_mul(mats[w[0]], _word_matrix(w[1:], mats, products))
        products[w] = m
    return m


def _side(terms, mats, products, dim, one):
    values = []
    for c, factors in terms:
        m = None
        for w, s in reversed(factors):
            f = _word_matrix(w, mats, products)
            if s is not None:
                f = mat_sub_scalar_diag(f, s)
            m = f if m is None else mat_mul(f, m)
        values.append((c, m))
    if len(values) == 1 and values[0][0] is None:
        return values[0][1]
    total = [{} for _ in range(dim)]
    for c, m in values:
        for acc, col in zip(total, m):
            vec_add_scaled(acc, col, one if c is None else c)
    return total
