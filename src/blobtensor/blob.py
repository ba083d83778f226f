"""The blob-algebra action on the tensor space.

The generators act through U_0 = X - lambda1 and U_i = T_{i+1} - q (i >= 1);
with lambda1 = q^m/(q - q^-1), lambda2 = q^-m/(q - q^-1) these satisfy the
defining relations

    U_i U_{i+-1} U_i = U_i,   U_i^2 = -[2] U_i          (i >= 1)
    U_0^2 = -[m] U_0,         U_1 U_0 U_1 = [m-1] U_1
    [U_i, U_j] = 0 for |i - j| >= 2.

The scalars are expressed through the context as [2] = q + q^-1,
[m] = lambda1 - lambda2 and [m-1] = q^-1 lambda1 - q lambda2, so the same
checks run unchanged on swapped or otherwise generalized parameters.

The abstract algebra is never materialized as a based algebra; only the
action matters here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import vec_scale
from .relations import (ZERO, Relation, ariki_koike_relations, blob_identity,
                        blob_relations, commute, evaluate, product)
from .scalars import context
from .tensor import op_T_ctx, op_X_ctx, ops_Xk_ctx, weight_blocks


@dataclass(frozen=True)
class BlobWord:
    """A scalar multiple of a product of generators U_{i1} ... U_{ik}."""

    factors: tuple
    coefficient: object = None

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))


class BlobAction:
    """The generators U_0 .. U_{n-1} as lazy operators on V^(x)n."""

    def __init__(self, n, ctx):
        self.n = n
        self.ctx = ctx
        self._gens = {}

    @staticmethod
    def from_params(params, n=None):
        return BlobAction(params.n if n is None else n, context(params))

    def generator(self, i):
        if not 0 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range 0..{self.n - 1}")
        op = self._gens.get(i)
        if op is None:
            if i == 0:
                op = op_X_ctx(self.n, self.ctx).minus_scalar(self.ctx.lam1)
            else:
                op = op_T_ctx(i + 1, self.n, self.ctx).minus_scalar(self.ctx.q)
            op.name = f"U{i}"
            self._gens[i] = op
        return op


def blob_generator(i, action):
    return action.generator(i)


def apply_word(word, v, action):
    """Apply a BlobWord (left-to-right product of generators, times its
    coefficient) to a vector or basis word."""
    if isinstance(v, str):
        if len(v) != action.n:
            raise ValueError("word length does not match the action")
        v = {v: action.ctx.one}
    else:
        for w in v:
            if len(w) != action.n:
                raise ValueError("vector length does not match the action")
        v = dict(v)
    for i in reversed(word.factors):
        v = action.generator(i)(v)
    if word.coefficient is not None:
        v = vec_scale(v, word.coefficient)
    return v


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------

def verify_blob_relations(n, params):
    """Check every defining relation of the blob algebra on every basis word
    of V^(x)n, through the matrices on each weight block; n = 1 has only
    U0."""
    action = BlobAction.from_params(params, n)
    ops = [action.generator(i) for i in range(n)]
    return evaluate(blob_relations([op.name for op in ops], action.ctx),
                    weight_blocks(n, ops), action.ctx.one)


def blob_relation_checks_matrices(um, ctx):
    """Blob relations as matrix identities for generator matrices um[0..n-1];
    returns (name, ok) pairs.  Reused for weight modules, duals and
    transported representations."""
    mats = {f"U{i}": u for i, u in enumerate(um)}
    checks = evaluate(blob_relations(list(mats), ctx),
                      [(range(len(um[0])), mats)], ctx.one)
    return [(c.name, c.ok) for c in checks]


def ariki_koike_checks_matrices(xm, gm, ctx):
    """Ariki-Koike relations and the blob identity as matrix identities: gm
    maps i -> matrix of g_i (i = 1..n-1), xm is the matrix of X.  Returns
    (name, ok) pairs."""
    g = {f"g{i}": gm[i] for i in sorted(gm)}
    checks = evaluate(ariki_koike_relations(list(g), ctx),
                      [(range(len(xm)), dict(g, X=xm))], ctx.one)
    return [(c.name, c.ok) for c in checks]


def verify_ideal_generators(n, params):
    """Both descriptions of the quotient ideal annihilate the tensor space:
    (X1 X2 - lam1 lam2)(T2 - q) = 0, which is the blob identity since
    X2 = T2 X T2, and (X1 + X2 - lam1 - lam2)(T2 - q) = 0."""
    ctx = context(params)
    bminus = (("T2",), ctx.q)
    rels = [
        blob_identity("T2", ctx)._replace(name="ideal_product_form"),
        Relation("ideal_sum_form",
                 product((("X",), None), bminus)
                 + product((("T2", "X", "T2"), ctx.lam1 + ctx.lam2), bminus),
                 ZERO),
    ]
    return evaluate(rels, weight_blocks(
        n, [op_X_ctx(n, ctx), op_T_ctx(2, n, ctx)]), ctx.one)


def verify_xk_commute(n, params, kmax=None):
    """The operators X_1 .. X_k commute pairwise on every basis word."""
    ctx = context(params)
    xs = ops_Xk_ctx(n, ctx, kmax)
    xs[0].name = "X1"
    rels = [commute(a.name, b.name)
            for i, a in enumerate(xs) for b in xs[i + 1:]]
    return evaluate(rels, weight_blocks(n, xs), ctx.one)
