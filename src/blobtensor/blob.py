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

`MatrixRep` is the one matrix representation: it stores X and g_1 .. g_{n-1}
and derives from them, on first use, the blob generators, the Jucys-Murphy
elements X_k and the central products z_k.  The abstract algebra is never
materialized as a based algebra; only the action matters here.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate

from .linalg import mat_mul, mat_sub_scalar_diag, mat_transpose
from .relations import (ZERO, Relation, ariki_koike_relations, blob_identity,
                        blob_relations, evaluate, product)
from .tensor import (evaluate_on_support, verify_ariki_koike,
                     verify_blob_identity, verify_partial_rotation_fixing)


class MatrixRep:
    """A representation by matrices (columns are images) on an ordered list
    of labels: X, and g_i for i = 1 .. n-1 in the dict g.  It derives the
    blob generators U itself, on first use."""

    def __init__(self, labels, x, g, ctx):
        self.labels = labels
        self.x = x
        self.g = g
        self.ctx = ctx

    @property
    def dim(self):
        return len(self.labels)

    @property
    def n(self):
        return len(self.g) + 1

    @cached_property
    def U(self):
        """[U_0, ..., U_{n-1}]: U_0 = X - lam1 and U_i = g_i - q."""
        ctx = self.ctx
        return [mat_sub_scalar_diag(self.x, ctx.lam1)] + \
            [mat_sub_scalar_diag(self.g[i], ctx.q) for i in sorted(self.g)]

    @cached_property
    def xk(self):
        """[X_1, ..., X_n]: X_1 = X, X_k = g_{k-1} X_{k-1} g_{k-1}."""
        return list(accumulate((self.g[i] for i in sorted(self.g)),
                               lambda x, g: mat_mul(g, mat_mul(x, g)),
                               initial=self.x))

    @cached_property
    def z(self):
        """[z_1, ..., z_n]: z_k = X_1 ... X_k = X_k z_{k-1}."""
        return list(accumulate(self.xk, lambda z, x: mat_mul(x, z)))


def dualize(rep):
    """Contragredient dual: same labels, every generator matrix transposed
    (the defining antiinvolution fixes the generators)."""
    return MatrixRep(rep.labels,
                     mat_transpose(rep.x, rep.dim),
                     {i: mat_transpose(m, rep.dim) for i, m in rep.g.items()},
                     rep.ctx)


# ---------------------------------------------------------------------------
# relation checks
# ---------------------------------------------------------------------------

def verify_blob_relations(n, ctx, blocks):
    """Check every defining relation of the blob algebra on every basis word
    of V^(x)n, through the matrices of the weight blocks, those without U0
    on their support (`evaluate_on_support`); n = 1 has only U0."""
    return evaluate_on_support(
        blob_relations([f"U{i}" for i in range(n)], ctx), n, ctx, blocks)


def blob_relation_checks_matrices(um, ctx, prefix=""):
    """Blob relations as matrix identities for generator matrices
    um[0..n-1], one RelationCheck per relation, its name prefixed and its
    witness the first column index on which the two sides differ.  Reused
    for weight modules, duals and transported representations."""
    mats = {f"U{i}": u for i, u in enumerate(um)}
    rels = blob_relations(list(mats), ctx)
    return evaluate([r._replace(name=prefix + r.name) for r in rels],
                    [(range(len(um[0])), mats)], ctx.one)


def ariki_koike_checks_matrices(xm, gm, ctx, prefix=""):
    """Ariki-Koike relations and the blob identity as matrix identities: gm
    maps i -> matrix of g_i (i = 1..n-1), xm is the matrix of X.  Checks
    as in `blob_relation_checks_matrices`."""
    g = {f"g{i}": gm[i] for i in sorted(gm)}
    rels = ariki_koike_relations(list(g), ctx)
    return evaluate([r._replace(name=prefix + r.name) for r in rels],
                    [(range(len(xm)), dict(g, X=xm))], ctx.one)


def verify_ideal_generators(n, ctx, blocks):
    """Both descriptions of the quotient ideal annihilate the tensor space:
    (X1 X2 - lam1 lam2)(T2 - q) = 0, which is the blob identity since
    X2 = T2 X T2, and (X1 + X2 - lam1 - lam2)(T2 - q) = 0; checked on the
    weight blocks."""
    bminus = (("T2",), ctx.q)
    rels = [
        blob_identity("T2", ctx)._replace(name="ideal_product_form"),
        Relation("ideal_sum_form",
                 product((("X",), None), bminus)
                 + product((("T2", "X", "T2"), ctx.lam1 + ctx.lam2), bminus),
                 ZERO),
    ]
    return evaluate(rels, blocks, ctx.one)


def verify_relation_suite(n, ctx, blocks):
    """Every relation check of one verify-relations grid point on the
    weight blocks of one stream, each built once and read by every suite, in
    report order: the Ariki-Koike relations, the blob identity, the blob
    relations, the ideal generators and the partial rotations."""
    blocks = list(blocks)
    suites = (verify_ariki_koike, verify_blob_identity, verify_blob_relations,
              verify_ideal_generators, verify_partial_rotation_fixing)
    return [c for suite in suites for c in suite(n, ctx, blocks)]
