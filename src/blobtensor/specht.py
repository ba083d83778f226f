"""Bitableau combinatorics, Specht-type representations and duality.

For a two-line bipartition ((n1),(n2)) (or its two-column conjugate) the cell
module has a basis of standard bitableaux: each component strictly increasing
with positive entries.  The generator action is the three-case rule

    g_i [t] = sigma_i [t]                       if i in t1, i+1 in t2
    g_i [t] = sigma_i [t] + (q - q^-1) [t]      if i+1 in t1, i in t2
    g_i [t] = q [t]                             if i, i+1 share a component.

The bijection phi sends a two-column bitableau to the word with a 1 in the
positions listed in its second component; the transported action puts the
column module and the weight module M_n(lam) side by side, which is how all
duality statements are verified here.

Contragredient duals transpose every generator matrix (the defining
antiinvolution fixes the generators), and the dual counit tests run both
directly on the transposed matrices and on the parameter-swapped word model
(lambda1 <-> lambda2, n1 <-> n2).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .blob import (MatrixRep, ariki_koike_checks_matrices,
                   blob_relation_checks_matrices, dualize)
from .linalg import (certified_rank, invariant_closure, mat_sub_scalar_diag,
                     mat_transpose, mat_vec, span_rank, vec_add_scaled)
from .scalars import context, residues_equal
from .tensor import Relation, RelationCheck, evaluate, ops_Xk_ctx, word
from .weightmod import (WeightLabel, _adjointness_injective,
                        _adjointness_surjective, _e_matrix, module_residues,
                        special_element_scalar, weight_module)


# ---------------------------------------------------------------------------
# bitableaux
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Shape:
    """Bipartition shape: 'row' is ((size1),(size2)), 'col' is
    ((1^size1),(1^size2)) with size_k the number of boxes of component k."""

    kind: str
    size1: int
    size2: int

    def __post_init__(self):
        if self.kind not in ("row", "col"):
            raise ValueError(f"unsupported shape kind {self.kind!r}")
        if self.size1 < 0 or self.size2 < 0 or self.size1 + self.size2 < 1:
            raise ValueError("shape sizes must be nonnegative and not all 0")

    @property
    def n(self):
        return self.size1 + self.size2


def row_shape(n1, n2):
    return Shape("row", n1, n2)


def col_shape(n1, n2):
    """The two-column shape ((1^n2),(1^n1)) paired with M_n(n1 - n2)."""
    return Shape("col", n2, n1)


@dataclass(frozen=True)
class Bitableau:
    shape: Shape
    t1: tuple
    t2: tuple

    def __post_init__(self):
        object.__setattr__(self, "t1", tuple(self.t1))
        object.__setattr__(self, "t2", tuple(self.t2))
        n = self.shape.n
        if len(self.t1) != self.shape.size1 or \
                len(self.t2) != self.shape.size2:
            raise ValueError("component sizes do not match the shape")
        if sorted(self.t1 + self.t2) != list(range(1, n + 1)):
            raise ValueError("entries must partition 1..n")

    @property
    def standard(self):
        return (all(a < b for a, b in zip(self.t1, self.t1[1:]))
                and all(a < b for a, b in zip(self.t2, self.t2[1:]))
                and all(e > 0 for e in self.t1 + self.t2))

    def component_of(self, entry):
        if entry in self.t1:
            return 1
        if entry in self.t2:
            return 2
        raise ValueError(f"{entry} not in the bitableau")

    def swap(self, i):
        """Exchange the entries i and i+1 (they must sit in different
        components); the result is standard again."""
        repl = {i: i + 1, i + 1: i}
        t1 = tuple(sorted(repl.get(e, e) for e in self.t1))
        t2 = tuple(sorted(repl.get(e, e) for e in self.t2))
        return Bitableau(self.shape, t1, t2)


def standard_bitableaux(shape):
    """All standard bitableaux of the shape, ordered by their first
    component (lexicographically)."""
    n = shape.n
    out = []
    for t1 in itertools.combinations(range(1, n + 1), shape.size1):
        t2 = tuple(e for e in range(1, n + 1) if e not in t1)
        out.append(Bitableau(shape, t1, t2))
    return out


def gi_action(i, t, ctx):
    """g_i applied to a standard bitableau; returns {Bitableau: scalar}."""
    if not 1 <= i <= t.shape.n - 1:
        raise ValueError(f"index {i} out of range 1..{t.shape.n - 1}")
    c1, c2 = t.component_of(i), t.component_of(i + 1)
    if c1 == c2:
        return {t: ctx.q}
    if c1 == 1:
        return {t.swap(i): ctx.one}
    return {t.swap(i): ctx.one, t: ctx.q_minus_qinv}


def phi_map(t):
    """Two-column bitableau -> word: letter j is '1' iff j is in the second
    component."""
    if t.shape.kind != "col":
        raise ValueError("phi is defined on two-column bitableaux")
    in_t2 = set(t.t2)
    return "".join("1" if j in in_t2 else "2" for j in range(1, t.shape.n + 1))


def special_col_bitableau(n1, n2):
    """1..n2 down the first column, the rest down the second; phi sends it
    to 2^n2 1^n1."""
    return Bitableau(col_shape(n1, n2), tuple(range(1, n2 + 1)),
                     tuple(range(n2 + 1, n1 + n2 + 1)))


# ---------------------------------------------------------------------------
# matrix representations
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def build_S_prime(n1, n2, ctx):
    """The two-column module on standard bitableaux, with the bitableaux
    ordered so that phi matches the weight-module basis order; X is
    transported through phi."""
    n = n1 + n2
    lam = n1 - n2
    module = weight_module(n, lam, ctx)
    tabs = standard_bitableaux(col_shape(n1, n2))
    by_word = {phi_map(t): t for t in tabs}
    if len(by_word) != len(tabs):
        raise ArithmeticError("phi failed to be injective")
    ordered = tuple(by_word[w] for w in module.basis)
    index = {t: i for i, t in enumerate(ordered)}
    g = {i: [{index[u]: c for u, c in gi_action(i, t, ctx).items()}
             for t in ordered] for i in range(1, n)}
    return MatrixRep(ordered, module.x, g, ctx)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

def verify_phi_intertwines(n1, n2, ctx):
    """phi o g_i = g_i o phi for every i: with the aligned basis order this
    is matrix equality between the bitableau action and the word action,
    its witness the first column index on which they differ.  phi is a
    bijection when there are as many standard bitableaux as basis words;
    a failure names the pair (count, dim)."""
    n = n1 + n2
    rep = build_S_prime(n1, n2, ctx)
    module = weight_module(n, n1 - n2, ctx)
    mats = {}
    for i in range(1, n):
        mats[f"S'g{i}"], mats[f"g{i}"] = rep.g[i], module.g[i]
    checks = evaluate([Relation(f"phi_intertwines(g{i})", word(f"S'g{i}"),
                                word(f"g{i}")) for i in range(1, n)],
                      [(range(module.dim), mats)], ctx.one)
    count = len(standard_bitableaux(col_shape(n1, n2)))
    ok = count == module.dim
    checks.append(RelationCheck("phi_bijective", ok,
                                None if ok else (count, module.dim)))
    return checks


def verify_S_prime_relations(n1, n2, ctx):
    """The transported module satisfies the full defining relation set and
    the quotient identity; its blob form satisfies the blob relations."""
    rep = build_S_prime(n1, n2, ctx)
    return ariki_koike_checks_matrices(rep.x, rep.g, ctx, "S':") + \
        blob_relation_checks_matrices(rep.U, ctx, "S'_blob:")


def verify_gi_quadratic_on_bitableaux(shape, ctx):
    """(g_i - q)(g_i + q^-1) kills every standard bitableau, straight from
    the combinatorial rule."""
    tabs = standard_bitableaux(shape)

    def holds(i, t):
        acc = {}
        for u, c in gi_action(i, t, ctx).items():
            for v, d in gi_action(i, u, ctx).items():
                vec_add_scaled(acc, {v: d}, c)
        # acc = g_i^2 t; compare with (q - q^-1) g_i t + t
        expect = {}
        vec_add_scaled(expect, gi_action(i, t, ctx), ctx.q_minus_qinv)
        vec_add_scaled(expect, {t: ctx.one}, ctx.one)
        return acc == expect

    bad = next((f"i={i}" for i in range(1, shape.n) for t in tabs
                if not holds(i, t)), None)
    return [RelationCheck("gi_quadratic_on_bitableaux", bad is None, bad)]


def _xi_eigenvalue(i, n2, ctx):
    """lambda2 q^(2(i-1)) for i <= n2 and lambda1 q^(2(i-n2-1)) beyond."""
    if i <= n2:
        return ctx.lam2 * ctx.q_pow(2 * (i - 1))
    return ctx.lam1 * ctx.q_pow(2 * (i - n2 - 1))


def xi_word_eigenvalue_checks(n1, n2, ctx):
    """X_i on the word 2^n2 1^n1 has the eigenvalue `_xi_eigenvalue`,
    computed with the tensor operators."""
    w = "2" * n2 + "1" * n1
    return [RelationCheck(f"Xi_word_eigenvalue(i={i})",
                          x.apply_word(w) == {w: _xi_eigenvalue(i, n2, ctx)})
            for i, x in enumerate(ops_Xk_ctx(n1 + n2, ctx), start=1)]


def xi_bitableau_eigenvalue_checks(n1, n2, ctx):
    """The same eigenvalues on the distinguished column bitableau, computed
    from the transported matrices via X_i = g_{i-1} X_{i-1} g_{i-1}
    (`MatrixRep.xk`)."""
    rep = build_S_prime(n1, n2, ctx)
    j = rep.labels.index(special_col_bitableau(n1, n2))
    return [RelationCheck(f"Xi_bitableau_eigenvalue(i={i})",
                          mat_vec(xi, {j: ctx.one})
                          == {j: _xi_eigenvalue(i, n2, ctx)})
            for i, xi in enumerate(rep.xk, start=1)]


def verify_dualize_properties(n1, n2, ctx):
    """dualize is an involution, preserves the defining relations, and
    preserves the X spectrum (multiplicities of lam1 and lam2)."""
    rep = build_S_prime(n1, n2, ctx)
    dual = dualize(rep)
    back = dualize(dual)
    checks = [RelationCheck("dualize_involution",
                            back.x == rep.x and all(
                                back.g[i] == rep.g[i] for i in rep.g))]
    checks += ariki_koike_checks_matrices(dual.x, dual.g, ctx, "dual:")
    checks += blob_relation_checks_matrices(dual.U, ctx, "dual_blob:")
    for lam_val, tag in ((ctx.lam1, "lam1"), (ctx.lam2, "lam2")):
        r1 = span_rank(mat_sub_scalar_diag(rep.x, lam_val))
        r2 = span_rank(mat_sub_scalar_diag(dual.x, lam_val))
        checks.append(RelationCheck(f"dual_spectrum({tag})", r1 == r2))
    return checks


# ---------------------------------------------------------------------------
# the dual adjointness (sign resolution)
# ---------------------------------------------------------------------------

def dual_adjointness_check(n, lam, params):
    """Counit tests for the contragredient dual of M_n(lam).

    Two independent routes: (a) directly on the transposed matrices, where
    the image of the counit is the submodule generated by the column space
    of the transposed idempotent (its rank read mod p and certified, else
    by exact elimination); (b) on the parameter-swapped word model
    (lambda1 <-> lambda2, so the weight flips to -lam), where the full
    canonical-family machinery applies verbatim.

    The verdict is reported against the candidate residue rules rather than
    assuming either direction of the printed criterion."""
    ctx = context(params)
    label = WeightLabel(n, lam)
    module = weight_module(n, lam, ctx)
    dim, modular = module.dim, ctx.field.modular
    # the generators of the dual are the transposed U_i: the antiinvolution
    # fixes X and g_i, and (g - c)^T = g^T - c.  The closure mod p reads
    # the transposed residues of the module's U_i; the exact transposes are
    # built for the seeds (U_{n-1}^T) and, below full rank, for the
    # certificate or the exact elimination
    last = mat_transpose(module.U[-1], dim)
    seeds = [c for c in _e_matrix([last], ctx) if c]

    def dual_u():
        return [mat_transpose(u, dim) for u in module.U[:-1]] + [last]

    found = certified_rank(
        seeds, dual_u, dim, modular, ctx.one,
        residues=lambda: [mat_transpose(r, dim)
                          for r in module_residues(module, modular)])
    closure_rank = found[0] if found is not None \
        else invariant_closure(seeds, dual_u()).rank
    direct_surjective = closure_rank == dim

    sctx = ctx.swapped()
    swap_surj = _adjointness_surjective(n, -lam, sctx)
    swap_inj = _adjointness_injective(n, -lam, sctx)
    swap_special = special_element_scalar(n, -lam, sctx)

    verdicts = [direct_surjective, swap_surj.surjective,
                swap_surj.closure_rank == swap_surj.dim,
                swap_inj.injective, not swap_special.is_zero()]
    agree = len(set(verdicts)) == 1
    iso = direct_surjective

    l, m = params.l, params.m
    n1 = label.n1
    return {
        "n": n, "l": l, "m": m, "lambda": lam,
        "n1": n1, "n2": label.n2, "dim": dim,
        "dual_closure_rank": closure_rank,
        "dual_surjective": direct_surjective,
        "swap_surjective": swap_surj.surjective,
        "swap_rank_phi_image": swap_surj.rank_span,
        "swap_injective": swap_inj.injective,
        "swap_special_scalar": ctx.field.serialize(swap_special),
        "swap_special_nonzero": not swap_special.is_zero(),
        "dual_tests_agree": agree,
        "iso": iso,
        "n1_eq_m_mod_l": residues_equal(n1, m, l),
        "n1_eq_minus_m_mod_l": residues_equal(n1, -m, l),
        "matches_iso_iff_n1_eq_m": iso == residues_equal(n1, m, l),
        "matches_iso_iff_n1_neq_m": iso == (not residues_equal(n1, m, l)),
        "matches_iso_iff_n1_neq_minus_m":
            iso == (not residues_equal(n1, -m, l)),
    }


def resolve_dual_criterion(records):
    """Given dual-adjointness records over a grid, decide which residue rule
    matches every point.  Returns (rule_name or None, per-rule tallies)."""
    rules = ["iso_iff_n1_eq_m", "iso_iff_n1_neq_m",
             "iso_iff_n1_neq_minus_m"]
    tallies = {r: sum(1 for rec in records if rec[f"matches_{r}"])
               for r in rules}
    total = len(records)
    consistent = [r for r in rules if tallies[r] == total]
    # report the sharpest single rule; prefer the documented candidates
    return (consistent[0] if consistent else None), tallies
