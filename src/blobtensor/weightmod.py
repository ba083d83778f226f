"""Weight (permutation) modules, localization and the adjointness criteria.

M_n(lam) is the span of the words with a fixed number of 1s:
n1 = (lam + n)/2 ones and n2 = n - n1 twos.  The basis is ordered with the
2-initial words first (each block lexicographic), which is the order that
makes X visibly triangular.

The idempotent e = -U_{n-1}/[2] cuts out eM_n(lam) ~ M_{n-2}(lam); the
counit G F M -> M of the localization/globalization adjunction has image
the submodule generated by eM, and the module implements the four
equivalent tests for it to be an isomorphism:

* rank of the explicit spanning family I1 u I2 of the image,
* iterated closure of eM under the generator matrices,
* linear independence of the canonical family (the straightened
  Temperley-Lieb elements plus one decorated element),
* non-vanishing of the scalar -lam2 q^(2 n2 + n1 - 2) + lam1 q^(n1 - 2).

For parameters with q a primitive l-th root of unity (l odd) all four agree
with the residue test n2 != m (mod l); for generic q the same field-level
criterion degenerates to the integer test n2 != m.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .blob import MatrixRep
from .linalg import (SpanSolver, certified_rank, invariant_closure, mat_mul,
                     mat_scale, mat_sub_scalar_diag, mat_vec, span_rank,
                     vec_add_scaled, vec_scale, vec_sub)
from .scalars import FieldContext, context, residues_equal
from .tensor import op_theta_ctx, table_matrix, weight_words


# ---------------------------------------------------------------------------
# labels and bases
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightLabel:
    """A weight lam in Lambda_n = {n, n-2, ..., -n}; n1/n2 count the letters."""

    n: int
    lam: int

    def __post_init__(self):
        if (self.lam + self.n) % 2 or abs(self.lam) > self.n:
            raise ValueError(
                f"lambda={self.lam} is not in Lambda_{self.n}")

    @property
    def a(self):
        return (self.lam + self.n) // 2

    @property
    def n1(self):
        return self.a

    @property
    def n2(self):
        return self.n - self.a

    @property
    def dim(self):
        return comb(self.n, self.a)


def lambda_range(n):
    """Lambda_n in ascending order."""
    return list(range(-n, n + 1, 2))


def weight_basis(n, lam):
    """Basis of M_n(lam): words with n1 ones, 2-initial block first, each
    block lexicographic."""
    label = WeightLabel(n, lam)
    words = weight_words(n, label.n1)
    return ([w for w in words if w[0] == "2"]
            + [w for w in words if w[0] == "1"])


class BlockOperators:
    """The operators of the block M_n(lam) that depend on q alone, on its
    weight basis: T_i (i = 2..n) and U_i (i = 1..n-1) from their own tables
    (`table_matrix`), and P = T_2^-1 ... T_n^-1 theta, so that X = P varpi.
    For P, T_i^-1 = T_i - (q - q^-1) is taken by the quadratic relation and
    theta from its rule, and both are dropped; all run in a context without
    lambda1 and lambda2, so none of these can read them."""

    def __init__(self, n, lam, field):
        self.n = n
        self.ctx = FieldContext(field, None, None)
        self.basis = weight_basis(n, lam)
        self.index = {w: i for i, w in enumerate(self.basis)}
        self.T = {i: table_matrix(f"T{i}", self.basis, self.index, self.ctx)
                  for i in range(2, n + 1)}
        self.U = [table_matrix(f"U{i}", self.basis, self.index, self.ctx)
                  for i in range(1, n)]
        d = self.ctx.q_minus_qinv
        p = op_theta_ctx(n, self.ctx).matrix(self.basis)
        for i in range(n, 1, -1):
            p = mat_mul(mat_sub_scalar_diag(self.T[i], d), p)
        self.P = p


# keyed by the field, not by the context: every context of one field (a
# context and its lambda-swapped one among them) shares a block's table
@lru_cache(maxsize=32)
def block_operators(n, lam, field):
    return BlockOperators(n, lam, field)


def _times_varpi(mat, basis, ctx):
    """mat varpi: column j scaled by the lambda of its word's first letter."""
    lam1, lam2 = ctx.lam1, ctx.lam2
    return [vec_scale(col, lam1 if w[0] == "1" else lam2)
            for w, col in zip(basis, mat)]


class WeightModule(MatrixRep):
    """M_n(lam) as a matrix representation on its weight basis: X, g_i the
    matrix of T_{i+1}, and U_0 .. U_{n-1} (columns are images, in the
    weight_basis order).  Only X = P varpi and U_0 = X - lam1 are built
    here; g_i and U_1 .. U_{n-1} are those of the block's operator table,
    shared with every context of the same field."""

    def __init__(self, n, lam, ctx):
        self.lam = lam
        self.label = WeightLabel(n, lam)
        ops = block_operators(n, lam, ctx.field)
        self.index = ops.index
        x = _times_varpi(ops.P, ops.basis, ctx)
        super().__init__(ops.basis, x, {i - 1: t for i, t in ops.T.items()},
                         ctx)
        self.U = [mat_sub_scalar_diag(x, ctx.lam1)] + ops.U

    @property
    def basis(self):
        return self.labels

    def coords(self, vect):
        """Word-keyed vector -> index-keyed coordinates."""
        out = {}
        for w, c in vect.items():
            i = self.index.get(w)
            if i is None:
                raise ValueError(f"word {w} not in M_{self.n}({self.lam})")
            out[i] = c
        return out

    def words(self, coords):
        return {self.basis[i]: c for i, c in coords.items()}


# A grid point reuses the modules of its own n and of n - 1; a larger cache
# only keeps x and U_0 of finished points alive (g and U_1 .. belong to the
# block operator tables, which have a cache of their own).
@lru_cache(maxsize=32)
def weight_module(n, lam, ctx):
    return WeightModule(n, lam, ctx)


# A counit grid point reads the residues of its own module twice, in the
# primal and then the dual closure, and then those of the lambda-swapped
# module once, so two entries reduce every module's generators once per walk.
# Kept on every cached module instead, they raised the peak memory (VmHWM)
# of `adjointness --n 11 --l 0 --m 2` from 33.6 to 37.8 MB.
@lru_cache(maxsize=2)
def module_residues(module, modular):
    """U_0 .. U_{n-1} of a weight module reduced by the ring map `modular`
    (a vanishing denominator raises ZeroDivisionError and keeps nothing)."""
    return [modular.mat(u) for u in module.U]


def module_blocks(n, ctx):
    """(basis, matrices) blocks of V^(x)n for `relations.evaluate`, the one
    block builder of the relation suites, called once per verify-relations
    point: one per cached M_n(lam), lam in Lambda_n (the bases partition the
    words, since every operator keeps the weight).  The matrices are X,
    T2 .. Tn, U0 .. U{n-1}, T2^-1 .. Tn^-1, S2 .. Sn and theta: X and U0 the
    module's, T_i and U_i (i >= 1) the block operator table's, and for this
    point only T_i^-1 and S_i from their own tables (`table_matrix`, so that
    two_sided_inverse checks the T^-1 table against T_i) and theta."""
    for lam in lambda_range(n):
        module = weight_module(n, lam, ctx)
        ops = block_operators(n, lam, ctx.field)
        basis = module.basis
        mats = {f"U{i}": u for i, u in enumerate(module.U)}
        for i in range(2, n + 1):
            mats[f"T{i}"] = ops.T[i]
            for symbol in (f"T{i}^-1", f"S{i}"):
                mats[symbol] = table_matrix(symbol, basis, ops.index, ops.ctx)
        mats["X"] = module.x
        mats["theta"] = op_theta_ctx(n, ops.ctx).matrix(basis)
        yield basis, mats


# ---------------------------------------------------------------------------
# the idempotent and localization
# ---------------------------------------------------------------------------

def _e_matrix(gens, ctx):
    """e = -U_{n-1}/[2] from the generator matrices U_0 .. U_{n-1}."""
    return mat_scale(gens[-1], -(ctx.q + ctx.qinv).inv())


def underline_vect(w1, w2, ctx):
    """q^-1 w1 12 w2 - w1 21 w2, as a word-keyed vector."""
    return {w1 + "12" + w2: ctx.qinv, w1 + "21" + w2: -ctx.one}


def localized_basis(module):
    """The basis of eM_n(lam) in the coordinates of M_n(lam), the columns
    F(w) = q^-1 w12 - w21 of the underline map, w over the basis of
    M_{n-2}(lam): the seeds of the primal and the dual counit closure."""
    return [module.coords(underline_vect(w, "", module.ctx))
            for w in weight_basis(module.n - 2, module.lam)]


def localized_dim(module):
    """dim eM_n(lam): the rank of e = -U_{n-1}/[2] on M_n(lam).  That eM
    with U_0 .. U_{n-3} is M_{n-2}(lam) is the claim of `underline_map`."""
    if module.n < 2:
        raise ValueError("the idempotent e = -U_{n-1}/[2] needs n >= 2")
    return span_rank(_e_matrix(module.U, module.ctx))


@dataclass
class UnderlineMapResult:
    n: int
    lam: int
    dim_small: int
    dim_e: int
    rank: int
    bijective: bool
    e_fixes_image: bool
    intertwines: dict           # generator index -> bool

    @property
    def ok(self):
        return (self.bijective and self.e_fixes_image
                and all(self.intertwines.values()))

    def to_record(self):
        return {"n": self.n, "lambda": self.lam, "dim_small": self.dim_small,
                "dim_e": self.dim_e, "rank": self.rank,
                "bijective": self.bijective,
                "e_fixes_image": self.e_fixes_image,
                "intertwines": {str(k): v
                                for k, v in sorted(self.intertwines.items())},
                "ok": self.ok}


def underline_map(n, lam, ctx):
    """The map w -> q^-1 w12 - w21 from M_{n-2}(lam) onto eM_n(lam), with the
    intertwining checks for every b_{n-2} generator."""
    if n < 3:
        raise ValueError("localization comparison needs n >= 3")
    if abs(lam) == n:
        raise ValueError("lambda = +-n localizes to zero; the map is undefined")
    big = weight_module(n, lam, ctx)
    small = weight_module(n - 2, lam, ctx)
    fcols = localized_basis(big)
    emat = _e_matrix(big.U, ctx)
    # image sits inside eM and spans it
    e_fixes = all(mat_vec(emat, col) == col for col in fcols)
    rank = span_rank(fcols)
    dim_e = localized_dim(big)
    intertwines = {}
    for i in range(n - 2):
        lhs = mat_mul(fcols, small.U[i])
        rhs = mat_mul(big.U[i], fcols)
        intertwines[i] = lhs == rhs
    return UnderlineMapResult(
        n, lam, small.dim, dim_e, rank,
        rank == small.dim == dim_e, e_fixes, intertwines)


# ---------------------------------------------------------------------------
# straightening and the quotient scalars
# ---------------------------------------------------------------------------

def straighten_word(w, ctx):
    """Rewrite the leftmost '12' to q * '21' until none remains; returns the
    accumulated scalar (the word always lands on 2^n2 1^n1).  Terminates
    because each step removes one inversion."""
    acc = ctx.one
    while True:
        i = w.find("12")
        if i < 0:
            return acc
        w = w[:i] + "21" + w[i + 2:]
        acc = acc * ctx.q


def straighten_vect(v, ctx):
    """Reduce a vector modulo the straightening span to a multiple of the
    class of 2^n2 1^n1; returns the coefficient."""
    acc = ctx.zero
    for w, c in v.items():
        acc = acc + c * straighten_word(w, ctx)
    return acc


@dataclass
class QuotientScalars:
    scalar_v: object            # closed form lam1 q^(-2 n2)
    scalar_w: object            # closed form lam2
    computed_v: object
    computed_w: object

    @property
    def ok(self):
        return self.scalar_v == self.computed_v and \
            self.scalar_w == self.computed_w


def quotient_scalar_record(n, lam, ctx):
    """The scalar of X on the one-dimensional straightening quotient,
    computed from both canonical generators, beside the closed forms
    lam1 q^(-2 n2) and lam2."""
    label = WeightLabel(n, lam)
    if abs(lam) == n:
        raise ValueError("lambda = +-n has no underline positions")
    n1, n2 = label.n1, label.n2
    module = weight_module(n, lam, ctx)

    def computed(word):
        image = module.words(module.x[module.index[word]])
        return straighten_vect(image, ctx) / straighten_word(word, ctx)

    return QuotientScalars(ctx.lam1 * ctx.q_pow(-2 * n2), ctx.lam2,
                           computed("1" * n1 + "2" * n2),
                           computed("2" * n2 + "1" * n1))


def special_element_scalar(n, lam, ctx):
    """-lam2 q^(2 n2 + n1 - 2) + lam1 q^(n1 - 2); vanishes exactly when the
    localization counit fails to be onto."""
    label = WeightLabel(n, lam)
    n1, n2 = label.n1, label.n2
    return (-ctx.lam2) * ctx.q_pow(2 * n2 + n1 - 2) \
        + ctx.lam1 * ctx.q_pow(n1 - 2)


# ---------------------------------------------------------------------------
# the adjointness (counit) tests
# ---------------------------------------------------------------------------

def _image_family(module):
    """The spanning family of the counit image in the coordinates of
    M_n(lam), and the seeds of the closure: (family, seeds).  The family
    lists the two-term I2 vectors (the underline at every position) before
    the dense I1, U_0 applied to the I2 vectors underlined at positions
    1, 2: the rank does not depend on the order, but the fill-in does.  The
    seeds are `localized_basis`, the basis of eM."""
    ctx = module.ctx
    interior = weight_words(module.n - 2, module.label.n1 - 1)
    i2 = [module.coords(underline_vect(word[:k], word[k:], ctx))
          for k in range(module.n - 1) for word in interior]
    return (i2 + [mat_vec(module.U[0], v) for v in i2[:len(interior)]],
            localized_basis(module))


@dataclass
class SurjectivityResult:
    n: int
    lam: int
    dim: int
    rank_span: int
    closure_rank: int
    spans_agree: bool

    @property
    def surjective(self):
        return self.rank_span == self.dim

    @property
    def codim(self):
        return self.dim - self.rank_span


def _modular_surjective(module, family, seeds):
    """(rank_span, closure_rank, spans_agree) from ranks mod p, each
    certified exactly, or None.  The family's annihilator Y also certifies
    the closure: Y^perp is then both the family span and the closure.  The
    seeds, the basis of eM, span the image of U_{n-1}, so the closure grows
    along the generators' path from U_{n-1} and reaches the dense U_0 last."""
    modular, one = module.ctx.field.modular, module.ctx.one
    found = certified_rank(family, [], module.dim, modular, one)
    if found is None or certified_rank(
            seeds, module.U, module.dim, modular, one, found[1],
            residues=lambda: module_residues(module, modular),
            seed_generator=module.n - 1) != found:
        return None
    return found[0], found[0], True


def _exact_surjective(module, family, seeds):
    """The same triple by exact elimination; the spans agree when their
    ranks do and every closure row lies in the family span."""
    span = SpanSolver()
    for v in family:
        span.insert(v)
    closure = invariant_closure(seeds, module.U)
    agree = span.rank == closure.rank and \
        all(span.contains(row) for row in closure.rows.values())
    return span.rank, closure.rank, agree


def _adjointness_surjective(n, lam, ctx):
    """Is the counit G F M_n(lam) -> M_n(lam) onto?  Computed two ways: the
    rank of the explicit family I1 u I2, and the closure of eM under the
    generator matrices; both ranks and the spans themselves are compared,
    over F_p with exact certificates, else by exact elimination."""
    if n < 3:
        raise ValueError("adjointness tests need n >= 3")
    if abs(lam) == n:
        raise ValueError("lambda = +-n is outside the adjointness setting")
    module = weight_module(n, lam, ctx)
    family, seeds = _image_family(module)
    found = _modular_surjective(module, family, seeds)
    if found is None:
        found = _exact_surjective(module, family, seeds)
    return SurjectivityResult(n, lam, module.dim, *found)


def _canonical_family(n, label, ctx):
    """The straightened Temperley-Lieb elements (no '12' left of the
    underline), as word-keyed vectors."""
    n1 = label.n1
    tl = []
    for s in range(n - 1):
        for t in range(n - 1 - s):
            w1 = "2" * s + "1" * t
            rest = n - 2 - s - t
            ones = n1 - 1 - t
            if 0 <= ones <= rest:
                for w2 in weight_words(rest, ones):
                    tl.append(underline_vect(w1, w2, ctx))
    return tl


# keyed like the block operator tables: the family depends on q alone, so
# the point (n, lam) and the lambda-swapped route of the point (n, -lam)
# share one elimination
@lru_cache(maxsize=32)
def tl_span(n, lam, field):
    """The exact span of the straightened Temperley-Lieb elements of
    M_n(lam) in the coordinates of its weight basis, with the size of the
    family: (SpanSolver, size).  Shared, so it is read with `contains` and
    never inserted into."""
    ops = block_operators(n, lam, field)
    tl = _canonical_family(n, WeightLabel(n, lam), ops.ctx)
    span = SpanSolver()
    for v in tl:
        span.insert({ops.index[w]: c for w, c in v.items()})
    return span, len(tl)


def _decorated_combination(v1, v2, label, ctx):
    """-lam2 q^(n2-1) v1 + lam1 q^(n1-2) v2, the coefficients of the
    decorated element."""
    out = {}
    vec_add_scaled(out, v1, (-ctx.lam2) * ctx.q_pow(label.n2 - 1))
    vec_add_scaled(out, v2, ctx.lam1 * ctx.q_pow(label.n1 - 2))
    return out


def decorated_vect(x, label, ctx):
    """The decorated element of M_n(lam) with interior word x:
    -lam2 q^(n2-1) 1x2 + lam1 q^(n1-2) 2x1."""
    return _decorated_combination({"1" + x + "2": ctx.one},
                                  {"2" + x + "1": ctx.one}, label, ctx)


@dataclass
class InjectivityResult:
    n: int
    lam: int
    dim: int
    family_size: int
    rank: int
    decorated_residual_ok: bool

    @property
    def injective(self):
        return self.rank == self.family_size


def _adjointness_injective(n, lam, ctx):
    """Linear independence of the canonical generating family; by the
    straightening analysis this decides injectivity of the counit."""
    if n < 3:
        raise ValueError("adjointness tests need n >= 3")
    label = WeightLabel(n, lam)
    if abs(lam) == n:
        raise ValueError("lambda = +-n is outside the adjointness setting")
    module = weight_module(n, lam, ctx)
    span, size = tl_span(n, lam, ctx.field)
    dec = module.coords(decorated_vect(
        "2" * (label.n2 - 1) + "1" * (label.n1 - 1), label, ctx))
    # modulo the TL span the decorated element is the special scalar times
    # the class of 2^n2 1^n1
    unit = module.coords({"2" * label.n2 + "1" * label.n1: ctx.one})
    shifted = vec_sub(dec,
                      vec_scale(unit, special_element_scalar(n, lam, ctx)))
    decorated_ok = span.contains(shifted)
    rank = span.rank + (not span.contains(dec))
    return InjectivityResult(n, lam, module.dim, size + 1, rank,
                             decorated_ok and span.rank == size)


def adjointness_record(n, lam, params):
    """One grid point of the adjointness sweep: the four equivalent booleans,
    the residue test, and the quotient scalars; serialized for reports."""
    ctx = context(params)
    label = WeightLabel(n, lam)
    surj = _adjointness_surjective(n, lam, ctx)
    inj = _adjointness_injective(n, lam, ctx)
    special = special_element_scalar(n, lam, ctx)
    qs = quotient_scalar_record(n, lam, ctx)
    expected = not residues_equal(label.n2, params.m, params.l)
    verdicts = [surj.surjective, surj.closure_rank == surj.dim,
                inj.injective, not special.is_zero()]
    four_way = len(set(verdicts)) == 1
    ser = ctx.field.serialize
    return {
        "n": n, "l": params.l, "m": params.m, "lambda": lam,
        "n1": label.n1, "n2": label.n2, "dim": label.dim,
        "rank_phi_image": surj.rank_span,
        "closure_rank": surj.closure_rank,
        "codim": surj.codim,
        "spans_agree": surj.spans_agree,
        "surjective": surj.surjective,
        "injective": inj.injective,
        "family_size": inj.family_size,
        "decorated_residual_ok": inj.decorated_residual_ok,
        "special_scalar": ser(special),
        "special_nonzero": not special.is_zero(),
        "scalar_v": ser(qs.computed_v),
        "scalar_w": ser(qs.computed_w),
        "quotient_scalars_match": qs.ok,
        "four_way_agree": four_way,
        "expected_residue_verdict": expected,
        "matches_expected": four_way and verdicts[0] == expected,
    }
