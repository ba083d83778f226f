"""Restriction down the tower, the central element, and splitting.

Restriction from length n to length n-1 fixes the last letter: the words
ending in 1 span a submodule identified with M_{n-1}(lam-1) by dropping the
last letter, and the quotient (classes of words ending in 2) is identified
with M_{n-1}(lam+1) the same way.

z_k = X_1 ... X_k is central for the length-k subalgebra; on M_n(lam) the
full z_n acts by the scalar lam1^n1 lam2^n2 q^(n1(n1-1) + n2(n2-1)).  On the
restricted module z_{n-1} has at most the two scalars belonging to the
sub/quotient factors; when they differ the two eigenspaces split the module.
When they coincide (the wall case lam = -m mod l) the eigenspace criterion
degenerates; a split module would then have z_{n-1} = s*Id, so a nonzero
z_{n-1} - s certifies that the sequence does not split.  z_n and z_{n-1}
are links of one chain of products of the module's matrices (`MatrixRep.z`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .blob import MatrixRep
from .linalg import (mat_is_zero, mat_mul, mat_sub_scalar_diag, mat_vec,
                     nullspace)
from .tensor import RelationCheck, op_T_ctx, op_X_ctx
from .weightmod import WeightLabel, lambda_range, weight_basis, weight_module


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------

@dataclass
class RestrictionData:
    n: int
    lam: int
    sub_basis: list             # words ending in 1
    quotient_basis: list        # words ending in 2
    sub_invariant: bool
    sub_intertwines: bool
    quotient_intertwines: bool
    dims_match: bool

    @property
    def ok(self):
        return (self.sub_invariant and self.sub_intertwines
                and self.quotient_intertwines and self.dims_match)

    def to_record(self):
        return {"n": self.n, "lambda": self.lam,
                "dim_sub": len(self.sub_basis),
                "dim_quotient": len(self.quotient_basis),
                "sub_invariant": self.sub_invariant,
                "sub_intertwines": self.sub_intertwines,
                "quotient_intertwines": self.quotient_intertwines,
                "dims_match": self.dims_match, "ok": self.ok}


def restriction_sequence(n, lam, ctx):
    """Verify the exact sequence 0 -> M_{n-1}(lam-1) -> res M_n(lam) ->
    M_{n-1}(lam+1) -> 0 concretely: invariance of the words-ending-in-1
    span and both drop-last-letter intertwinings, generator by generator,
    against the generator matrices of the two small modules."""
    if n < 2:
        raise ValueError("restriction needs n >= 2")
    if abs(lam) == n:
        raise ValueError("lambda = +-n does not restrict in two pieces")
    big = weight_module(n, lam, ctx)
    small_minus = weight_module(n - 1, lam - 1, ctx)
    small_plus = weight_module(n - 1, lam + 1, ctx)

    sub_words = [w for w in big.basis if w[-1] == "1"]
    quo_words = [w for w in big.basis if w[-1] == "2"]

    sub_invariant = True
    intertwines = {"1": True, "2": True}
    for i in range(n - 1):
        for last, words, small in (("1", sub_words, small_minus),
                                   ("2", quo_words, small_plus)):
            for w in words:
                img_words = big.words(big.U[i][big.index[w]])
                if last == "1" and any(u[-1] != "1" for u in img_words):
                    sub_invariant = False
                dropped = {u[:-1]: c for u, c in img_words.items()
                           if u[-1] == last}
                expect = small.words(small.U[i][small.index[w[:-1]]])
                if dropped != expect:
                    intertwines[last] = False

    dims_match = (len(sub_words) == small_minus.dim
                  and len(quo_words) == small_plus.dim
                  and big.dim == small_minus.dim + small_plus.dim)
    return RestrictionData(n, lam, sub_words, quo_words, sub_invariant,
                           intertwines["1"], intertwines["2"], dims_match)


# ---------------------------------------------------------------------------
# the central element
# ---------------------------------------------------------------------------

def z_matrix(k, module):
    """z_k = X_1 X_2 ... X_k on a `MatrixRep`, from its cached chain."""
    if not 1 <= k <= module.n:
        raise ValueError(f"k={k} out of range 1..{module.n}")
    return module.z[k - 1]


def z_scalar_formula(label, ctx):
    """lam1^n1 lam2^n2 q^(n1(n1-1) + n2(n2-1))."""
    n1, n2 = label.n1, label.n2
    return (ctx.lam1 ** n1) * (ctx.lam2 ** n2) * \
        ctx.q_pow(n1 * (n1 - 1) + n2 * (n2 - 1))


@dataclass
class CentralScalarReport:
    n: int
    lam: int
    scalar_matches: bool        # z acts by the closed-form scalar everywhere
    central: bool               # [z, U_i] = 0 as matrices on the module

    @property
    def ok(self):
        return self.scalar_matches and self.central

    def to_record(self):
        return {"n": self.n, "lambda": self.lam,
                "scalar_matches": self.scalar_matches,
                "central": self.central, "ok": self.ok}


def verify_central_z(n, lam, ctx):
    """z_n acts on M_n(lam) by the closed-form scalar, and commutes with
    every generator matrix.  A scalar matrix commutes with every matrix, so
    the commutators are only formed when z_n is not that scalar."""
    module = weight_module(n, lam, ctx)
    zmat = z_matrix(n, module)
    expect = z_scalar_formula(module.label, ctx)
    scalar_ok = all(zmat[j] == {j: expect} for j in range(module.dim))
    central = scalar_ok or all(mat_mul(zmat, u) == mat_mul(u, zmat)
                               for u in module.U)
    return CentralScalarReport(n, lam, scalar_ok, central)


# ---------------------------------------------------------------------------
# splitting of the restriction sequence
# ---------------------------------------------------------------------------

@dataclass
class SplittingResult:
    n: int
    lam: int
    wall: bool                  # the two candidate scalars coincide
    split: object               # True / False / "undetermined"
    eig_dims: tuple | None
    eig_dims_expected: tuple
    invariant: bool | None
    complement: str             # "none" / "not_attempted" / "n/a"

    def to_record(self):
        return {"n": self.n, "lambda": self.lam, "wall": self.wall,
                "split": self.split,
                "eigdims": list(self.eig_dims) if self.eig_dims else None,
                "eigdims_expected": list(self.eig_dims_expected),
                "generator_invariant": self.invariant,
                "complement_search": self.complement}


def splitting_check(n, lam, ctx):
    """Decide splitting of res M_n(lam) by the eigenvalues of z_{n-1}.

    z_{n-1} is its own link of the chain, not z_n X_n^-1, so the verdict
    does not lean on `verify_central_z`.  Off the wall (distinct scalars)
    the two eigenspaces must have the binomial dimensions and be invariant
    under every b_{n-1} generator.  On the wall the scalars coincide and the
    eigenspace criterion is silent; the exact certificate z_{n-1} - s != 0
    (see `_wall_complement_search`) is reported as `complement`.  The wall
    verdict itself stays "undetermined"."""
    if n < 3:
        raise ValueError("splitting analysis needs n >= 3")
    label = WeightLabel(n, lam)
    if abs(lam) == n:
        raise ValueError("lambda = +-n does not restrict in two pieces")
    module = weight_module(n, lam, ctx)
    zmat = z_matrix(n - 1, module)
    s_minus = z_scalar_formula(WeightLabel(n - 1, lam - 1), ctx)
    s_plus = z_scalar_formula(WeightLabel(n - 1, lam + 1), ctx)
    a = label.a
    expected = (comb(n - 1, a - 1), comb(n - 1, a))
    if s_minus == s_plus:
        complement = _wall_complement_search(zmat, s_minus)
        return SplittingResult(n, lam, True, "undetermined", None, expected,
                               None, complement)
    # each eigenspace ker(z - s) is b_{n-1}-invariant iff (z - s) g K = 0
    # for the kernel basis K (as columns) and every generator g
    dims = []
    invariant = True
    for s in (s_minus, s_plus):
        zs = mat_sub_scalar_diag(zmat, s)
        space = nullspace(zs, ctx.one)
        dims.append(len(space))
        invariant = invariant and all(
            mat_is_zero(mat_mul(zs, mat_mul(g, space)))
            for g in module.U[: n - 1])
    dims = tuple(dims)
    split = dims == expected and invariant and sum(dims) == module.dim
    return SplittingResult(n, lam, False, split, dims, expected, invariant,
                           "n/a")


def _wall_complement_search(zmat, s):
    """The wall certificate.  A b_{n-1}-linear section of
    res M_n(lam) -> M_{n-1}(lam+1) would split the module as
    M_{n-1}(lam-1) + M_{n-1}(lam+1), on which the central z_{n-1} acts by
    s_minus and s_plus; on the wall both equal s, so z_{n-1} = s*Id.  Hence
    z_{n-1} - s != 0 proves that no section exists ("none").  If z_{n-1} = s
    the certificate is silent ("not_attempted").  The name predates the
    certificate (it replaced an exact search for the section) and is kept
    because the benchmark trace (perfbench/layers.py) times the wall
    handling under it."""
    return "not_attempted" if mat_is_zero(mat_sub_scalar_diag(zmat, s)) \
        else "none"


# ---------------------------------------------------------------------------
# the multiplicity triangle
# ---------------------------------------------------------------------------

def x_multiplicity_entry(n, lam):
    """Number of basis words of M_n(lam) starting with 2 = binom(n-1, a)."""
    label = WeightLabel(n, lam)
    return comb(n - 1, label.a)


def x_multiplicity_table(n_max):
    """Rows n = 1..n_max of the eigenvalue-multiplicity triangle, columns
    lam = -n..n ascending."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    return {n: [x_multiplicity_entry(n, lam) for lam in lambda_range(n)]
            for n in range(1, n_max + 1)}


def verify_triangle(n_max):
    """The triangle satisfies the Pascal recursion (missing entries are 0)
    and matches both direct counts; each check names its first failing
    entry."""
    table = x_multiplicity_table(n_max)
    bad = next((f"n={n},lambda={lam}"
                for n in range(1, n_max + 1)
                for j, lam in enumerate(lambda_range(n))
                if table[n][j] != sum(1 for w in weight_basis(n, lam)
                                      if w[0] == "2")), None)
    checks = [RelationCheck("triangle_counts_words", bad is None, bad)]

    def pascal_failures():
        for n in range(2, n_max + 1):
            prev = dict(zip(lambda_range(n - 1), table[n - 1]))
            for j, lam in enumerate(lambda_range(n)):
                if table[n][j] != prev.get(lam - 1, 0) + prev.get(lam + 1, 0):
                    yield f"n={n},lambda={lam}"

    bad = next(pascal_failures(), None)
    checks.append(RelationCheck("triangle_pascal_recursion", bad is None,
                                bad))
    return checks


# ---------------------------------------------------------------------------
# the n = 2 golden matrices
# ---------------------------------------------------------------------------

def smallcase_golden(ctx):
    """The printed matrices of U1, X, U0 on M_2(0) in the basis (12, 21),
    built directly from the closed-form entries."""
    q, qinv = ctx.q, ctx.qinv
    lam1, lam2 = ctx.lam1, ctx.lam2
    qmq = ctx.q_minus_qinv
    m = lam1 - lam2
    u1 = [{0: -qinv, 1: ctx.one}, {0: ctx.one, 1: -q}]
    x = [{0: lam1, 1: -(lam1 * qmq)}, {1: lam2}]
    u0 = [{1: -(lam1 * qmq)}, {1: -m}]
    return {"U1": u1, "X": x, "U0": u0}


def verify_smallcase_matrices(ctx):
    """Recompute the matrices of U1, X, U0 on M_2(0) (basis order 12, 21)
    from the operators, compare them entry-exactly with the golden forms,
    and check the nonzero coefficient of U0 applied to q^-1*12 - 21."""
    basis = ["12", "21"]
    rep = MatrixRep(basis, op_X_ctx(2, ctx).matrix(basis),
                    {1: op_T_ctx(2, 2, ctx).matrix(basis)}, ctx)
    computed = {"U1": rep.U[1], "X": rep.x, "U0": rep.U[0]}
    golden = smallcase_golden(ctx)
    checks = [RelationCheck(f"smallcase_matrix({name})",
                            computed[name][0] == golden[name][0]
                            and computed[name][1] == golden[name][1])
              for name in ("U1", "X", "U0")]
    # U0 (q^-1 12 - 21) = q^-1(-lam1(q - q^-1) + q [m]) 21, nonzero
    vec = mat_vec(rep.U[0], {0: ctx.qinv, 1: -ctx.one})
    m = ctx.lam1 - ctx.lam2
    coeff = ctx.qinv * (-(ctx.lam1 * ctx.q_minus_qinv) + ctx.q * m)
    checks.append(RelationCheck("smallcase_u0_underline",
                                vec == {1: coeff}))
    checks.append(RelationCheck("smallcase_coefficient_nonzero",
                                not coeff.is_zero()))
    return checks, computed, golden
