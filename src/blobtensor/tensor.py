"""The rank-two tensor space and its Hecke-algebra operators.

Basis vectors of V^(x)n are words over {1, 2}, written as strings ('112' is
v1 (x) v1 (x) v2).  Operators are stored lazily as rules on basis words and
applied by linearity; dense matrices are only materialized on weight
subspaces, never on the full 2^n-dimensional space.

Conventions:

* T_j (j = 2..n) acts on letter positions (j-1, j): equal letters scale by q,
  '21' swaps to '12', and '12' maps to '21' + (q - q^-1) '12'.
* S_j scales equal adjacent letters by q and swaps unequal ones.
* varpi scales a word by lambda1 or lambda2 according to its first letter;
  theta = S_n ... S_2; and X = T_2^-1 ... T_n^-1 theta varpi.
* X_1 = X and X_k = T_k X_{k-1} T_k.

>>> from blobtensor.scalars import BlobParams
>>> p = BlobParams(2, 0, 2)
>>> v = op_T(2, p)("21")
>>> sorted(v) == ["12"]
True
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .linalg import vec_add_scaled, vec_eq, vec_scale, vec_sub
from .scalars import context


# ---------------------------------------------------------------------------
# words and vectors
# ---------------------------------------------------------------------------

def all_words(n):
    """All words in {1,2}^n, lexicographically with 1 < 2."""
    return ["".join(t) for t in itertools.product("12", repeat=n)]


def weight_words(n, ones):
    """Words with the given number of 1s, lexicographic order."""
    return [w for w in all_words(n) if w.count("1") == ones]


def vect_to_json(v, field):
    return {w: field.serialize(c) for w, c in sorted(v.items())}


# ---------------------------------------------------------------------------
# lazy linear operators
# ---------------------------------------------------------------------------

class LinOp:
    """A linear endomorphism of the span of length-n words, given by a rule
    basis word -> sparse vector.  Per-word results are memoized; composition,
    sums and scalar multiples stay lazy."""

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

    def __add__(self, other):
        return LinOp(self.n, self.ctx,
                     lambda w: _vadd(self.apply_word(w), other.apply_word(w)),
                     name=f"({self.name}+{other.name})")

    def __sub__(self, other):
        return LinOp(self.n, self.ctx,
                     lambda w: vec_sub(self.apply_word(w),
                                       other.apply_word(w)),
                     name=f"({self.name}-{other.name})")

    def __rmul__(self, c):
        return LinOp(self.n, self.ctx,
                     lambda w: vec_scale(self.apply_word(w), c),
                     name=f"c*{self.name}")

    def minus_scalar(self, c):
        """self - c * Id."""

        def rule(w):
            out = dict(self.apply_word(w))
            cur = out.get(w)
            s = (cur - c) if cur is not None else -c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
            return out

        return LinOp(self.n, self.ctx, rule, name=f"({self.name}-c)")

    @staticmethod
    def identity(n, ctx):
        one = ctx.one
        return LinOp(n, ctx, lambda w: {w: one}, name="Id")

    def matrix(self, basis):
        """Column-sparse matrix on an ordered basis of words (columns are
        images); raises if an image leaves the span of the basis."""
        index = {w: i for i, w in enumerate(basis)}
        cols = []
        for w in basis:
            col = {}
            for u, c in self.apply_word(w).items():
                if u not in index:
                    raise ValueError(
                        f"{self.name or 'operator'} leaves the basis span "
                        f"at {w} -> {u}")
                col[index[u]] = c
            cols.append(col)
        return cols


def _vadd(a, b):
    out = dict(a)
    for i, x in b.items():
        cur = out.get(i)
        s = (cur + x) if cur is not None else x
        if s.is_zero():
            out.pop(i, None)
        else:
            out[i] = s
    return out


# ---------------------------------------------------------------------------
# the defining operators
# ---------------------------------------------------------------------------

def _check_index(i, n, lo=2):
    if not lo <= i <= n:
        raise ValueError(f"index {i} out of range {lo}..{n}")


def op_T_ctx(i, n, ctx):
    _check_index(i, n)
    q = ctx.q
    one = ctx.one
    qmq = ctx.q_minus_qinv

    def rule(w):
        a, b = w[i - 2], w[i - 1]
        if a == b:
            return {w: q}
        swapped = w[: i - 2] + b + a + w[i:]
        if a == "2":
            return {swapped: one}
        return {swapped: one, w: qmq}

    return LinOp(n, ctx, rule, name=f"T{i}")


def op_T_inv_ctx(i, n, ctx):
    _check_index(i, n)
    qinv = ctx.qinv
    one = ctx.one
    qmq = ctx.q_minus_qinv

    def rule(w):
        a, b = w[i - 2], w[i - 1]
        if a == b:
            return {w: qinv}
        swapped = w[: i - 2] + b + a + w[i:]
        if a == "1":
            return {swapped: one}
        return {swapped: one, w: -qmq}

    return LinOp(n, ctx, rule, name=f"T{i}^-1")


def op_S_ctx(j, n, ctx):
    _check_index(j, n)
    q = ctx.q
    one = ctx.one

    def rule(w):
        a, b = w[j - 2], w[j - 1]
        if a == b:
            return {w: q}
        return {w[: j - 2] + b + a + w[j:]: one}

    return LinOp(n, ctx, rule, name=f"S{j}")


def op_varpi_ctx(n, ctx):
    lam1, lam2 = ctx.lam1, ctx.lam2

    def rule(w):
        return {w: lam1 if w[0] == "1" else lam2}

    return LinOp(n, ctx, rule, name="varpi")


def op_theta_varpi_ctx(n, ctx):
    """The rotation operator: i1 i2...in -> lambda_{delta(1)} q^(a-1)
    i2...in i1 with a the number of letters equal to i1."""
    lam1, lam2 = ctx.lam1, ctx.lam2

    def rule(w):
        first = w[0]
        a = w.count(first)
        lam = lam1 if first == "1" else lam2
        return {w[1:] + first: lam * ctx.q_pow(a - 1)}

    return LinOp(n, ctx, rule, name="theta*varpi")


def op_theta_varpi_composite_ctx(n, ctx):
    """Same map assembled the long way: S_n ... S_2 after varpi.  Kept as an
    independent code path for cross-checking."""
    op = op_varpi_ctx(n, ctx)
    for j in range(2, n + 1):
        op = op_S_ctx(j, n, ctx) @ op
    return op


def op_X_ctx(n, ctx):
    op = op_theta_varpi_ctx(n, ctx)
    for i in range(n, 1, -1):
        op = op_T_inv_ctx(i, n, ctx) @ op
    op.name = "X"
    return op


def ops_Xk_ctx(n, ctx, kmax=None):
    """[X_1, ..., X_kmax] with X_1 = X and X_k = T_k X_{k-1} T_k."""
    if kmax is None:
        kmax = n
    _check_index(kmax, n, lo=1)
    ops = [op_X_ctx(n, ctx)]
    for k in range(2, kmax + 1):
        t = op_T_ctx(k, n, ctx)
        op = t @ ops[-1] @ t
        op.name = f"X{k}"
        ops.append(op)
    return ops


# params-facing wrappers -----------------------------------------------------

def op_T(i, params):
    return op_T_ctx(i, params.n, context(params))


def op_T_inv(i, params):
    return op_T_inv_ctx(i, params.n, context(params))


def op_S(j, params):
    return op_S_ctx(j, params.n, context(params))


def op_theta_varpi(params):
    return op_theta_varpi_ctx(params.n, context(params))


def op_X(params):
    return op_X_ctx(params.n, context(params))


def op_Xk(k, params):
    return ops_Xk_ctx(params.n, context(params), k)[k - 1]


# ---------------------------------------------------------------------------
# relation verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelationCheck:
    name: str
    ok: bool
    first_failure: str | None = None

    def to_record(self):
        return {"relation": self.name, "ok": self.ok,
                "first_failure": self.first_failure}


def _zero_on_words(op, words):
    for w in words:
        if op.apply_word(w):
            return w
    return None


def _agree_on_words(a, b, words):
    for w in words:
        if not vec_eq(a.apply_word(w), b.apply_word(w)):
            return w
    return None


def _check_equal(name, a, b, words):
    bad = _agree_on_words(a, b, words)
    return RelationCheck(name, bad is None, bad)


def _check_zero(name, op, words):
    bad = _zero_on_words(op, words)
    return RelationCheck(name, bad is None, bad)


def verify_ariki_koike(n, params):
    """Check the defining relations on every basis word of V^(x)n, twice:
    once by lazy rule composition, once by dense products on each weight
    block.  Returns one RelationCheck per relation."""
    ctx = context(params)
    return verify_ariki_koike_ctx(n, ctx)


def verify_ariki_koike_ctx(n, ctx):
    from .linalg import mat_eq, mat_is_zero, mat_mul, mat_sub_scalar_diag

    if n < 2:
        raise ValueError("relation suite needs n >= 2")
    words = all_words(n)
    T = {i: op_T_ctx(i, n, ctx) for i in range(2, n + 1)}
    X = op_X_ctx(n, ctx)

    # lazy, word-by-word checks
    lazy = {}
    for i in range(2, n + 1):
        lazy[f"quadratic(T{i})"] = _check_zero(
            f"quadratic(T{i})",
            T[i].minus_scalar(ctx.q) @ T[i].minus_scalar(-ctx.qinv), words)
    for i in range(2, n):
        lazy[f"braid(T{i},T{i + 1})"] = _check_equal(
            f"braid(T{i},T{i + 1})",
            T[i] @ T[i + 1] @ T[i], T[i + 1] @ T[i] @ T[i + 1], words)
    for i in range(2, n + 1):
        for j in range(i + 2, n + 1):
            lazy[f"commute(T{i},T{j})"] = _check_equal(
                f"commute(T{i},T{j})", T[i] @ T[j], T[j] @ T[i], words)
    lazy["mixed_braid(T2,X)"] = _check_equal(
        "mixed_braid(T2,X)",
        T[2] @ X @ T[2] @ X, X @ T[2] @ X @ T[2], words)
    for j in range(3, n + 1):
        lazy[f"commute(X,T{j})"] = _check_equal(
            f"commute(X,T{j})", X @ T[j], T[j] @ X, words)
    lazy["quadratic(X)"] = _check_zero(
        "quadratic(X)",
        X.minus_scalar(ctx.lam1) @ X.minus_scalar(ctx.lam2), words)

    # dense oracle: independent recomputation by matrix products, one pass
    # per weight block (the operators are weight preserving)
    dense_fail = set()
    for ones in range(n + 1):
        basis = weight_words(n, ones)
        tm = {i: T[i].matrix(basis) for i in T}
        xm = X.matrix(basis)
        for i in range(2, n + 1):
            if not mat_is_zero(mat_mul(
                    mat_sub_scalar_diag(tm[i], ctx.q),
                    mat_sub_scalar_diag(tm[i], -ctx.qinv))):
                dense_fail.add(f"quadratic(T{i})")
        for i in range(2, n):
            if not mat_eq(mat_mul(tm[i], mat_mul(tm[i + 1], tm[i])),
                          mat_mul(tm[i + 1], mat_mul(tm[i], tm[i + 1]))):
                dense_fail.add(f"braid(T{i},T{i + 1})")
        for i in range(2, n + 1):
            for j in range(i + 2, n + 1):
                if not mat_eq(mat_mul(tm[i], tm[j]), mat_mul(tm[j], tm[i])):
                    dense_fail.add(f"commute(T{i},T{j})")
        if not mat_eq(
                mat_mul(tm[2], mat_mul(xm, mat_mul(tm[2], xm))),
                mat_mul(xm, mat_mul(tm[2], mat_mul(xm, tm[2])))):
            dense_fail.add("mixed_braid(T2,X)")
        for j in range(3, n + 1):
            if not mat_eq(mat_mul(xm, tm[j]), mat_mul(tm[j], xm)):
                dense_fail.add(f"commute(X,T{j})")
        if not mat_is_zero(mat_mul(mat_sub_scalar_diag(xm, ctx.lam1),
                                   mat_sub_scalar_diag(xm, ctx.lam2))):
            dense_fail.add("quadratic(X)")

    checks = [RelationCheck(c.name, c.ok and c.name not in dense_fail,
                            c.first_failure)
              for c in lazy.values()]

    checks.append(_check_equal("rotation_formula_vs_composite",
                               op_theta_varpi_ctx(n, ctx),
                               op_theta_varpi_composite_ctx(n, ctx), words))
    for i in range(2, n + 1):
        checks.append(_check_equal(
            f"two_sided_inverse(T{i})",
            op_T_inv_ctx(i, n, ctx) @ T[i], LinOp.identity(n, ctx), words))
    return checks


def verify_partial_rotation_fixing(j, p, n, params):
    """For every basis word v with letter >= j at position p, check that
    T_{p+1}^-1 ... T_n^-1 S_n ... S_{p+1} fixes v modulo the span of words
    with letter >= j+1 at position p."""
    if not 1 <= j <= 2:
        raise ValueError("j must be 1 or 2")
    if not 1 <= p <= n:
        raise ValueError(f"position {p} out of range 1..{n}")
    ctx = context(params)
    comp = LinOp.identity(n, ctx)
    for r in range(p + 1, n + 1):
        comp = op_S_ctx(r, n, ctx) @ comp
    for r in range(n, p, -1):
        comp = op_T_inv_ctx(r, n, ctx) @ comp
    bad = None
    for v in all_words(n):
        if int(v[p - 1]) < j:
            continue
        residual = vec_sub(comp.apply_word(v), {v: ctx.one})
        if any(int(u[p - 1]) < j + 1 for u in residual):
            bad = v
            break
    return [RelationCheck(f"rotation_fixes_filtration({j},{p})",
                          bad is None, bad)]


def verify_blob_identity(n, params):
    """The quotient identity (X T2 X T2 - lam1*lam2)(T2 - q) = 0 on every
    basis word, plus the commuted form and a dense-matrix recomputation."""
    ctx = context(params)
    return verify_blob_identity_ctx(n, ctx)


def verify_blob_identity_ctx(n, ctx):
    from .linalg import mat_is_zero, mat_mul, mat_sub_scalar_diag

    words = all_words(n)
    X = op_X_ctx(n, ctx)
    T2 = op_T_ctx(2, n, ctx)
    lam12 = ctx.lam1 * ctx.lam2
    quartic = (X @ T2 @ X @ T2).minus_scalar(lam12)
    bminus = T2.minus_scalar(ctx.q)
    checks = [
        _check_zero("blob_identity", quartic @ bminus, words),
        _check_zero("blob_identity_commuted", bminus @ quartic, words),
    ]
    dense_ok = True
    for ones in range(n + 1):
        basis = weight_words(n, ones)
        xm = X.matrix(basis)
        tm = T2.matrix(basis)
        quart = mat_sub_scalar_diag(
            mat_mul(xm, mat_mul(tm, mat_mul(xm, tm))), lam12)
        if not mat_is_zero(mat_mul(quart, mat_sub_scalar_diag(tm, ctx.q))):
            dense_ok = False
            break
    checks.append(RelationCheck("blob_identity_dense_oracle", dense_ok))
    return checks
