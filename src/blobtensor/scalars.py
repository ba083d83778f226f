"""Exact coefficient arithmetic for the two-parameter Hecke / blob setting.

Two interchangeable backends:

* generic -- the fraction field of integer Laurent polynomials in q.  This is
  the "q transcendental" case; every identity proved here holds literally.
* cyclotomic(l) -- the field Q[q] / Phi_l(q) for odd l >= 3, so q is a genuine
  primitive l-th root of unity and zero-testing is exact.

Every scalar is stored in a unique canonical form and interned in its field
(hash-consing: J.-C. Filliatre and S. Conchon, "Type-safe modular
hash-consing", ML Workshop 2006): the constructor returns the one object
the field holds for that form, so between scalars of one field equality is
identity.  Values are immutable and hash by identity.  Products, sums,
negatives and inverses are memo functions (D. Michie, Nature 218, 1968) on
the interned objects: each is computed once per field and operand pair.

Every scalar holds its field as `home`, and the protocol is stated once for
both backends: `_Field` holds the intern and memo tables, and one set of
operators reads them through `home`.  A backend supplies only its
arithmetic on canonical operands (`_plus`, `_times`, `_negated`,
`_inverted`).

>>> q = GENERIC.q
>>> (q - q.inv()) * (q - q.inv()).inv() == GENERIC.one
True
>>> ctx = context(BlobParams(2, 0, 2))
>>> str(ctx.gauss(2))
'1*q^-1+1*q^1/1*q^0'
>>> ctx.lam1 - ctx.lam2 == ctx.gauss(2)
True
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache, reduce


class BlobTensorError(Exception):
    """Base class for errors raised by this package."""


class ParameterError(BlobTensorError):
    """Invalid (n, l, m) parameter set; `code` names the violated condition."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# dense integer polynomials: tuple of coefficients, constant term first,
# no trailing zeros; () is the zero polynomial.
# ---------------------------------------------------------------------------

def _ptrim(cs):
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        if c:
            for j, d in enumerate(b):
                if d:
                    out[i + j] += c * d
    return _ptrim(out)


def _pcontent(a):
    return reduce(math.gcd, a, 0)


def _pprimitive(a):
    """Return (content, primitive part) with the primitive part's leading
    coefficient positive.  Zero maps to (0, ())."""
    if not a:
        return 0, ()
    c = _pcontent(a)
    if a[-1] < 0:
        c = -c
    return c, tuple(x // c for x in a)


def _pdiv_exact(a, b):
    """Quotient a // b when b divides a exactly over Z[q]; error otherwise."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    if not a:
        return ()
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        raise ArithmeticError("inexact polynomial division")
    rem = list(a)
    out = [0] * (da - db + 1)
    lb = b[-1]
    for k in range(da - db, -1, -1):
        lead = rem[k + db]
        if lead % lb:
            raise ArithmeticError("inexact polynomial division")
        t = lead // lb
        out[k] = t
        if t:
            for j, c in enumerate(b):
                rem[k + j] -= t * c
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _ptrim(out)


def _prem(a, b):
    """Pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b over Z[q]."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    rem = list(a)
    for k in range(da - db, -1, -1):
        lead = rem[k + db]
        rem = [lb * c for c in rem]
        if lead:
            for j in range(db + 1):
                rem[k + j] -= lead * b[j]
    return _ptrim(rem[:db])


def _pgcd(a, b):
    """Primitive gcd over Z[q] (leading coefficient positive); 0-poly handled."""
    if not a:
        return _pprimitive(b)[1]
    if not b:
        return _pprimitive(a)[1]
    if len(a) == 1 or len(b) == 1:
        return (1,)
    a = _pprimitive(a)[1]
    b = _pprimitive(b)[1]
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem(a, b)
        a, b = b, _pprimitive(r)[1]
        if len(a) == 1:
            return (1,)
    return a


def _peval_mod(cs, t, p):
    """The polynomial with coefficients cs evaluated at t, mod p."""
    acc = 0
    for c in reversed(cs):
        acc = (acc * t + c) % p
    return acc


# The strong probable-prime test to the bases 2, 3, ..., 17 decides
# primality below 341,550,071,728,321, the least strong pseudoprime to all
# seven (G. Jaeschke, Math. Comp. 61 (1993)).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17)
_PRIME_BOUND = 341_550_071_728_321


def _is_prime(n):
    """Whether n is prime, by the deterministic Miller-Rabin test; n must
    lie below `_PRIME_BOUND`."""
    if n >= _PRIME_BOUND:
        raise ValueError(f"{n} is beyond the deterministic Miller-Rabin "
                         f"bound {_PRIME_BOUND}")
    if n < 2:
        return False
    for b in _PRIME_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _PRIME_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class ModularMap:
    """A ring map from the field's p-integral elements onto F_p, sending q
    to the residue `q`; `image(x)` is an int in [0, p).  Being a ring map,
    it sends a nonzero minor to a value that may vanish but never the other
    way round, so a rank read mod p is a lower bound for the exact rank and
    the vectors it accepts are exactly independent.  A scalar whose
    denominator vanishes mod p has no image: ZeroDivisionError."""

    def __init__(self, p, q):
        self.p = p
        self.q = q
        # matrices and families repeat a few distinct values
        self.image = lru_cache(maxsize=4096)(lambda x: x.residue(p, q))

    def vec(self, v):
        image = self.image
        out = {}
        for i, x in v.items():
            r = image(x)
            if r:
                out[i] = r
        return out

    def mat(self, cols):
        return [self.vec(col) for col in cols]


# ---------------------------------------------------------------------------
# the protocol stated once for both backends: a field interns its values and
# memoizes the operations in the tables of `_Field`, and every scalar holds
# its field as `home`.  Each scalar class binds the operators below in its
# own body, so every operator stays a name in the class's __dict__, and
# supplies only its arithmetic on canonical operands of one field: `_plus`,
# `_times`, `_negated` and `_inverted`.
# ---------------------------------------------------------------------------

class _Field:
    """The tables of one field: its interned scalars by canonical form, the
    memoized products, sums, negatives and inverses of them, and its
    interned contexts by (lambda1, lambda2) (see `FieldContext`)."""

    def __init__(self):
        self._values = {}
        self._contexts = {}
        self._products = {}
        self._sums = {}
        self._negatives = {}
        self._inverses = {}

    def serialize(self, x):
        if getattr(x, "home", None) is not self:
            raise TypeError("scalar does not belong to this field")
        return str(x)


def _is_zero(self):
    return self is self.home.zero


def _nonzero(self):
    return self is not self.home.zero


def _eq(self, other):
    if isinstance(other, (GenericScalar, CycScalar)):
        if other.home is not self.home:
            raise TypeError("cannot compare scalars from different fields")
        return self is other
    if isinstance(other, int):
        return self is self.home.from_int(other)
    return NotImplemented


def _coerce(self, other):
    """other as a scalar of self's field, None if it is neither a scalar nor
    an int; TypeError for a scalar of another field."""
    if isinstance(other, (GenericScalar, CycScalar)):
        if other.home is not self.home:
            raise TypeError("mixing scalars from different fields")
        return other
    if isinstance(other, int):
        return self.home.from_int(other)
    return None


def _add(self, other):
    sums = self.home._sums
    key = (self, other)
    x = sums.get(key)
    if x is None:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x = sums[key] = self._plus(o)
    return x


def _mul(self, other):
    products = self.home._products
    key = (self, other)
    x = products.get(key)
    if x is None:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        x = products[key] = self._times(o)
    return x


def _neg(self):
    negatives = self.home._negatives
    x = negatives.get(self)
    if x is None:
        x = negatives[self] = self._negated()
        negatives[x] = self
    return x


def _inv(self):
    inverses = self.home._inverses
    x = inverses.get(self)
    if x is None:
        if self is self.home.zero:
            raise ZeroDivisionError("inverting zero scalar")
        x = inverses[self] = self._inverted()
        inverses[x] = self
    return x


def _sub(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return self + (-o)


def _rsub(self, other):
    return (-self) + other


def _truediv(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return self * o.inv()


def _rtruediv(self, other):
    o = self._coerce(other)
    if o is None:
        return NotImplemented
    return o * self.inv()


def _pow(self, e):
    if not isinstance(e, int):
        return NotImplemented
    if e < 0:
        return self.inv() ** (-e)
    out = self._coerce(1)
    base = self
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


# ---------------------------------------------------------------------------
# generic backend: q^shift * num(q) / den(q)
# ---------------------------------------------------------------------------

def _term_string(coeffs, low):
    if not coeffs:
        return "0"
    return "+".join(
        f"{c}*q^{low + i}" for i, c in enumerate(coeffs) if c
    )


def _parse_terms(text):
    """Inverse of `_term_string`; returns (low, coeffs)."""
    if text == "0":
        return 0, ()
    terms = {}
    for part in text.split("+"):
        cs, es = part.split("*q^")
        e = int(es)
        terms[e] = terms.get(e, 0) + int(cs)
    low = min(terms)
    high = max(terms)
    return low, _ptrim([terms.get(k, 0) for k in range(low, high + 1)])


class GenericScalar:
    """Element of the fraction field of Z[q, q^-1], in canonical form.

    Canonical form: value = q**shift * num(q)/den(q) with num(0) != 0,
    den(0) != 0, den's leading coefficient positive, num/den coprime in Q[q]
    and the integer contents of num and den coprime.

    Sums, parsing and raw data go through `make`, the one canonicaliser.
    Products skip it by Henrici's rule (P. Henrici, "A subroutine for
    computations with rational numbers", J. ACM 3 (1956); Knuth, TAOCP
    vol. 2, 4.5.1): for canonical na/da and nb/db, cancel g1 = gcd(na, db)
    and g2 = gcd(nb, da), the primitive gcds with positive leading
    coefficients.  The cofactors n1 n2 and d1 d2 are then coprime in Q[q],
    since gcd(na, da) = gcd(nb, db) = 1 and the cross gcds were divided
    out.  By Gauss's lemma the cofactors are integral; their constant terms
    stay nonzero (n1 g1 = na, and so on) and d1 d2 keeps a positive leading
    coefficient.  Only the integer contents may still share a factor, and
    dividing both sides by it gives the canonical form.

    Values are interned in their field, `home`, which also memoizes the
    operations (see the module docstring); GENERIC is the one generic field.
    """

    __slots__ = ("home", "shift", "num", "den")

    def __new__(cls, home, shift, num, den):
        """The interned scalar of `home` for the canonical triple (shift,
        num, den), num and den tuples."""
        values = home._values
        key = (shift, num, den)
        x = values.get(key)
        if x is None:
            x = values[key] = object.__new__(cls)
            x.home = home
            x.shift = shift
            x.num = num
            x.den = den
        return x

    @staticmethod
    def make(shift, num, den):
        num = _ptrim(num)
        den = _ptrim(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            return GENERIC.zero
        i = 0
        while num[i] == 0:
            i += 1
        shift += i
        num = num[i:]
        j = 0
        while den[j] == 0:
            j += 1
        shift -= j
        den = den[j:]
        cn, pn = _pprimitive(num)
        cd, pd = _pprimitive(den)
        g = _pgcd(pn, pd)
        if len(g) > 1:
            pn = _pdiv_exact(pn, g)
            pd = _pdiv_exact(pd, g)
        c = math.gcd(cn, cd)
        cn //= c
        cd //= c
        if cd < 0:
            cn, cd = -cn, -cd
        num = tuple(cn * x for x in pn)
        den = tuple(cd * x for x in pd)
        return GenericScalar(GENERIC, shift, num, den)

    is_zero = _is_zero
    __bool__ = _nonzero
    __eq__ = _eq
    __hash__ = object.__hash__
    _coerce = _coerce
    __add__ = __radd__ = _add
    __mul__ = __rmul__ = _mul
    __neg__ = _neg
    inv = _inv
    __sub__ = _sub
    __rsub__ = _rsub
    __truediv__ = _truediv
    __rtruediv__ = _rtruediv
    __pow__ = _pow

    def _plus(self, o):
        if not self.num:
            return o
        if not o.num:
            return self
        low = min(self.shift, o.shift)
        a = _pmul(self.num, o.den)
        b = _pmul(o.num, self.den)
        a = (0,) * (self.shift - low) + a
        b = (0,) * (o.shift - low) + b
        return GenericScalar.make(low, _padd(a, b), _pmul(self.den, o.den))

    def _times(self, o):
        if not self.num or not o.num:
            return self.home.zero
        # Henrici: after cross-cancellation only the contents can still
        # share a factor (see the class docstring)
        g1 = _pgcd(self.num, o.den)
        g2 = _pgcd(o.num, self.den)
        n1 = self.num if len(g1) == 1 else _pdiv_exact(self.num, g1)
        d2 = o.den if len(g1) == 1 else _pdiv_exact(o.den, g1)
        n2 = o.num if len(g2) == 1 else _pdiv_exact(o.num, g2)
        d1 = self.den if len(g2) == 1 else _pdiv_exact(self.den, g2)
        num = _pmul(n1, n2)
        den = _pmul(d1, d2)
        c = math.gcd(*num, *den)
        if c > 1:
            num = tuple(x // c for x in num)
            den = tuple(x // c for x in den)
        return GenericScalar(self.home, self.shift + o.shift, num, den)

    def _negated(self):
        return GenericScalar(self.home, self.shift, _pneg(self.num), self.den)

    def _inverted(self):
        num, den = self.den, self.num
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return GenericScalar(self.home, -self.shift, num, den)

    def residue(self, p, t):
        """Image mod p under q -> t."""
        d = _peval_mod(self.den, t, p)
        if not d:
            raise ZeroDivisionError(f"denominator of {self!r} vanishes mod {p}")
        return (_peval_mod(self.num, t, p) * pow(t, self.shift, p)
                * pow(d, -1, p) % p)

    # -- io -------------------------------------------------------------

    def __str__(self):
        return (f"{_term_string(self.num, self.shift)}"
                f"/{_term_string(self.den, 0)}")

    def __repr__(self):
        return f"GenericScalar({str(self)!r})"


class GenericField(_Field):
    """The generic backend: fraction field of Z[q, q^-1].  It holds the
    interned scalars by (shift, num, den) and the memoized operations on
    them; GENERIC is its one instance."""

    name = "generic"
    l = 0

    def __init__(self):
        super().__init__()
        self.zero = GenericScalar(self, 0, (), (1,))
        self.one = GenericScalar(self, 0, (1,), (1,))
        self.q = GenericScalar(self, 1, (1,), (1,))
        # 7 is a primitive root mod p = 2^31 - 1, and so is 7^k for every k
        # prime to p - 1, so no q^k - 1 with 0 < k < p - 1 vanishes.  The
        # image of q is such a power far from 0, because a small one is a
        # root of small polynomials (7 of q - 7, which a family of small
        # integer Laurent polynomials meets), and there ranks drop mod p
        p = 2 ** 31 - 1
        self.modular = ModularMap(p, pow(7, 123456791, p))

    def from_int(self, k):
        if k == 0:
            return self.zero
        return GenericScalar(self, 0, (k,), (1,))

    def q_pow(self, e):
        return GenericScalar(self, e, (1,), (1,))

    def parse(self, text):
        ns, ds = text.split("/")
        nlow, num = _parse_terms(ns)
        dlow, den = _parse_terms(ds)
        if not den:
            raise ValueError(f"zero denominator in {text!r}")
        return GenericScalar.make(nlow - dlow, num, den)

    def __repr__(self):
        return "GenericField()"


GENERIC = GenericField()


# ---------------------------------------------------------------------------
# cyclotomic backend: Q[q] / Phi_l(q)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def cyclotomic_polynomial(l):
    """The l-th cyclotomic polynomial over Z, as a coefficient tuple."""
    if l < 1:
        raise ValueError("l must be positive")
    # x^l - 1 divided by the product of Phi_d over proper divisors d of l
    num = (-1,) + (0,) * (l - 1) + (1,)
    for d in range(1, l):
        if l % d == 0:
            num = _pdiv_exact(num, cyclotomic_polynomial(d))
    return num


def _reduction_rows(phi):
    """x^k mod phi for k = deg .. 2*deg-2 (phi monic), each a tuple of deg
    coefficients, by the recurrence x^(k+1) = x * x^k."""
    deg = len(phi) - 1
    row = [-c for c in phi[:-1]]
    rows = [tuple(row)]
    for _ in range(deg + 1, 2 * deg - 1):
        top = row[-1]
        row = [0] + row[:-1]
        if top:
            row = [r - top * c for r, c in zip(row, phi)]
        rows.append(tuple(row))
    return rows


def _compile_product(deg, rows):
    """A straight-line `product(a, b)` for coefficient tuples of length
    deg: the high convolution terms c_s (s = deg .. 2*deg-2) are formed
    once, and each output coefficient is its low convolution sum plus the
    c_s weighted by column j of the reduction rows.  The result is exact
    and bilinear in (a, b) by construction."""
    def conv(s):
        return " + ".join(f"a{i}*b{s - i}" for i in
                          range(max(0, s - deg + 1), min(s, deg - 1) + 1))

    high = range(deg, 2 * deg - 1)
    lines = ["def product(a, b):",
             f"    {', '.join(f'a{i}' for i in range(deg))}, = a",
             f"    {', '.join(f'b{i}' for i in range(deg))}, = b"]
    lines += [f"    c{s} = {conv(s)}" for s in high]
    outs = []
    for j in range(deg):
        expr = conv(j)
        for s, row in zip(high, rows):
            w = row[j]
            if w:
                sign = " + " if w > 0 else " - "
                expr += sign + ("" if abs(w) == 1 else f"{abs(w)}*") + f"c{s}"
        outs.append(expr)
    lines.append(f"    return ({', '.join(outs)},)")
    namespace = {}
    exec(compile("\n".join(lines), "<cyclotomic product>", "exec"), namespace)
    return namespace["product"]


def _certify_product(product, phi):
    """A bilinear product is fixed by its values on the basis pairs
    (q^i, q^j); compare each with the remainder of x^(i+j) on long
    division by phi.  ArithmeticError on any mismatch."""
    deg = len(phi) - 1
    basis = [tuple(int(i == k) for k in range(deg)) for i in range(deg)]
    for i in range(deg):
        for j in range(deg):
            rem = _prem((0,) * (i + j) + (1,), phi)
            want = rem + (0,) * (deg - len(rem))
            got = product(basis[i], basis[j])
            if got != want:
                raise ArithmeticError(
                    f"product kernel for Phi = {phi} sends (q^{i}, q^{j}) "
                    f"to {got}, not {want}")


class CycScalar:
    """Element of Q[q]/Phi_l(q): integer coefficient vector over a common
    positive denominator, gcd(content, den) = 1.  Interned in its field,
    `home`, which also memoizes the operations (see the module
    docstring)."""

    __slots__ = ("home", "num", "den")

    def __new__(cls, home, num, den):
        """The interned scalar of `home` for the canonical pair (num, den),
        num a tuple."""
        values = home._values
        key = (num, den)
        x = values.get(key)
        if x is None:
            x = values[key] = object.__new__(cls)
            x.home = home
            x.num = num
            x.den = den
        return x

    # read-only alias: perfbench/layers.py::_harvest tells backends apart by it
    field = property(lambda self: self.home)

    is_zero = _is_zero
    __bool__ = _nonzero
    __eq__ = _eq
    __hash__ = object.__hash__
    _coerce = _coerce
    __add__ = __radd__ = _add
    __mul__ = __rmul__ = _mul
    __neg__ = _neg
    inv = _inv
    __sub__ = _sub
    __rsub__ = _rsub
    __truediv__ = _truediv
    __rtruediv__ = _rtruediv
    __pow__ = _pow

    def _plus(self, o):
        da, db = self.den, o.den
        return self.home._make(
            [a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    def _times(self, o):
        num = self.home._product(self.num, o.num)
        den = self.den * o.den
        # den > 0, and a zero product comes out as (0, ..., 0) over 1
        g = math.gcd(den, *num)
        if g > 1:
            num = tuple(x // g for x in num)
            den //= g
        return CycScalar(self.home, num, den)

    def _negated(self):
        return CycScalar(self.home, tuple(-c for c in self.num), self.den)

    def _inverted(self):
        """Inverse by the Galois norm, in integers only.

        With a = num/den and sigma_k the automorphism q -> q^k of
        Q[q]/Phi_l(q), the conjugate product P = prod_{k in (Z/l)*, k != 1}
        sigma_k(num) satisfies num * P = N(num), the field norm, a nonzero
        rational integer.  Hence a^-1 = den * P / N(num)."""
        f = self.home
        others = f.units[1:]
        conj = f._galois(self.num, others[0])
        for k in others[1:]:
            conj = f._product(conj, f._galois(self.num, k))
        norm = f._product(self.num, conj)
        if any(norm[1:]):
            raise ArithmeticError(
                f"Galois norm of {self!r} is not a rational constant")
        return f._make([c * self.den for c in conj], norm[0])

    def residue(self, p, t):
        """Image mod p under q -> t, t a root of Phi_l mod p."""
        d = self.den % p
        if not d:
            raise ZeroDivisionError(f"denominator of {self!r} vanishes mod {p}")
        return _peval_mod(self.num, t, p) * pow(d, -1, p) % p

    def __str__(self):
        return ",".join(str(Fraction(c, self.den)) for c in self.num)

    def __repr__(self):
        return f"CycScalar(l={self.home.l}, {str(self)!r})"


class CyclotomicField(_Field):
    """Q[q]/Phi_l(q) with q the class of the variable.  Use
    `cyclotomic_field(l)` so fields are shared singletons."""

    name = "cyclotomic"

    def __init__(self, l):
        self.l = l
        self.phi = cyclotomic_polynomial(l)
        self.deg = len(self.phi) - 1
        if self.deg < 2:
            raise ValueError("cyclotomic backend requires l >= 3")
        self._product = _compile_product(self.deg, _reduction_rows(self.phi))
        _certify_product(self._product, self.phi)
        # the interned scalars by (num, den), and the memoized operations
        super().__init__()
        self.zero = CycScalar(self, (0,) * self.deg, 1)
        one = [0] * self.deg
        one[0] = 1
        self.one = CycScalar(self, tuple(one), 1)
        qv = [0] * self.deg
        qv[1] = 1
        self.q = CycScalar(self, tuple(qv), 1)
        # q^l = 1, so powers of q reduce modulo l
        pw = [self.one]
        for _ in range(1, l):
            pw.append(pw[-1] * self.q)
        self._qpow = pw
        # (Z/l)*: k indexes the Galois automorphism q -> q^k
        self.units = [k for k in range(1, l) if math.gcd(k, l) == 1]

    @cached_property
    def modular(self):
        """The map into F_p for the least prime p > 2^31 with p = 1 (mod l),
        so that F_p holds the l-th roots of unity."""
        p = 2 ** 31 + 1
        while p % self.l != 1 or not _is_prime(p):
            p += 2
        return self.modular_map(p)

    def modular_map(self, p):
        """The map q -> zeta into F_p for a prime p = 1 (mod l), with zeta =
        a^((p-1)/l) for the least a >= 2 that makes Phi_l(zeta) = 0 mod p."""
        if p % self.l != 1:
            raise ValueError(f"F_{p} has no primitive {self.l}-th root")
        for a in range(2, p):
            z = pow(a, (p - 1) // self.l, p)
            if _peval_mod(self.phi, z, p) == 0:
                return ModularMap(p, z)

    def _galois(self, num, k):
        """sigma_k(num) for the automorphism q -> q^k; num is an integer
        coefficient vector, and so is the result."""
        out = [0] * self.deg
        for i, c in enumerate(num):
            if c:
                for j, r in enumerate(self._qpow[(i * k) % self.l].num):
                    if r:
                        out[j] += c * r
        return tuple(out)

    def _make(self, num, den):
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        if den < 0:
            num = [-x for x in num]
            den = -den
        g = math.gcd(den, *num)
        if g > 1:
            num = [x // g for x in num]
            den //= g
        return CycScalar(self, tuple(num), den)

    def from_int(self, k):
        num = [0] * self.deg
        num[0] = k
        return CycScalar(self, tuple(num), 1)

    def q_pow(self, e):
        return self._qpow[e % self.l]

    def parse(self, text):
        parts = [Fraction(p) for p in text.split(",")]
        if len(parts) != self.deg:
            raise ValueError(
                f"expected {self.deg} coefficients, got {len(parts)}")
        lcm = reduce(lambda x, y: x * y.denominator // math.gcd(x, y.denominator),
                     parts, 1)
        return self._make([int(p * lcm) for p in parts], lcm)

    def __repr__(self):
        return f"CyclotomicField(l={self.l})"


@lru_cache(maxsize=None)
def cyclotomic_field(l):
    return CyclotomicField(l)


def memos(x):
    """(products, sums, zero) of x.home, the field of the scalar x: the
    memo tables that `x * y` and `x + y` read under the key (x, y), and the
    field's zero object.  The tables hold only what the operators stored,
    so a caller that misses must go through the operator, which computes,
    stores and checks the operands' fields."""
    if not isinstance(x, (GenericScalar, CycScalar)):
        raise TypeError(f"not a scalar of this package: {x!r}")
    f = x.home
    return f._products, f._sums, f.zero


def specialize(x, field):
    """Push a generic scalar into a cyclotomic field (ring homomorphism
    q -> primitive l-th root).  Raises ZeroDivisionError if the denominator
    specializes to zero."""
    if not isinstance(x, GenericScalar):
        raise TypeError("specialize expects a generic scalar")

    def ev(coeffs, low):
        acc = field.zero
        for i, c in enumerate(coeffs):
            if c:
                acc = acc + field.from_int(c) * field.q_pow(low + i)
        return acc

    num = ev(x.num, x.shift)
    den = ev(x.den, 0)
    return num / den


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BlobParams:
    """Parameter set (n, l, m): tensor length n, order l of the root of unity
    (0 = generic q), and the integer blob parameter m.

    Validity: l = 0 or l odd >= 3, and m not congruent to 0 or 1 mod l
    (these would force lambda1 = lambda2 or lambda1 = q^2*lambda2)."""

    n: int
    l: int
    m: int

    @property
    def backend(self):
        return "generic" if self.l == 0 else "cyclotomic"


def check_params(params):
    """Return an error code for an invalid parameter set, or None."""
    if params.n < 1:
        return "n_not_positive"
    l = params.l
    if l != 0 and (l % 2 == 0 or l < 3):
        return "l_not_odd"
    m = params.m
    r = m % l if l else m
    if r == 0:
        return "lambda1_eq_lambda2"
    if r == 1:
        return "lambda1_eq_q2_lambda2"
    return None


_PARAM_MESSAGES = {
    "n_not_positive": "n must be a positive integer",
    "l_not_odd": "l must be 0 (generic) or odd >= 3; "
                 "l in {1, 2, 4} would force q^4 = 1",
    "lambda1_eq_lambda2": "m = 0 mod l forces lambda1 = lambda2",
    "lambda1_eq_q2_lambda2": "m = 1 mod l forces lambda1 = q^2*lambda2",
}


def validate_params(params):
    """Raise ParameterError (with a distinct code per condition) if invalid."""
    code = check_params(params)
    if code is not None:
        raise ParameterError(code, f"{params!r}: {_PARAM_MESSAGES[code]}")


def residues_equal(a, b, l):
    """Congruence mod l, where l = 0 means equality of integers."""
    return a == b if l == 0 else (a - b) % l == 0


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

class FieldContext:
    """A field together with the elements q, lambda1, lambda2 that drive every
    operator in the package.  Interned like a scalar: `FieldContext(field,
    lam1, lam2)` is the one context the field holds for the pair, so equality
    is identity.  `context(params)` gives lambda1 = q^m/(q - q^-1) and
    lambda2 = q^-m/(q - q^-1); `swapped()` gives the parameter swap
    (lambda1 <-> lambda2) used for contragredient duals; the operator tables
    run in `FieldContext(field, None, None)`."""

    __slots__ = ("field", "q", "lam1", "lam2", "qinv", "q_minus_qinv",
                 "one", "zero")

    def __new__(cls, field, lam1, lam2):
        contexts = field._contexts
        key = (lam1, lam2)
        ctx = contexts.get(key)
        if ctx is None:
            ctx = contexts[key] = object.__new__(cls)
            ctx.field = field
            ctx.lam1 = lam1
            ctx.lam2 = lam2
            ctx.q = field.q
            ctx.qinv = field.q.inv()
            ctx.q_minus_qinv = field.q - ctx.qinv
            ctx.one = field.one
            ctx.zero = field.zero
        return ctx

    def swapped(self):
        return FieldContext(self.field, self.lam2, self.lam1)

    def q_pow(self, e):
        return self.field.q_pow(e)

    def gauss(self, k):
        """Quantum integer [k] = (q^k - q^-k)/(q - q^-1) for this context's q."""
        if k == 0:
            return self.zero
        num = self.q ** k - self.q ** (-k)
        return num / self.q_minus_qinv

    def __repr__(self):
        return f"FieldContext({self.field!r})"


def context(params):
    """The context of a valid parameter set, in the field of its l."""
    validate_params(params)
    field = GENERIC if params.l == 0 else cyclotomic_field(params.l)
    u = (field.q - field.q.inv()).inv()
    return FieldContext(field, field.q_pow(params.m) * u,
                        field.q_pow(-params.m) * u)


# dimension caps for exact-arithmetic sweeps; override with BLOBTENSOR_MAX_N
DEFAULT_MAX_N = {"generic": 12, "cyclotomic": 16}


def effective_max_n(backend):
    override = os.environ.get("BLOBTENSOR_MAX_N")
    if not override:
        return DEFAULT_MAX_N[backend]
    try:
        cap = int(override)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ParameterError(
            "bad_max_n",
            f"BLOBTENSOR_MAX_N={override!r} is not a positive integer")
    return cap


def check_size(n, backend):
    cap = effective_max_n(backend)
    if n > cap:
        raise ParameterError(
            "n_exceeds_cap",
            f"n={n} exceeds the {backend} cap {cap} "
            f"(set BLOBTENSOR_MAX_N to override)")
