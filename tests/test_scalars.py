"""Exact-arithmetic backends: canonical forms, parameters, serialization."""

import doctest
import sys
from fractions import Fraction
from functools import reduce
from itertools import islice
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import blobtensor.scalars as scalars_module
from blobtensor.scalars import (GENERIC, BlobParams, CycScalar,
                                FieldContext, GenericScalar, ParameterError,
                                _pcontent, _pgcd, _pmul, check_params,
                                context, cyclotomic_field,
                                cyclotomic_polynomial,
                                effective_max_n, memos, residues_equal,
                                specialize, validate_params)

P_GEN = BlobParams(3, 0, 2)
P5 = BlobParams(3, 5, 2)
C_GEN = context(P_GEN)
C5 = context(P5)


def frac_poly_div(num_low, num, den_low, den):
    """Independent oracle: divide Laurent polynomials over Q by long
    division on Fraction coefficients; fails if inexact.  Returns a dict
    exponent -> Fraction."""
    num = {num_low + i: Fraction(c) for i, c in enumerate(num) if c}
    den = {den_low + i: Fraction(c) for i, c in enumerate(den) if c}
    out = {}
    while num:
        e_n = max(num)
        e_d = max(den)
        coeff = num[e_n] / den[e_d]
        out[e_n - e_d] = coeff
        for e, c in den.items():
            k = e_n - e_d + e
            num[k] = num.get(k, Fraction(0)) - coeff * c
            if not num[k]:
                del num[k]
    return out


def as_expo_dict(x):
    return {x.shift + i: Fraction(c) for i, c in enumerate(x.num) if c}


def test_gauss_integer_trivial_values():
    assert C_GEN.gauss(0).is_zero()
    assert C_GEN.gauss(1) == GENERIC.one


def test_gauss_integer_two_matches_division_oracle():
    # [2] = (q^2 - q^-2)/(q - q^-1) expanded by independent long division
    oracle = frac_poly_div(-2, (-1, 0, 0, 0, 1), -1, (-1, 0, 1))
    assert oracle == {1: Fraction(1), -1: Fraction(1)}
    two = C_GEN.gauss(2)
    assert two.den == (1,)
    assert as_expo_dict(two) == oracle
    assert str(two) == "1*q^-1+1*q^1/1*q^0"


def test_gauss_integer_vanishes_at_root_of_unity():
    assert C5.gauss(5).is_zero()
    c7 = context(BlobParams(3, 7, 2))
    assert c7.gauss(7).is_zero()
    assert not c7.gauss(5).is_zero()


@given(st.integers(-12, 12))
def test_gauss_negation(k):
    assert C_GEN.gauss(k) == -C_GEN.gauss(-k)


@given(st.integers(-10, 10))
@settings(max_examples=40)
def test_gauss_recursion(k):
    # [k+1] = q [k] + q^-k
    ctx = C_GEN
    assert ctx.gauss(k + 1) == ctx.q * ctx.gauss(k) + ctx.q_pow(-k)


def test_lambda_params_difference_is_gauss_m():
    for params in (P_GEN, P5, BlobParams(3, 7, 3), BlobParams(3, 0, -3)):
        ctx = context(params)
        assert ctx.lam1 - ctx.lam2 == ctx.gauss(params.m)


def test_lambda_params_closed_forms():
    ctx = context(BlobParams(2, 0, 2))
    lam1, lam2 = ctx.lam1, ctx.lam2
    q = GENERIC.q
    u = q - q.inv()
    assert lam1 == (q ** 2) / u
    assert lam1 * lam2 == (u * u).inv()
    # frozen golden: q^2/(q-q^-1)^2 in canonical form
    prod = lam1 * lam2
    assert (prod.shift, prod.num, prod.den) == (2, (1,), (1, 0, -2, 0, 1))
    assert lam1 / lam2 == q ** 4


@given(st.integers(-8, 8).filter(lambda m: m not in (0, 1)))
@settings(max_examples=30)
def test_lambda_ratio_is_q_2m(m):
    ctx = context(BlobParams(2, 0, m))
    assert ctx.lam1 / ctx.lam2 == GENERIC.q ** (2 * m)


@pytest.mark.parametrize("l", [0, 5, 7])
def test_contexts_are_interned_by_the_lambda_pair(l):
    # n is no part of a context, and the swap of m is the context of -m
    for m in (2, 3):
        ctx = context(BlobParams(3, l, m))
        assert ctx is context(BlobParams(9, l, m))
        assert ctx.swapped() is context(BlobParams(3, l, -m))
        assert ctx.swapped().swapped() is ctx
        assert (ctx.q, ctx.one, ctx.zero) == \
            (ctx.field.q, ctx.field.one, ctx.field.zero)


def test_congruent_m_give_one_context():
    # lambda1 and lambda2 read m through q^m, and q^5 = 1
    for n in (3, 6):
        assert context(BlobParams(n, 5, -3)) is context(BlobParams(n, 5, 2))


def test_context_equality_is_identity():
    assert "__eq__" not in vars(FieldContext)
    assert "__hash__" not in vars(FieldContext)


def test_validate_params_codes():
    assert check_params(BlobParams(3, 5, 2)) is None
    assert check_params(BlobParams(3, 5, 5)) == "lambda1_eq_lambda2"
    assert check_params(BlobParams(3, 5, 6)) == "lambda1_eq_q2_lambda2"
    assert check_params(BlobParams(3, 4, 2)) == "l_not_odd"
    assert check_params(BlobParams(3, 1, 2)) == "l_not_odd"
    assert check_params(BlobParams(3, 0, 0)) == "lambda1_eq_lambda2"
    assert check_params(BlobParams(3, 0, 1)) == "lambda1_eq_q2_lambda2"
    assert check_params(BlobParams(0, 5, 2)) == "n_not_positive"
    with pytest.raises(ParameterError) as err:
        validate_params(BlobParams(3, 4, 2))
    assert err.value.code == "l_not_odd"
    validate_params(BlobParams(3, 0, -7))


def test_field_axioms_and_inverse():
    q = GENERIC.q
    u = q - q.inv()
    assert u.inv() * u == GENERIC.one
    with pytest.raises(ZeroDivisionError):
        GENERIC.zero.inv()
    F5 = cyclotomic_field(5)
    assert C5.gauss(5).is_zero()
    with pytest.raises(ZeroDivisionError):
        C5.gauss(5).inv()
    assert (F5.q + F5.one).inv() * (F5.q + F5.one) == F5.one


cyc_elements = st.sampled_from([3, 5, 7, 9, 15]).flatmap(
    lambda l: st.tuples(
        st.just(l),
        st.lists(st.integers(-6, 6), min_size=cyclotomic_field(l).deg,
                 max_size=cyclotomic_field(l).deg),
        st.integers(1, 12)))


@given(cyc_elements)
@settings(max_examples=150, deadline=None)
def test_cyclotomic_inverse_matches_sympy(elem):
    # independent oracle: sympy's extended Euclid modulo Phi_l
    import sympy

    l, num, den = elem
    F = cyclotomic_field(l)
    x = F._make(list(num), den)
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            x.inv()
        return
    q = sympy.Symbol("q")
    a = sum(sympy.Rational(c, den) * q ** i for i, c in enumerate(num))
    oracle = sympy.Poly(sympy.invert(a, sympy.cyclotomic_poly(l, q)), q)
    coeffs = [Fraction(int(c.p), int(c.q)) for c in oracle.all_coeffs()[::-1]]
    coeffs += [Fraction(0)] * (F.deg - len(coeffs))
    y = x.inv()
    assert [Fraction(c, y.den) for c in y.num] == coeffs


def _canonical_from_fractions(coeffs):
    """Independent canonical form of a rational coefficient vector: integer
    numerators over the least common positive denominator."""
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return tuple(int(c * den) for c in coeffs), den


def _sympy_coeffs(poly, q, deg):
    coeffs = [Fraction(int(c.p), int(c.q))
              for c in sympy.Poly(poly, q).all_coeffs()[::-1]]
    return coeffs + [Fraction(0)] * (deg - len(coeffs))


def _cyc_operand(deg):
    # small and 70-bit coefficients (z-chain entries grow), and the zero
    # vector over any denominator, whose products cancel to zero
    coeff = st.one_of(st.integers(-6, 6), st.integers(-2 ** 70, 2 ** 70))
    return st.tuples(
        st.one_of(st.lists(coeff, min_size=deg, max_size=deg),
                  st.just([0] * deg)),
        st.one_of(st.integers(1, 12), st.integers(1, 2 ** 70)))


# composite l: Phi_9, Phi_15 and Phi_21 are not 1 + q + ... + q^(l-1)
oracle_cyc = st.sampled_from([3, 5, 7, 9, 15, 21]).flatmap(
    lambda l: st.tuples(st.just(l),
                        *[_cyc_operand(cyclotomic_field(l).deg)] * 2))


def _assert_cyc_canonical(x):
    assert len(x.num) == x.field.deg
    assert x.den > 0
    assert gcd(reduce(gcd, x.num, 0), x.den) == 1


@given(oracle_cyc)
@settings(max_examples=120, deadline=None)
def test_cyclotomic_canonical_forms_match_sympy(elems):
    # products and sums against sympy's remainder modulo Phi_l; the
    # canonical (num, den) pair is fixed by the value, so compare it exactly
    l, (num_a, den_a), (num_b, den_b) = elems
    F = cyclotomic_field(l)
    q = sympy.Symbol("q")
    phi = sympy.cyclotomic_poly(l, q)

    def poly(num, den):
        return sum(sympy.Rational(c, den) * q ** i for i, c in enumerate(num))

    a, b = F._make(list(num_a), den_a), F._make(list(num_b), den_b)
    pa, pb = poly(num_a, den_a), poly(num_b, den_b)
    for got, expr in ((a, pa), (a * b, pa * pb), (b * a, pa * pb),
                      (a + b, pa + pb), (a - b, pa - pb)):
        oracle = sympy.rem(sympy.expand(expr), phi, q)
        want = _canonical_from_fractions(_sympy_coeffs(oracle, q, F.deg))
        assert (got.num, got.den) == want, (l, expr)
        _assert_cyc_canonical(got)
    # a product that cancels to zero is the canonical zero
    for got in (a * b - b * a, a * b + a * (-b), a * F.zero):
        assert (got.num, got.den) == ((0,) * F.deg, 1), l
        _assert_cyc_canonical(got)


def _generic_canonical(expr, q):
    """(shift, num, den) of a rational function in q, derived from
    sympy.cancel: coprime numerator and denominator with the powers of q
    pulled out, integer primitive parts, coprime contents and a positive
    leading denominator coefficient."""
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    if num == 0:
        return None
    shift = 0
    sides = []
    for sign, part in ((1, num), (-1, den)):
        coeffs = _sympy_coeffs(part, q, 0)
        low = next(i for i, c in enumerate(coeffs) if c)
        shift += sign * low
        sides.append(coeffs[low:])
    nums, dens = sides
    cn, cd = _content(nums), _content(dens)
    if dens[-1] < 0:
        cd = -cd
    ratio = cn / cd
    return (shift,
            tuple(int(c / cn * ratio.numerator) for c in nums),
            tuple(int(c / cd * ratio.denominator) for c in dens))


def _content(coeffs):
    """The positive rational c with coeffs / c integral and primitive."""
    ints, den = _canonical_from_fractions(coeffs)
    return Fraction(reduce(gcd, ints, 0), den)


generic_elems = st.tuples(
    st.integers(-3, 3),
    st.lists(st.integers(-4, 4), min_size=1, max_size=4).filter(any),
    st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any))


@given(generic_elems, generic_elems)
@settings(max_examples=60, deadline=None)
def test_generic_canonical_forms_match_sympy(elem_a, elem_b):
    q = sympy.Symbol("q")

    def expr(shift, num, den):
        return q ** shift * sum(c * q ** i for i, c in enumerate(num)) / \
            sum(c * q ** i for i, c in enumerate(den))

    a, b = GenericScalar.make(*elem_a), GenericScalar.make(*elem_b)
    ea, eb = expr(*elem_a), expr(*elem_b)
    for got, oracle in ((a, ea), (a * b, ea * eb), (a + b, ea + eb),
                        (a - b, ea - eb)):
        want = _generic_canonical(oracle, q)
        if want is None:
            assert got.is_zero()
        else:
            assert (got.shift, got.num, got.den) == want, oracle


def _assert_canonical(x):
    """The invariants of a nonzero canonical GenericScalar."""
    assert x.num[0] != 0 and x.den[0] != 0
    assert x.den[-1] > 0
    assert _pgcd(x.num, x.den) == (1,)
    assert gcd(_pcontent(x.num), _pcontent(x.den)) == 1


small_polys = st.lists(st.integers(-3, 3), min_size=1, max_size=3).filter(any)


@given(st.integers(-2, 2), small_polys, small_polys,
       st.integers(-2, 2), small_polys, small_polys)
@settings(max_examples=60, deadline=None)
def test_generic_products_with_cross_factors_are_canonical(
        sa, x, y, sb, z, w):
    # a = 2 (q - 1) x / y and b = z / (2 (q - 1) w): the numerator of each
    # operand shares the factor 2 (q - 1) with the other's denominator, so
    # the product needs the cross gcds and the content step
    q = sympy.Symbol("q")

    def poly(cs):
        return sum(c * q ** i for i, c in enumerate(cs))

    two_qm1 = (-2, 2)
    a = GenericScalar.make(sa, _pmul(two_qm1, tuple(x)), tuple(y))
    b = GenericScalar.make(sb, tuple(z), _pmul(two_qm1, tuple(w)))
    oracle = (q ** sa * 2 * (q - 1) * poly(x) / poly(y)
              * q ** sb * poly(z) / (2 * (q - 1) * poly(w)))
    got = a * b
    assert (got.shift, got.num, got.den) == _generic_canonical(oracle, q)
    _assert_canonical(got)


def test_cross_factor_products_need_the_cross_gcds(monkeypatch):
    # negative control: with the cross-cancellation gone from _times, which
    # computes a product on a memo miss (and only there: the operands are
    # still built by make), the products of the test above keep the common
    # factor q - 1 and the test must fail.  The memos start empty so that
    # the product is computed, and the mutant's values go to a copy of the
    # intern table that is dropped afterwards.
    real = scalars_module._pgcd

    def no_cross_gcd(a, b):
        if sys._getframe(1).f_code.co_name == "_times":
            return (1,)
        return real(a, b)

    check = test_generic_products_with_cross_factors_are_canonical
    check.hypothesis.inner_test(1, [1], [1], -2, [3], [1, 1])
    monkeypatch.setattr(GENERIC, "_values", dict(GENERIC._values))
    for memo in ("_products", "_sums", "_negatives", "_inverses"):
        monkeypatch.setattr(GENERIC, memo, {})
    monkeypatch.setattr(scalars_module, "_pgcd", no_cross_gcd)
    with pytest.raises(AssertionError):
        check.hypothesis.inner_test(1, [1], [1], -2, [3], [1, 1])


def test_cyclotomic_inverse_rejects_wrong_conjugates(monkeypatch):
    # negative control: with sigma_k replaced by the identity the conjugate
    # product is no longer the norm cofactor, and inv must refuse; a fresh
    # field has no memoized inverse to answer from
    from blobtensor.scalars import CyclotomicField

    F = CyclotomicField(5)
    monkeypatch.setattr(F, "_galois", lambda num, k: tuple(num))
    with pytest.raises(ArithmeticError):
        (F.q + F.from_int(2)).inv()


def _assert_interned(field, entries):
    """Each (key, value) entry of the field's intern table sits under its
    own canonical form, and every memo answer is an interned value."""
    for key, x in entries:
        if field is GENERIC:
            assert key == (x.shift, x.num, x.den)
            if x.num:
                _assert_canonical(x)
            else:
                assert key == (0, (), (1,))
        else:
            assert key == (x.num, x.den) and x.field is field
            _assert_cyc_canonical(x)


def _assert_memos_interned(field):
    values = field._values
    for memo in (field._products, field._sums, field._negatives,
                 field._inverses):
        for x in memo.values():
            key = ((x.shift,) if field is GENERIC else ()) + (x.num, x.den)
            assert values[key] is x


def _interning_operand(field, data):
    """A scalar of `field` and a second, non-canonical spelling of it:
    (shift, num, den) for make, or (num, den) for _make."""
    k = data.draw(st.integers(-3, 3).filter(bool))
    if field is GENERIC:
        shift, num, den = data.draw(generic_elems)
        x = GenericScalar.make(shift, tuple(num), tuple(den))
        return x, (shift - 1, (0,) + tuple(k * c for c in num),
                   tuple(k * c for c in den))
    num = data.draw(st.lists(st.integers(-6, 6), min_size=field.deg,
                             max_size=field.deg))
    den = data.draw(st.integers(1, 12))
    return field._make(list(num), den), ([k * c for c in num], k * den)


interning_fields = st.sampled_from([0, 5, 7]).map(
    lambda l: GENERIC if l == 0 else cyclotomic_field(l))


@given(interning_fields, st.data())
@settings(max_examples=120, deadline=None)
def test_equal_values_are_one_object(field, data):
    # hash-consing: whatever route reaches a value returns the one object
    # the field's table holds for it, so equality can be identity
    start = len(field._values)
    make = GenericScalar.make if field is GENERIC else field._make
    a, spelling = _interning_operand(field, data)
    b, _ = _interning_operand(field, data)
    assert make(*spelling) is a
    assert field.parse(field.serialize(a)) is a
    assert a * b is b * a
    assert (a + b) - b is a
    assert -(-a) is a and a - a is field.zero
    results = [a * b, a + b, a - b, -a, a * 3, 2 + a]
    if a:
        results += [a.inv(), b / a]
        assert a.inv().inv() is a and a * a.inv() is field.one
    for x in results:
        assert field.parse(field.serialize(x)) is x
    _assert_interned(field, islice(field._values.items(), start, None))


def test_every_interned_value_is_canonical():
    # the tables as the session has filled them, plus a fresh field's
    from blobtensor.scalars import CyclotomicField

    fresh = CyclotomicField(7)
    (fresh.q + fresh.from_int(3)).inv() * fresh.q ** 4
    for field in (GENERIC, cyclotomic_field(5), cyclotomic_field(7), fresh):
        _assert_interned(field, field._values.items())
        _assert_memos_interned(field)


@pytest.mark.parametrize("l", [3, 5, 9, 15])
def test_product_kernel_from_a_perturbed_row_is_rejected(l, monkeypatch):
    # negative control for the construction-time certificate: a kernel
    # compiled from reduction rows with one entry off by one must not
    # produce a field, whichever row and entry is perturbed
    from blobtensor.scalars import CyclotomicField

    real = scalars_module._reduction_rows
    rows = real(cyclotomic_polynomial(l))
    CyclotomicField(l)      # the unperturbed rows pass
    for r, row in enumerate(rows):
        for j in range(len(row)):
            bad = list(rows)
            bad[r] = row[:j] + (row[j] + 1,) + row[j + 1:]
            monkeypatch.setattr(scalars_module, "_reduction_rows",
                                lambda phi, bad=bad: bad)
            with pytest.raises(ArithmeticError, match="product kernel"):
                CyclotomicField(l)


@pytest.mark.parametrize("l", [1, 2])
def test_degree_below_two_fails_before_any_kernel(l, monkeypatch):
    from blobtensor.scalars import CyclotomicField

    def never(*args):
        raise AssertionError("a kernel was built for a degree-1 field")

    monkeypatch.setattr(scalars_module, "_compile_product", never)
    with pytest.raises(ValueError, match="l >= 3"):
        CyclotomicField(l)


def test_cross_backend_equality_is_type_error():
    F5 = cyclotomic_field(5)
    with pytest.raises(TypeError):
        GENERIC.q == F5.q
    with pytest.raises(TypeError):
        F5.q == GENERIC.q
    F7 = cyclotomic_field(7)
    with pytest.raises(TypeError):
        F5.q == F7.q
    with pytest.raises(TypeError):
        GENERIC.q + F5.q


PROTOCOL = ("__eq__", "_coerce", "__add__", "__radd__", "__mul__",
            "__rmul__", "__neg__", "inv", "is_zero", "__bool__")


@pytest.mark.parametrize("name", PROTOCOL)
def test_both_backends_bind_one_operator(name):
    # the interning and memo protocol is stated once: each scalar class
    # binds the same function under its own name
    assert vars(GenericScalar)[name] is vars(CycScalar)[name]


@pytest.mark.parametrize("l", [0, 5, 7])
def test_memos_read_the_home_field(l):
    field = GENERIC if l == 0 else cyclotomic_field(l)
    for x in (field.zero, field.one, field.q, field.q + field.from_int(3)):
        assert x.home is field
        products, sums, zero = memos(x)
        assert products is field._products and sums is field._sums
        assert zero is field.zero


@pytest.mark.parametrize("x", [3, Fraction(1, 2)])
def test_memos_of_a_non_scalar_is_type_error(x):
    with pytest.raises(TypeError):
        memos(x)


def test_serialize_refuses_another_fields_scalar():
    F5, F7 = cyclotomic_field(5), cyclotomic_field(7)
    for field, x in ((GENERIC, F5.q), (F5, GENERIC.q), (F5, F7.q)):
        with pytest.raises(TypeError):
            field.serialize(x)


def test_canonical_idempotence():
    # re-normalizing a canonical value changes nothing
    lam1 = C_GEN.lam1
    again = GenericScalar.make(lam1.shift, lam1.num, lam1.den)
    assert (again.shift, again.num, again.den) == \
        (lam1.shift, lam1.num, lam1.den)
    # non-canonical input normalizes: q * 2q / (2q^2 - 2) = q^2/(q^2 - 1)
    messy = GenericScalar.make(1, (0, 2), (-2, 0, 2))
    direct = GENERIC.q ** 2 / (GENERIC.q ** 2 - GENERIC.one)
    assert (messy.shift, messy.num, messy.den) == \
        (direct.shift, direct.num, direct.den)


def test_denominator_normalization():
    # leading denominator coefficient is positive after reduction
    x = GENERIC.one / (GENERIC.one - GENERIC.q)
    assert x.den[-1] > 0
    assert x == -(GENERIC.one / (GENERIC.q - GENERIC.one))


def test_serialization_round_trip_generic():
    values = [GENERIC.zero, GENERIC.one, GENERIC.q ** -3,
              C_GEN.lam1,
              (GENERIC.q ** 2 - GENERIC.from_int(7)) /
              (GENERIC.q ** 5 + GENERIC.q.inv() * GENERIC.from_int(3))]
    for v in values:
        s = GENERIC.serialize(v)
        assert GENERIC.parse(s) == v
        assert GENERIC.serialize(GENERIC.parse(s)) == s


def test_serialization_round_trip_cyclotomic():
    F5 = cyclotomic_field(5)
    values = [F5.zero, F5.one, F5.q_pow(3),
              (F5.q + F5.one) / F5.from_int(6),
              (F5.q - F5.from_int(2)).inv()]
    for v in values:
        s = F5.serialize(v)
        assert F5.parse(s) == v
        assert F5.serialize(F5.parse(s)) == s
    assert len(str(F5.zero).split(",")) == F5.deg


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(5) == (1, 1, 1, 1, 1)
    assert cyclotomic_polynomial(7) == (1,) * 7
    assert cyclotomic_polynomial(9) == (1, 0, 0, 1, 0, 0, 1)
    assert cyclotomic_polynomial(15) == (1, -1, 0, 1, -1, 1, 0, -1, 1)


def test_q_is_primitive_root():
    for l in (3, 5, 7, 9):
        F = cyclotomic_field(l)
        assert F.q ** l == F.one
        for k in range(1, l):
            assert not (F.q ** k == F.one)


scalar_exprs = st.recursive(
    st.one_of(st.integers(-4, 4).map(lambda k: ("int", k)),
              st.just(("q",)), st.just(("qinv",))),
    lambda children: st.one_of(
        st.tuples(st.just("add"), children, children),
        st.tuples(st.just("mul"), children, children),
        st.tuples(st.just("neg"), children)),
    max_leaves=12)


def eval_expr(expr, field):
    tag = expr[0]
    if tag == "int":
        return field.from_int(expr[1])
    if tag == "q":
        return field.q
    if tag == "qinv":
        return field.q.inv()
    if tag == "add":
        return eval_expr(expr[1], field) + eval_expr(expr[2], field)
    if tag == "mul":
        return eval_expr(expr[1], field) * eval_expr(expr[2], field)
    return -eval_expr(expr[1], field)


@given(scalar_exprs)
@settings(max_examples=150)
def test_specialization_is_ring_homomorphism(expr):
    # evaluate in the generic field then specialize = evaluate cyclotomically
    F5 = cyclotomic_field(5)
    generic_value = eval_expr(expr, GENERIC)
    assert specialize(generic_value, F5) == eval_expr(expr, F5)


@given(scalar_exprs, scalar_exprs)
@settings(max_examples=60)
def test_generic_field_axioms_random(e1, e2):
    a = eval_expr(e1, GENERIC)
    b = eval_expr(e2, GENERIC)
    assert a + b == b + a
    assert a * b == b * a
    assert a - a == GENERIC.zero
    if not b.is_zero():
        assert (a / b) * b == a


polys = st.lists(st.integers(-5, 5), min_size=1, max_size=5).filter(
    lambda c: any(c))


@given(polys, polys, polys)
@settings(max_examples=120)
def test_common_factors_fully_cancel(a, b, g):
    # make(a*g / b*g) must equal make(a / b): the canonical form is unique
    ag = _pmul(tuple(a), tuple(g))
    bg = _pmul(tuple(b), tuple(g))
    assert GenericScalar.make(0, ag, bg) == \
        GenericScalar.make(0, tuple(a), tuple(b))


@given(polys, polys)
@settings(max_examples=60)
def test_canonical_form_coprimality(a, b):
    x = GenericScalar.make(0, tuple(a), tuple(b))
    if not x.is_zero():
        _assert_canonical(x)


def test_residues_equal():
    assert residues_equal(7, 2, 5)
    assert not residues_equal(7, 3, 5)
    assert residues_equal(4, 4, 0)
    assert not residues_equal(4, -4, 0)
    assert residues_equal(-2, 3, 5)


def test_max_n_env_override(monkeypatch):
    assert effective_max_n("generic") == 12
    assert effective_max_n("cyclotomic") == 16
    monkeypatch.setenv("BLOBTENSOR_MAX_N", "4")
    assert effective_max_n("generic") == 4


def test_doctests():
    results = doctest.testmod(scalars_module)
    assert results.failed == 0
