"""Exact-arithmetic backends: canonical forms, parameters, serialization."""

import doctest
import sys
from fractions import Fraction
from functools import reduce
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import blobtensor.scalars as scalars_module
from blobtensor.scalars import (GENERIC, BlobParams, GenericScalar,
                                ParameterError, _pcontent, _pgcd, _pmul,
                                check_params, context,
                                cyclotomic_field, cyclotomic_polynomial,
                                effective_max_n, residues_equal, specialize,
                                validate_params)

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


small_cyc = st.sampled_from([3, 5, 7]).flatmap(
    lambda l: st.tuples(
        st.just(l),
        *[st.tuples(st.lists(st.integers(-6, 6),
                             min_size=cyclotomic_field(l).deg,
                             max_size=cyclotomic_field(l).deg),
                    st.integers(1, 12)) for _ in range(2)]))


@given(small_cyc)
@settings(max_examples=80, deadline=None)
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
    for got, expr in ((a, pa), (a * b, pa * pb), (a + b, pa + pb),
                      (a - b, pa - pb)):
        oracle = sympy.rem(sympy.expand(expr), phi, q)
        want = _canonical_from_fractions(_sympy_coeffs(oracle, q, F.deg))
        assert (got.num, got.den) == want, (l, expr)


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
    # negative control: with the cross-cancellation gone from __mul__ (and
    # only there: the operands are still built by make), the products of the
    # test above keep the common factor q - 1 and the test must fail
    real = scalars_module._pgcd

    def no_cross_gcd(a, b):
        if sys._getframe(1).f_code.co_name == "__mul__":
            return (1,)
        return real(a, b)

    check = test_generic_products_with_cross_factors_are_canonical
    check.hypothesis.inner_test(1, [1], [1], -2, [3], [1, 1])
    monkeypatch.setattr(scalars_module, "_pgcd", no_cross_gcd)
    with pytest.raises(AssertionError):
        check.hypothesis.inner_test(1, [1], [1], -2, [3], [1, 1])


def test_cyclotomic_inverse_rejects_wrong_conjugates(monkeypatch):
    # negative control: with sigma_k replaced by the identity the conjugate
    # product is no longer the norm cofactor, and inv must refuse
    from blobtensor.scalars import CycScalar

    F = cyclotomic_field(5)
    monkeypatch.setattr(F, "_galois",
                        lambda num, k: CycScalar(F, tuple(num), 1))
    with pytest.raises(ArithmeticError):
        (F.q + F.from_int(2)).inv()


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
