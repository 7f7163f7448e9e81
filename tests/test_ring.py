"""Tests for polynomial rings, monomial orders, arithmetic, and parsing."""

import random
import sys
from fractions import Fraction
from math import gcd, lcm
from operator import add, le

import pytest
from hypothesis import given, settings, strategies as st

from algstat import (
    GREVLEX,
    LEX,
    MonomialOrder,
    ParseError,
    Polynomial,
    PolyRing,
    map_to_ring,
    parse_polynomial,
    print_polynomial,
)
from algstat.groebner import _packing
from algstat.ring import MAX_EXPONENT


def _random_poly(ring, rng, nterms=4, maxdeg=3):
    p = ring.zero()
    for _ in range(nterms):
        m = ring.one()
        for v in ring.gens():
            m = m * v ** rng.randint(0, maxdeg)
        p = p + m * Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return p


# ---------------------------------------------------------------- orders


def test_grevlex_three_variable_chain():
    # x^2 > xy > y^2 > xz > yz > z^2 among the quadratic monomials
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert GREVLEX.compare(a, b) > 0
        assert GREVLEX.compare(b, a) < 0
    assert GREVLEX.compare((1, 1, 0), (1, 1, 0)) == 0


def test_grevlex_is_degree_first():
    assert GREVLEX.compare((0, 0, 3), (2, 0, 0)) > 0


def test_lex_chain():
    assert LEX.compare((1, 0, 0), (0, 9, 9)) > 0
    assert LEX.compare((1, 2, 0), (1, 1, 9)) > 0
    assert LEX.compare((0, 1, 0), (0, 0, 5)) > 0


def test_block_order_head_dominates():
    order = MonomialOrder.block(1)
    # any positive power in the head block beats anything in the tail
    assert order.compare((1, 0, 0), (0, 9, 9)) > 0
    assert order.compare((2, 0, 0), (1, 9, 9)) > 0
    # within equal head, the tail is compared grevlex
    assert order.compare((1, 2, 0), (1, 0, 1)) > 0


def test_block_order_requires_positive_k():
    with pytest.raises(ValueError):
        MonomialOrder.block(0)


def _textbook_grevlex(a, b):
    """Higher degree wins; on a tie, the rightmost nonzero entry of a - b
    being negative means a wins."""
    if sum(a) != sum(b):
        return 1 if sum(a) > sum(b) else -1
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return 1 if x - y < 0 else -1
    return 0


def _textbook_compare(order, a, b):
    if order.kind == "lex":
        for x, y in zip(a, b):
            if x != y:
                return 1 if x > y else -1
        return 0
    if order.kind == "grevlex":
        return _textbook_grevlex(a, b)
    # block(k): grevlex on the first k exponents, ties broken by grevlex on the rest
    k = order.block_size
    return _textbook_grevlex(a[:k], b[:k]) or _textbook_grevlex(a[k:], b[k:])


def test_sort_key_agrees_with_compare():
    rng = random.Random(29)
    orders = [LEX, GREVLEX, MonomialOrder.block(1), MonomialOrder.block(2)]
    for _ in range(200):
        a = tuple(rng.randint(0, 5) for _ in range(4))
        b = tuple(rng.randint(0, 5) for _ in range(4))
        for order in orders:
            c = _textbook_compare(order, a, b)
            assert order.compare(a, b) == c
            ka, kb = order.sort_key(a), order.sort_key(b)
            assert (ka > kb) == (c > 0)
            assert (ka == kb) == (c == 0)


_ORDERS = [LEX, GREVLEX, MonomialOrder.block(1), MonomialOrder.block(2)]
_EXPONENTS = st.tuples(
    *[st.one_of(st.integers(0, 6), st.integers(MAX_EXPONENT - 2, MAX_EXPONENT))] * 4
)


@pytest.mark.parametrize("order", _ORDERS, ids=lambda o: o.name)
@settings(derandomize=True, deadline=None, max_examples=200)
@given(a=_EXPONENTS, b=_EXPONENTS)
def test_flat_sort_key_is_additive_and_orders_like_compare(order, a, b):
    ka, kb = order.sort_key(a), order.sort_key(b)
    assert all(type(x) is int for x in ka)
    assert order.sort_key(tuple(map(add, a, b))) == tuple(map(add, ka, kb))
    c = _textbook_compare(order, a, b)
    assert (ka > kb) - (ka < kb) == c == order.compare(a, b)
    # the kernel's packed ints: exponents round-trip and add without carry
    # (a + b fills a field up to 2**64 - 2), key ints add and order like
    # sort keys, also past MAX_EXPONENT, and a guard-free difference means
    # divisibility
    pack = _packing(order, 4)
    pa, pb, s = pack.exps(a), pack.exps(b), tuple(map(add, a, b))
    assert pack.unpack(pa) == a
    assert pack.exps(s) == pa + pb and pack.unpack(pa + pb) == s
    assert pack.key(s) == pack.key(a) + pack.key(b)
    assert (pack.key(a) > pack.key(b)) - (pack.key(a) < pack.key(b)) == c
    t = tuple(map(add, b, b))
    ks, kt = order.sort_key(s), order.sort_key(t)
    assert (pack.key(s) > pack.key(t)) == (ks > kt)
    assert (pack.key(s) == pack.key(t)) == (ks == kt)
    assert (not (pb - pa) & pack.guard) == all(map(le, a, b))
    assert (not (pa - pb) & pack.guard) == all(map(le, b, a))
    # the packed lcm is the entrywise max, and the product exactly when
    # the supports are disjoint
    assert pack.unpack(pack.lcm(pa, pb)) == tuple(map(max, a, b))
    assert (pack.lcm(pa, pb) == pa + pb) == (not any(map(min, a, b)))
    # a packed support has the guard bit of each variable that occurs
    support = sum(1 << (64 * i + 63) for i, e in enumerate(a) if e)
    assert (pa + pack.ones) & pack.guard == support


def test_compare_rejects_unequal_lengths():
    with pytest.raises(ValueError):
        GREVLEX.compare((1, 0), (1, 0, 0))


def test_orders_respect_multiplication():
    rng = random.Random(31)
    orders = [LEX, GREVLEX, MonomialOrder.block(2)]
    for _ in range(100):
        a = tuple(rng.randint(0, 4) for _ in range(4))
        b = tuple(rng.randint(0, 4) for _ in range(4))
        c = tuple(rng.randint(0, 4) for _ in range(4))
        ac = tuple(x + y for x, y in zip(a, c))
        bc = tuple(x + y for x, y in zip(b, c))
        for order in orders:
            assert order.compare(ac, bc) == order.compare(a, b)


def test_order_equality():
    assert GREVLEX == MonomialOrder("grevlex")
    assert MonomialOrder.block(2) == MonomialOrder.block(2)
    assert MonomialOrder.block(1) != MonomialOrder.block(2)
    assert LEX != GREVLEX


# ---------------------------------------------------------------- rings


def test_ring_construction_and_gens():
    r = PolyRing(("x", "y", "z"), GREVLEX)
    assert r.nvars == 3
    assert r.variables == ("x", "y", "z")
    assert r.var_index("y") == 1
    x, y, z = r.gens()
    assert x == r.gen(0)
    assert print_polynomial(x * y * z) == "x*y*z"


def test_ring_rejects_bad_variables():
    with pytest.raises(ValueError):
        PolyRing((), GREVLEX)
    with pytest.raises(ValueError):
        PolyRing(("x", "x"), GREVLEX)
    with pytest.raises(ValueError):
        PolyRing(("2x",), GREVLEX)
    with pytest.raises(ValueError):
        PolyRing(("a b",), GREVLEX)


def test_ring_value_semantics():
    a = PolyRing(("x", "y"), GREVLEX)
    b = PolyRing(("x", "y"), GREVLEX)
    assert a == b
    assert hash(a) == hash(b)
    assert a != PolyRing(("x", "y"), LEX)
    assert a != PolyRing(("x", "z"), GREVLEX)


def test_sum_of_gens():
    r = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    assert print_polynomial(r.sum_of_gens()) == "p_0 + p_1 + p_2"


def test_constants():
    r = PolyRing(("x",), GREVLEX)
    assert r.zero().is_zero()
    assert r.one().is_constant()
    assert r.constant(Fraction(3, 2)).constant_coefficient() == Fraction(3, 2)
    assert r.constant(0) == r.zero()


def test_constants_hash_like_the_numbers_they_equal():
    r = PolyRing(("x", "y"), GREVLEX)
    for poly, number in [
        (r.one(), 1), (r.zero(), 0), (r.constant(Fraction(3, 2)), Fraction(3, 2)),
    ]:
        assert poly == number
        assert hash(poly) == hash(number)
        assert len({poly, number}) == 1


# ------------------------------------------------------------ arithmetic


def test_arithmetic_identities():
    rng = random.Random(37)
    r = PolyRing(("x", "y", "z"), GREVLEX)
    for _ in range(20):
        f = _random_poly(r, rng)
        g = _random_poly(r, rng)
        h = _random_poly(r, rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f - f == r.zero()
        assert f + r.zero() == f
        assert f * r.one() == f
        assert f * r.zero() == r.zero()
        assert -(-f) == f


def test_scalar_coercion():
    r = PolyRing(("x",), GREVLEX)
    x = r.gen(0)
    assert 2 * x == x + x
    assert x * Fraction(1, 2) + x * Fraction(1, 2) == x
    assert (x + 1) - 1 == x
    assert 3 - x == -(x - 3)


def test_pow():
    r = PolyRing(("x", "y"), GREVLEX)
    x, y = r.gens()
    assert (x + y) ** 2 == x ** 2 + 2 * x * y + y ** 2
    assert (x + y) ** 0 == r.one()
    with pytest.raises(ValueError):
        (x + y) ** -1


def test_like_terms_cancel():
    r = PolyRing(("x", "y"), GREVLEX)
    x, y = r.gens()
    assert (x + y) * (x - y) == x ** 2 - y ** 2


def test_cross_ring_arithmetic_rejected():
    a = PolyRing(("x",), GREVLEX)
    b = PolyRing(("y",), GREVLEX)
    with pytest.raises(ValueError):
        a.gen(0) + b.gen(0)


def test_leading_data():
    r = PolyRing(("x", "y", "z"), GREVLEX)
    f = parse_polynomial("2*x*y + z^3 - x", r)
    assert f.leading_monomial() == (0, 0, 3)
    assert f.leading_coefficient() == 1
    assert print_polynomial(f.leading_term()) == "z^3"
    assert f.total_degree() == 3
    with pytest.raises(ValueError):
        r.zero().leading_monomial()


def test_terms_are_sorted_descending():
    r = PolyRing(("x", "y"), GREVLEX)
    f = parse_polynomial("x + y^2 + 1 + x*y", r)
    monos = [m for m, _ in f.terms]
    for a, b in zip(monos, monos[1:]):
        assert GREVLEX.compare(a, b) > 0


def test_homogeneity():
    r = PolyRing(("x", "y"), GREVLEX)
    assert parse_polynomial("x^2 - 3*x*y", r).is_homogeneous()
    assert not parse_polynomial("x^2 - y", r).is_homogeneous()
    assert r.zero().is_homogeneous()
    assert r.one().is_homogeneous()


def test_monic_and_primitive_part():
    r = PolyRing(("x", "y"), GREVLEX)
    f = parse_polynomial("4*x^2 - 6*y", r)
    assert print_polynomial(f.monic()) == "x^2 - 3/2*y"
    assert print_polynomial(f.primitive_part()) == "2*x^2 - 3*y"
    g = parse_polynomial("-x + y", r)
    assert print_polynomial(g.primitive_part()) == "x - y"


def _primitive_part_by_fractions(f):
    """primitive_part computed in Fractions: int(c * L) for L the lcm of the denominators."""
    if not f.terms:
        return f
    scale = lcm(*(c.denominator for _, c in f.terms))
    nums = [int(c * scale) for _, c in f.terms]
    g = gcd(*nums) * (-1 if nums[0] < 0 else 1)
    return f.ring.poly([(m, v // g) for (m, _), v in zip(f.terms, nums)])


def test_primitive_part_matches_fraction_scaling():
    rng = random.Random(53)
    r = PolyRing(("x", "y", "z"), GREVLEX)
    signs = {True: 0, False: 0}
    big_content = 0
    for _ in range(200):
        f = _random_poly(r, rng, nterms=rng.randint(1, 5))
        # scale by a random rational so contents above 1 and large
        # denominators both occur
        f = f * Fraction(rng.choice([-1, 1]) * rng.randint(1, 10**6), rng.randint(1, 10**6))
        g = f.primitive_part()
        assert g == _primitive_part_by_fractions(f)
        if f.terms:
            signs[f.terms[0][1] < 0] += 1
            big_content += gcd(*(c.numerator for _, c in f.terms)) > 1
            assert g.terms[0][1] > 0 and all(c.denominator == 1 for _, c in g.terms)
    assert signs[True] >= 50 and signs[False] >= 50 and big_content >= 50, (signs, big_content)
    assert r.zero().primitive_part() == r.zero()


def test_differentiate():
    r = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    f = parse_polynomial("4*p_0*p_2 - p_1^2", r)
    assert print_polynomial(f.differentiate(1)) == "-2*p_1"
    assert print_polynomial(f.differentiate("p_0")) == "4*p_2"
    assert r.constant(7).differentiate(0).is_zero()


def test_differentiate_product_rule():
    rng = random.Random(41)
    r = PolyRing(("x", "y"), GREVLEX)
    for _ in range(15):
        f = _random_poly(r, rng, nterms=3)
        g = _random_poly(r, rng, nterms=3)
        for v in range(2):
            lhs = (f * g).differentiate(v)
            rhs = f.differentiate(v) * g + f * g.differentiate(v)
            assert lhs == rhs


def test_substitute_with_polynomials():
    r = PolyRing(("x", "y"), GREVLEX)
    x, y = r.gens()
    f = x ** 2 + y
    assert f.substitute({"x": y}) == y ** 2 + y
    assert f.substitute({"x": x + 1}) == x ** 2 + 2 * x + 1 + y


def test_substitute_all_scalars_restricts_ring():
    r = PolyRing(("p_0", "p_1", "u_0", "u_1"), GREVLEX)
    f = parse_polynomial("p_1*u_0 - p_0*u_1", r)
    g = f.substitute({"u_0": 2, "u_1": 3})
    assert g.ring == PolyRing(("p_0", "p_1"), GREVLEX)
    assert print_polynomial(g) == "-3*p_0 + 2*p_1"


def test_substitute_everything_gives_constant():
    r = PolyRing(("x", "y"), GREVLEX)
    f = parse_polynomial("x^2 + y", r)
    g = f.substitute({"x": Fraction(1, 2), "y": 3})
    assert g.is_constant()
    assert g.constant_coefficient() == Fraction(13, 4)


def test_substitute_unknown_variable_rejected():
    r = PolyRing(("x",), GREVLEX)
    with pytest.raises(ValueError):
        r.gen(0).substitute({"q": 1})


def test_map_to_ring_extension():
    small = PolyRing(("x", "y"), GREVLEX)
    big = PolyRing(("x", "y", "z"), GREVLEX)
    f = parse_polynomial("x^2 - y", small)
    g = map_to_ring(f, big)
    assert g.ring is big
    assert print_polynomial(g) == "x^2 - y"


def test_map_to_ring_rename():
    a = PolyRing(("x", "y"), GREVLEX)
    b = PolyRing(("u", "v"), GREVLEX)
    f = parse_polynomial("x^2 - y", a)
    g = map_to_ring(f, b, rename={"x": "u", "y": "v"})
    assert print_polynomial(g) == "u^2 - v"


def test_map_to_ring_missing_variable():
    a = PolyRing(("x", "y"), GREVLEX)
    b = PolyRing(("x",), GREVLEX)
    f = parse_polynomial("x*y", a)
    with pytest.raises(ValueError):
        map_to_ring(f, b)
    # a variable absent from the target is fine if it never occurs
    g = parse_polynomial("x^2", a)
    assert print_polynomial(map_to_ring(g, b)) == "x^2"


# ---------------------------------------------------------------- parsing


def test_parse_basic():
    r = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    f = parse_polynomial("4*p_0*p_2 - p_1^2", r)
    # printing orders terms descending: grevlex puts p_1^2 first
    assert print_polynomial(f) == "-p_1^2 + 4*p_0*p_2"
    assert print_polynomial(-f) == "p_1^2 - 4*p_0*p_2"


def test_parse_underscore_optional():
    r = PolyRing(("p_0", "p_1"), GREVLEX)
    assert parse_polynomial("p0 - p1", r) == parse_polynomial("p_0 - p_1", r)
    # and the other way: p_0 names a ring variable p0
    bare = PolyRing(("p0", "p1"), GREVLEX)
    assert parse_polynomial("p_0 - p_1", bare) == bare.gen("p0") - bare.gen("p1")
    assert print_polynomial(parse_polynomial("p_0*p1", bare)) == "p0*p1"


def test_polynomial_constructor_canonicalizes_its_terms():
    # the public constructor sorts, merges and drops zero terms, as ring.poly does
    r = PolyRing(("x", "y"), GREVLEX)
    terms = [((0, 1), 2), ((1, 0), Fraction(1, 2)), ((0, 1), -2), ((2, 0), 3), ((0, 0), 0)]
    f = Polynomial(r, terms)
    assert f.ring == r and f == r.poly(terms)
    assert f.terms == (((2, 0), Fraction(3)), ((1, 0), Fraction(1, 2)))
    assert Polynomial(r, {(1, 1): 1}) == r.gen("x") * r.gen("y")
    assert Polynomial(r, []).is_zero()
    with pytest.raises(ValueError):
        Polynomial(r, [((1,), 1)])


def test_parse_rational_coefficients():
    r = PolyRing(("x",), GREVLEX)
    f = parse_polynomial("1/2*x + 3", r)
    assert f == r.gen(0) * Fraction(1, 2) + 3


def test_parse_parentheses_and_unary_minus():
    r = PolyRing(("x", "y"), GREVLEX)
    x, y = r.gens()
    f = parse_polynomial("-(x - y)*(x - y) + x^2", r)
    assert f == 2 * x * y - y ** 2
    assert parse_polynomial("2*(x + y) - y", r) == 2 * x + y


def test_parse_power_binds_tighter_than_product():
    r = PolyRing(("x", "y"), GREVLEX)
    x, y = r.gens()
    assert parse_polynomial("2*x*y^3", r) == 2 * x * y ** 3


def test_parse_zero():
    r = PolyRing(("x",), GREVLEX)
    assert parse_polynomial("0", r).is_zero()
    assert parse_polynomial("x - x", r).is_zero()


def test_parse_requires_explicit_star():
    r = PolyRing(("p_0", "p_1"), GREVLEX)
    with pytest.raises(ParseError):
        parse_polynomial("4p_0", r)
    with pytest.raises(ParseError):
        parse_polynomial("p_0p_1", r)


def test_parse_unknown_variable():
    r = PolyRing(("x",), GREVLEX)
    with pytest.raises(ParseError):
        parse_polynomial("x + q", r)


def test_parse_error_reports_position():
    r = PolyRing(("x",), GREVLEX)
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x + ", r)
    assert "column" in str(exc.value)


def test_parse_rejects_trailing_junk():
    r = PolyRing(("x",), GREVLEX)
    for text in ("x )", "(x", "x + *", "x $ 1", "1/x", "1/0", "x^-1"):
        with pytest.raises(ParseError):
            parse_polynomial(text, r)


def test_parse_rejects_huge_exponent():
    r = PolyRing(("x",), GREVLEX)
    with pytest.raises(ParseError):
        parse_polynomial("x^9223372036854775808", r)
    # each factor fits a machine word, their product does not
    with pytest.raises(ParseError) as exc:
        parse_polynomial("x^9223372036854775807*x", r)
    assert exc.value.column == len("x^9223372036854775807") + 1  # the '*'


def test_parse_rejects_overlong_integers():
    # int() refuses more digits than sys.get_int_max_str_digits(); the
    # parser names the token instead of passing on that bare ValueError
    r = PolyRing(("x",), GREVLEX)
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    for text, column in (
        (f"{digits}*x", 1),
        (f"x^{digits}", 3),
        (f"1/{digits}", 3),
        (f"x + {digits}/2", 5),
    ):
        with pytest.raises(ParseError) as exc:
            parse_polynomial(text, r)
        assert (exc.value.line, exc.value.column) == (1, column), text[:20]
        assert "too long" in exc.value.reason


def test_print_formatting():
    r = PolyRing(("x", "y"), GREVLEX)
    assert print_polynomial(r.zero()) == "0"
    assert print_polynomial(r.one()) == "1"
    assert print_polynomial(r.constant(Fraction(-3, 2))) == "-3/2"
    x, y = r.gens()
    assert print_polynomial(-x + y) == "-x + y"
    assert print_polynomial(x - y) == "x - y"
    assert print_polynomial(x * x) == "x^2"
    assert print_polynomial(x * 1) == "x"
    assert print_polynomial(x * -1 - 1) == "-x - 1"


def test_print_parse_round_trip():
    rng = random.Random(43)
    r = PolyRing(("x", "y", "z"), GREVLEX)
    for _ in range(40):
        f = _random_poly(r, rng, nterms=5)
        assert parse_polynomial(print_polynomial(f), r) == f
