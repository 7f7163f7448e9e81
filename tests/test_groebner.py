"""Tests for Groebner bases, ideal operations, and the ideal file format."""

import gc
import heapq
import itertools
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import prod
from operator import le

import pytest
from hypothesis import example, given, settings, strategies as st

from algstat import (
    GREVLEX,
    LEX,
    GroebnerBasis,
    GuardrailError,
    Ideal,
    InputError,
    IntMatrix,
    MonomialOrder,
    ParseError,
    PolyMatrix,
    PolyRing,
    buchberger,
    compute_lc_general,
    eliminate,
    format_ideal,
    ideal_contains,
    ideal_equal,
    intersect,
    is_zero_dimensional,
    krull_dimension,
    map_to_ring,
    minors,
    ml_degree,
    mul_int_poly,
    normal_form,
    parse_ideal_text,
    parse_polynomial,
    print_polynomial,
    quotient_dimension,
    s_polynomial,
    saturate,
    saturate_by_product,
    toric_ideal,
)
import algstat.groebner
from algstat.exactmath import det
from algstat.groebner import (
    _Reducers,
    _det,
    _divide,
    _divisors,
    _eliminate_auxiliary,
    _int_terms,
    _interreduce,
    _packing,
    _pair_loop,
    _primitive_terms,
    _signature_loop,
)
from algstat.ring import MAX_EXPONENT, _restrict_order


def _ring(names, order=GREVLEX):
    return PolyRing(tuple(names), order)


def _ideal(ring, *texts):
    return Ideal(ring, [parse_polynomial(t, ring) for t in texts])


# ----------------------------------------------------------- normal form


def test_normal_form_single_step():
    r = _ring(("x", "y"))
    f = parse_polynomial("x^2*y + x", r)
    g = parse_polynomial("x^2 - y", r)
    assert normal_form(f, [g]) == parse_polynomial("y^2 + x", r)


def test_normal_form_leaves_irreducible_input():
    r = _ring(("p_0", "p_1", "p_2"))
    f = parse_polynomial("p_0*p_2", r)
    g = parse_polynomial("p_1^2 - 4*p_0*p_2", r)
    # leading monomial of g is p_1^2, which does not divide p_0*p_2
    assert normal_form(f, [g]) == f


def test_normal_form_zero_inputs():
    r = _ring(("x",))
    assert normal_form(r.zero(), [r.gen(0)]).is_zero()
    f = parse_polynomial("x + 1", r)
    assert normal_form(f, []) == f


def test_normal_form_rejects_other_rings():
    r = _ring(("x", "y"))
    other = _ring(("x", "z"))
    f = parse_polynomial("x^2 + y", r)
    with pytest.raises(ValueError):
        normal_form(f, [parse_polynomial("x", other)])
    with pytest.raises(ValueError):
        normal_form(f, _ideal(other, "x").groebner())


def _oracle_remainder(f, divisors, order):
    """Textbook division over Fractions: the leading remaining term is
    reduced by the first divisor in list order whose leading monomial
    divides it, or else moves to the remainder."""
    key = order.sort_key
    p = dict(f.terms)
    divs = []
    for g in divisors:
        terms = dict(g.terms)
        if terms:
            divs.append((max(terms, key=key), terms))
    rem = {}
    while p:
        m = max(p, key=key)
        for lt, terms in divs:
            if all(x <= y for x, y in zip(lt, m)):
                q = p[m] / terms[lt]
                shift = [y - x for x, y in zip(lt, m)]
                for gm, gc in terms.items():
                    sm = tuple(a + b for a, b in zip(gm, shift))
                    v = p.get(sm, 0) - q * gc
                    if v:
                        p[sm] = v
                    else:
                        del p[sm]
                break
        else:
            rem[m] = p.pop(m)
    return tuple(sorted(rem.items(), key=lambda t: key(t[0]), reverse=True))


def _random_fraction_poly(ring, rng, nterms, maxdeg):
    return ring.poly(
        [
            (
                tuple(rng.randint(0, maxdeg) for _ in range(ring.nvars)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
            )
            for _ in range(nterms)
        ]
    )


def test_normal_form_matches_division_oracle():
    rng = random.Random(61)
    orders = [LEX, GREVLEX, MonomialOrder.block(1), MonomialOrder.block(2)]
    for _ in range(100):
        for order in orders:
            r = _ring(tuple(f"x_{k}" for k in range(rng.randint(3, 4))), order)
            divisors = [
                _random_fraction_poly(r, rng, rng.randint(1, 3), 2)
                for _ in range(rng.randint(1, 3))
            ]
            f = _random_fraction_poly(r, rng, rng.randint(1, 6), 4)
            assert normal_form(f, divisors).terms == _oracle_remainder(f, divisors, order)


def _random_int_divisor(ring, rng, nterms):
    """An integer polynomial whose leading coefficient is in +-2..9."""
    g = ring.poly(
        [
            (tuple(rng.randint(0, 2) for _ in range(ring.nvars)), rng.randint(-9, 9))
            for _ in range(nterms)
        ]
    )
    if not g.terms:
        return g
    lc = rng.choice([-1, 1]) * rng.randint(2, 9)
    return g * (lc / g.leading_coefficient())


def test_normal_form_matches_division_oracle_on_long_inputs():
    # Dividends of 20-80 terms and divisors of 2-8 terms keep many
    # reducer streams live in the kernel's heap at once, and leading
    # coefficients other than +-1 make it rescale them.
    rng = random.Random(71)
    orders = [LEX, GREVLEX, MonomialOrder.block(1), MonomialOrder.block(2)]
    rescaled = 0
    for _ in range(8):
        for order in orders:
            r = _ring(tuple(f"x_{k}" for k in range(3)), order)
            divisors = [
                _random_int_divisor(r, rng, rng.randint(2, 8)) for _ in range(rng.randint(2, 4))
            ]
            f = _random_fraction_poly(r, rng, rng.randint(20, 80), 5)
            assert len(f.terms) >= 20
            pack = _packing(order, r.nvars)
            reducers = _divisors(divisors, pack)
            p = _int_terms(f, pack)[0]
            rescaled += _divide(p, reducers)[1] > 1
            assert normal_form(f, divisors).terms == _oracle_remainder(f, divisors, order)
    assert rescaled >= 16


def test_normal_form_skips_bucket_heads_that_cancel():
    # Reducing x*y^4 by x - y starts a stream at y^5 beside the rest of
    # the dividend, and the two tie at the top key and cancel (or add).
    r = _ring(("x", "y"))
    x, y = r.gens()
    g = x - y
    tail = y**4 + y**3 + y**2 + y + 1
    for c in (-1, 2):
        f = x * y**4 + c * y**5 + tail
        assert normal_form(f, [g]) == (c + 1) * y**5 + tail
        assert normal_form(f, [g]).terms == _oracle_remainder(f, [g], GREVLEX)


def _kernel_divide(f, divisors):
    """The kernel's (remainder, scale) for f, the remainder as Polynomial terms."""
    return _index_divide(f, _divisors(divisors, _packing(f.ring.order, f.ring.nvars)))


def _index_divide(f, index):
    """The kernel's (remainder, scale) for f by a reducer index."""
    pack = _packing(f.ring.order, f.ring.nvars)
    p, denom = _int_terms(f, pack)
    rem, scale = _divide(p, index)
    return tuple((pack.unpack(m), Fraction(c, scale * denom)) for _, m, c in rem), scale


def test_divide_sums_three_tied_streams_that_cancel():
    # Under lex, x and y are reduced by x - z and y - z; each starts a
    # stream at z, which ties with the dividend's own c*z.  For c = -2 the
    # three cancel and the step is skipped; w still reaches the remainder.
    r = _ring(("x", "y", "z", "w"), LEX)
    x, y, z, w = r.gens()
    divisors = [x - z, y - z]
    for c in (-2, 5):
        for tail in (r.zero(), w, 3 * w**2 - w):
            f = x + y + c * z + tail
            rem, scale = _kernel_divide(f, divisors)
            assert scale == 1
            assert rem == _oracle_remainder(f, divisors, LEX)
            assert r.poly(list(rem)) == (c + 2) * z + tail


def test_divide_rescales_every_live_stream():
    # u moves to the remainder; x is reduced by 2x - z (scale 2), which
    # leaves the dividend's stream and a stream at z live.  Then 2y is
    # reduced by 3y - w, so the remainder and both live streams are scaled
    # by 3 before the new stream starts: the total scale is 6.
    r = _ring(("u", "x", "y", "z", "w"), LEX)
    u, x, y, z, w = r.gens()
    divisors = [2 * x - z, 3 * y - w]
    f = u + x + y + z + w
    rem, scale = _kernel_divide(f, divisors)
    assert scale == 6
    assert rem == _oracle_remainder(f, divisors, LEX)
    assert r.poly(list(rem)) == u + Fraction(3, 2) * z + Fraction(4, 3) * w
    assert normal_form(f, divisors).terms == rem


def test_divide_single_term_reducers_push_no_stream():
    r = _ring(("x", "y", "z"))
    x, y, z = r.gens()
    assert _kernel_divide(x**2 + x * y, [x]) == ((), 1)
    cases = [
        (x**2 * y**2 + 2 * x * y + y**3 + z, [3 * x * y, y**2 - z]),
        (x**2 * y**2 + 2 * x * y + y**3 + z, [y**2 - z, 3 * x * y]),
        (5 * x**3 + x * z - 7 * y**2 * z + 1, [2 * z, x**2 - y]),
    ]
    for f, divisors in cases:
        rem, _ = _kernel_divide(f, divisors)
        assert rem == _oracle_remainder(f, divisors, GREVLEX)


def test_divide_empty_dividend():
    pack = _packing(GREVLEX, 2)
    r = _ring(("x", "y"))
    for divisors in ([], [r.gen(0) - 1], [2 * r.gen(1)]):
        assert _divide([], _divisors(divisors, pack)) == ([], 1)


def test_reducer_index_insert_finds_the_new_reducer_for_a_known_support():
    # Dividing by x^2 - z looks up the candidates of x*y's support {x, y}.
    # y - z, appended after it, has support {y}, which lies in it: the
    # next lookup must see it, though _interreduce would later repair a
    # basis built from stale candidates.
    r = _ring(("x", "y", "z"))
    x, y, z = r.gens()
    pack = _packing(GREVLEX, 3)
    f = x**2 + x * y + z
    index = _divisors([x**2 - z], pack)
    assert r.poly(list(_index_divide(f, index)[0])) == x * y + 2 * z
    index.append(_int_terms(y - z, pack)[0])
    rem = _index_divide(f, index)[0]
    assert rem == _oracle_remainder(f, [x**2 - z, y - z], GREVLEX)
    assert r.poly(list(rem)) == x * z + 2 * z


def test_reducer_index_tests_every_reducer_of_a_shared_support():
    # x^2*y and x*y^2 have the same support; only the later divides x*y^3
    r = _ring(("x", "y", "z", "w"))
    x, y, z, w = r.gens()
    divisors = [x**2 * y - z, x * y**2 - w]
    f = x * y**3 + z
    rem, _ = _kernel_divide(f, divisors)
    assert rem == _oracle_remainder(f, divisors, GREVLEX)
    assert r.poly(list(rem)) == y * w + z


def test_reducer_index_keeps_list_order_over_support_size():
    # x*y - z (support {x, y}) and x - w (support {x}) both divide x*y;
    # the first in list order reduces it, whatever the supports' sizes
    r = _ring(("x", "y", "z", "w"))
    x, y, z, w = r.gens()
    f = x * y
    for divisors, expected in (([x * y - z, x - w], z), ([x - w, x * y - z], y * w)):
        rem, _ = _kernel_divide(f, divisors)
        assert rem == _oracle_remainder(f, divisors, GREVLEX)
        assert r.poly(list(rem)) == expected


def test_reducer_index_over_no_reducers():
    r = _ring(("x", "y"))
    x, y = r.gens()
    pack = _packing(GREVLEX, 2)
    index = _Reducers(pack)
    assert len(index) == 0
    f = x**2 * y + 3 * y - 1
    assert _index_divide(f, index)[0] == f.terms
    index.append(_int_terms(y + 1, pack)[0])
    assert r.poly(list(_index_divide(f, index)[0])) == -x**2 - 4


def test_reducer_index_divides_only_below_a_position():
    # y^2 sits at position 0 and x at 1: x*y is divisible by x alone, so
    # below position 1 nothing divides it, and below 2 something does
    r = _ring(("x", "y"))
    x, y = r.gens()
    pack = _packing(GREVLEX, 2)
    index = _divisors([y**2, x], pack)
    xy, y3 = pack.exps((1, 1)), pack.exps((0, 3))
    assert not index.divides(xy, 1) and index.divides(xy, 2)
    assert index.divides(y3, 1) and not index.divides(xy, 0)


def test_reducer_index_divides_agrees_with_a_scan_below_each_position():
    # divides(m, below) makes every F5 decision of a signature step: it
    # must answer as a scan of the leading terms below ``below`` does,
    # between appends as the index grows
    rng = random.Random(163)
    seen = {"divisible": 0, "not divisible": 0}
    for order in (LEX, GREVLEX, MonomialOrder.block(1)):
        for _ in range(6):
            n = rng.randint(2, 6)
            pack = _packing(order, n)

            def monomial(top):
                return tuple(rng.randint(1, top) if rng.random() < 0.5 else 0 for _ in range(n))

            index = _Reducers(pack)
            heads = []
            for _ in range(rng.randint(5, 15)):
                h = monomial(2)
                if not any(h):
                    continue
                index.append([(pack.key(h), pack.exps(h), 1)])
                heads.append(h)
                for _ in range(20):
                    m = monomial(4)
                    below = rng.randint(0, len(heads))
                    packed = pack.exps(m)
                    expected = any(all(map(le, h, m)) for h in heads[:below])
                    assert index.divides(packed, below) == expected, (order.name, heads, m, below)
                    seen["divisible" if expected else "not divisible"] += 1
    assert min(seen.values()) >= 300, seen


def _sparse_poly(ring, rng, nterms, maxdeg):
    """A polynomial whose monomials each involve one to three variables."""
    terms = []
    for _ in range(nterms):
        m = [0] * ring.nvars
        for i in rng.sample(range(ring.nvars), rng.randint(1, 3)):
            m[i] = rng.randint(1, maxdeg)
        terms.append((tuple(m), Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    return ring.poly(terms)


def test_normal_form_matches_division_oracle_at_index_scale(monkeypatch):
    # 10-30 sparse divisors in 6-8 variables, in random list order: their
    # leading terms' supports differ, so the support index filters most
    # reducers out of each scan, and the first match must still be the
    # oracle's.  The spy keeps each support looked up and its candidates.
    looked_up = {}
    candidates = _Reducers.candidates

    def spy(index, s):
        looked_up[s] = candidates(index, s)
        return looked_up[s]

    monkeypatch.setattr(_Reducers, "candidates", spy)
    rng = random.Random(83)
    orders = [LEX, GREVLEX, MonomialOrder.block(1), MonomialOrder.block(2)]
    filtered = 0
    for _ in range(10):
        for order in orders:
            r = _ring(tuple(f"x_{k}" for k in range(rng.randint(6, 8))), order)
            divisors = [
                _sparse_poly(r, rng, rng.randint(1, 3), 2) for _ in range(rng.randint(10, 30))
            ]
            divisors = [g for g in divisors if g.terms]
            assert len(divisors) >= 10
            f = _sparse_poly(r, rng, rng.randint(10, 30), 3)
            rem = normal_form(f, divisors).terms
            assert rem == _oracle_remainder(f, divisors, order)
            index = _divisors(divisors, _packing(order, r.nvars))
            looked_up.clear()
            assert _index_divide(f, index)[0] == rem
            filtered += sum(c.bit_count() < len(index) for c in looked_up.values())
    assert filtered >= 200


def test_reducer_index_appends_between_divisions():
    # One index grows by appends while it divides, as in buchberger: after
    # each append the kernel must agree with the oracle over the divisors
    # so far, in list order, though it looked up the same supports before
    # the append.
    rng = random.Random(89)
    orders = [LEX, GREVLEX, MonomialOrder.block(1), MonomialOrder.block(2)]
    for _ in range(3):
        for order in orders:
            r = _ring(tuple(f"x_{k}" for k in range(rng.randint(5, 7))), order)
            pack = _packing(order, r.nvars)
            dividends = [_sparse_poly(r, rng, rng.randint(8, 20), 3) for _ in range(4)]
            index = _Reducers(pack)
            divisors = []
            for _ in range(rng.randint(8, 16)):
                g = _sparse_poly(r, rng, rng.randint(1, 3), 2)
                if not g.terms:
                    continue
                index.append(_int_terms(g, pack)[0])
                divisors.append(g)
                for f in dividends:
                    rem = _index_divide(f, index)[0]
                    assert rem == _oracle_remainder(f, divisors, order)


def test_exponent_overflow_trips_the_guardrail():
    # y^2 -> y*x^MAX -> x^(2*MAX): the exponent leaves the range that
    # ring.poly accepts, so the kernel stops instead of returning it.
    r = _ring(("y", "x", "z"), LEX)
    y, x, z = r.gens()
    with pytest.raises(GuardrailError):
        normal_form(y**2 - 1, [y - x**MAX_EXPONENT])
    with pytest.raises(GuardrailError):
        Ideal(r, [y**2 - 1, y - x**MAX_EXPONENT]).groebner()
    # exponents that stay in range, next to the guard bit, still reduce
    assert normal_form(y * z - 1, [y - x**MAX_EXPONENT]) == x**MAX_EXPONENT * z - 1
    assert normal_form(x**MAX_EXPONENT * z, [x**MAX_EXPONENT - z]) == z**2


def test_normal_form_by_groebner_basis_matches_its_list():
    rng = random.Random(67)
    r = _ring(("x", "y", "z"))
    gb = _ideal(r, "x^2 - 2*y*z", "3*x*y - z^2", "y^3 - x").groebner()
    built = GroebnerBasis(gb.ideal, gb.basis, gb.order)
    for _ in range(20):
        f = _random_fraction_poly(r, rng, 5, 4)
        expected = normal_form(f, list(gb.basis))
        assert normal_form(f, gb) == expected
        assert normal_form(f, built) == expected


def test_s_polynomial():
    r = _ring(("x", "y"))
    f = parse_polynomial("x^2 - y", r)
    g = parse_polynomial("x*y - 1", r)
    assert s_polynomial(f, g) == parse_polynomial("-y^2 + x", r)
    with pytest.raises(ValueError):
        s_polynomial(f, map_to_ring(g, _ring(("x", "y"), LEX)))


def test_s_polynomial_rejects_zero():
    r = _ring(("x",))
    with pytest.raises(ValueError):
        s_polynomial(r.zero(), r.gen(0))


# -------------------------------------------------------------- buchberger


def test_groebner_lex_known_basis():
    r = _ring(("x", "y"), LEX)
    gb = _ideal(r, "x^2 + 2*x*y^2", "x*y + 2*y^3 - 1").groebner()
    assert sorted(print_polynomial(g) for g in gb.basis) == ["x", "y^3 - 1/2"]


def test_groebner_grevlex_known_basis():
    r = _ring(("x", "y", "z"))
    gb = _ideal(r, "-x^2 + y", "-x^3 + z").groebner()
    assert sorted(print_polynomial(g) for g in gb.basis) == [
        "x*y - z",
        "x^2 - y",
        "y^2 - x*z",
    ]
    assert ideal_contains(gb.ideal, parse_polynomial("y^3 - z^2", r))


def test_groebner_is_reduced_and_monic():
    r = _ring(("x", "y", "z"))
    gb = _ideal(r, "3*x^2 - 6*y", "2*x^3 - 4*z").groebner()
    for g in gb.basis:
        assert g.leading_coefficient() == 1
        others = [h for h in gb.basis if h is not g]
        assert normal_form(g, others) == g


def test_groebner_of_zero_and_unit_ideals():
    r = _ring(("x", "y"))
    assert _ideal(r).groebner().basis == ()
    gb = _ideal(r, "x", "x + 1").groebner()
    assert [print_polynomial(g) for g in gb.basis] == ["1"]


@st.composite
def _ideal_and_rewrite(draw):
    """A small ideal, plus its generators permuted, rescaled and combined."""
    n = draw(st.integers(2, 3))
    r = _ring(tuple(f"x_{k}" for k in range(n)), draw(st.sampled_from((LEX, GREVLEX))))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(-5, 5))
    gens = [
        g for g in (r.poly(ts) for ts in draw(
            st.lists(st.lists(term, min_size=1, max_size=3), min_size=1, max_size=3)
        ))
        if g.terms
    ]
    scale = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
    rewritten = [g * draw(scale) for g in draw(st.permutations(gens))]
    # a redundant generator as well, so that the two runs differ beyond
    # the normalization and sorting of the input
    extra = sum((g * draw(st.sampled_from(r.gens())) * draw(scale) for g in gens), r.zero())
    return Ideal(r, gens), Ideal(r, rewritten + [extra])


def _rewrite_example():
    # the redundant generator leaves a tail that only interreduction removes
    r = _ring(("x_0", "x_1", "x_2"))
    a, b, c = (
        parse_polynomial(t, r)
        for t in ("x_0*x_1^2*x_2", "x_0^2*x_1^2", "5*x_0*x_1*x_2 + 3*x_1*x_2 + 2*x_2")
    )
    x0, _, x2 = r.gens()
    return Ideal(r, [a, b, c]), Ideal(r, [c, b * 3, a, x0 * c + x2 * b])


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_ideal_and_rewrite())
@example(_rewrite_example())
def test_groebner_is_canonical_under_permutation_and_scaling(case):
    i, j = case
    assert i.groebner().basis == j.groebner().basis


def test_groebner_is_cached():
    r = _ring(("x", "y"))
    i = _ideal(r, "x^2 - y")
    assert i.groebner() is i.groebner()


def test_groebner_spairs_reduce_to_zero():
    rng = random.Random(47)
    for _ in range(10):
        names = ("x", "y", "z")[: rng.randint(2, 3)]
        r = _ring(names)
        gens = []
        for _ in range(rng.randint(1, 3)):
            p = r.zero()
            for _ in range(rng.randint(1, 3)):
                m = r.one()
                for v in r.gens():
                    m = m * v ** rng.randint(0, 2)
                p = p + rng.randint(-3, 3) * m
            if not p.is_zero():
                gens.append(p)
        gb = Ideal(r, gens).groebner()
        basis = list(gb.basis)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j])
                assert normal_form(s, basis).is_zero()


def test_membership_via_normal_form():
    r = _ring(("x", "y", "z"))
    i = _ideal(r, "x^2 - y", "x^3 - z")
    assert ideal_contains(i, parse_polynomial("y^3 - z^2", r))
    assert not ideal_contains(i, parse_polynomial("x - 1", r))
    assert ideal_contains(i, r.zero())
    with pytest.raises(ValueError):
        ideal_contains(i, _ring(("x", "y")).gen(0))


def test_ideal_equal():
    r = _ring(("x", "y"))
    a = _ideal(r, "x + y", "x - y")
    b = _ideal(r, "x", "y")
    assert ideal_equal(a, b)
    assert not ideal_equal(a, _ideal(r, "x"))
    with pytest.raises(ValueError):
        ideal_equal(a, _ideal(_ring(("x", "z")), "x"))


# ------------------------------------------------------- the two loops


def _loop_bases(ideal):
    """The pair loop's and the signature loop's interreduced bases of an ideal.

    The inputs are prepared as buchberger prepares them; each loop grows
    its own index of the known prefix, and the grown index is
    interreduced as buchberger does it.  Also returns the signature
    loop's steps, each as the packed leading monomials of the basis it
    started from and its regular reductions as (signature key, reduced
    to zero), and the number of the pair loop's reductions to zero.
    """
    pack, inputs, pair = _loop_inputs(ideal)
    original_reduce = algstat.groebner._reduce_full
    remainders = []

    def reduce_full(p, reducers):
        remainders.append(original_reduce(p, reducers))
        return remainders[-1]

    algstat.groebner._reduce_full = reduce_full
    try:
        _pair_loop(inputs, pair, pack)
    finally:
        algstat.groebner._reduce_full = original_reduce
    sig, steps = _signature_run(ideal)

    def reduced(index):
        return [t for _, _, t in _interreduce([t for _, _, t in index.items], pack).items]

    return reduced(pair), reduced(sig), steps, remainders.count([])


def _loop_inputs(ideal):
    """The packing, inputs and known-prefix index that buchberger prepares."""
    ring = ideal.ring
    pack = _packing(ring.order, ring.nvars)
    known = ideal._known
    inputs = [_primitive_terms(g, pack) for g in ideal.generators[known:]]
    inputs.sort(key=lambda t: (t[0][0], t))
    return pack, inputs, _divisors(ideal.generators[:known], pack)


@contextmanager
def _recorded_steps(step=None):
    """Record every signature step run inside, with ``step``, if given, in
    place of _signature_step: the packed leading monomials of the basis
    it started from, and its regular reductions as (signature key,
    reduced to zero)."""
    steps = []
    original_step, original_divide = algstat.groebner._signature_step, algstat.groebner._divide
    run = step or original_step

    def recorded(f, basis, pack, stop=False):
        steps.append(([lt for lt, _, _ in basis.items], []))
        return run(f, basis, pack, stop)

    def divide(p, reducers, bound=None):
        rem, scale = original_divide(p, reducers, bound)
        if bound is not None:
            steps[-1][1].append((bound, not rem))
        return rem, scale

    algstat.groebner._signature_step, algstat.groebner._divide = recorded, divide
    try:
        yield steps
    finally:
        algstat.groebner._signature_step = original_step
        algstat.groebner._divide = original_divide


def _signature_run(ideal, step=None):
    """The signature loop's grown index of an ideal, from the inputs that
    buchberger prepares, and its recorded steps (see _recorded_steps)."""
    pack, inputs, sig = _loop_inputs(ideal)
    with _recorded_steps(step) as steps:
        _signature_loop(inputs, sig, pack)
    # a finished step leaves no signature behind: its elements are basis
    assert sig.sigs == [None] * len(sig)
    return sig, steps


def _monomials_by_key(order, n, keys):
    """The exponent vectors with the given key ints, found degree by degree."""
    pack = _packing(order, n)
    wanted = set(keys)
    out = {}
    layer = {(0,) * n}
    while wanted - out.keys():
        assert len(out) < 10**5, "a key is no monomial's"
        for m in layer:
            out[pack.key(m)] = m
        layer = {m[:i] + (m[i] + 1,) + m[i + 1 :] for m in layer for i in range(n)}
    return out


def _random_origin_poly(ring, rng, nterms, maxdeg, homogeneous):
    """A polynomial without a constant term, homogeneous or not."""
    terms = []
    degree = rng.randint(1, maxdeg)
    for _ in range(nterms):
        m = [0] * ring.nvars
        for _ in range(degree if homogeneous else rng.randint(1, maxdeg)):
            m[rng.randrange(ring.nvars)] += 1
        terms.append((tuple(m), rng.randint(-4, 4)))
    return ring.poly(terms)


def _lagrange_system(rng):
    """u_i - p_i (l_0 + l_1 df/dp_i) and a random quadric f in p, under block(2)."""
    names = ("l_0", "l_1", "p_0", "p_1", "p_2", "u_0", "u_1", "u_2")
    r = _ring(names, MonomialOrder.block(2))
    l0, l1, *rest = r.gens()
    p, u = rest[:3], rest[3:]
    f = r.zero()
    for i in range(3):
        for j in range(i, 3):
            f = f + rng.randint(-3, 3) * p[i] * p[j]
    gens = [u[i] - p[i] * (l0 + l1 * f.differentiate(2 + i)) for i in range(3)]
    return Ideal(r, [f] + gens if f.terms else gens)


def _origin_cases():
    """Seeded ideals with no constant term: random ones under four orders,
    small Lagrange systems, and random ones after a known prefix."""
    rng = random.Random(97)
    orders = [GREVLEX, LEX, MonomialOrder.block(1), MonomialOrder.block(2)]
    for _ in range(8):
        for order in orders:
            r = _ring(tuple(f"x_{k}" for k in range(rng.randint(3, 4))), order)
            homogeneous = rng.random() < 0.5
            gens = [
                _random_origin_poly(r, rng, rng.randint(2, 4), 3, homogeneous)
                for _ in range(rng.randint(2, 4))
            ]
            yield Ideal(r, gens)
    for _ in range(4):
        yield _lagrange_system(rng)
    for order in orders:
        r = _ring(("x_0", "x_1", "x_2"), order)
        first = [_random_origin_poly(r, rng, 3, 2, True) for _ in range(2)]
        gb = Ideal(r, first).groebner().basis
        rest = [_random_origin_poly(r, rng, 3, 3, False) for _ in range(2)]
        ideal = Ideal(r, list(gb) + rest)
        ideal._known = len(gb)
        yield ideal
    # 6-8 inputs, so later steps run over earlier ones that are neither
    # interreduced nor minimal
    rng = random.Random(113)
    for order in orders:
        for prefix in (0, 2):
            r = _ring(tuple(f"x_{k}" for k in range(rng.randint(3, 4))), order)
            homogeneous = rng.random() < 0.5
            gb = Ideal(r, [_random_origin_poly(r, rng, 3, 2, True) for _ in range(prefix)])
            gb = gb.groebner().basis
            rest = [
                _random_origin_poly(r, rng, rng.randint(2, 3), 3, homogeneous)
                for _ in range(rng.randint(6, 8))
            ]
            ideal = Ideal(r, list(gb) + rest)
            ideal._known = len(gb)
            yield ideal


def _saturation_case(gens, f, known):
    """I + (t*f - 1) under block(1) as saturate hands it to buchberger:
    with I's grevlex basis G cached, G as a known prefix, then t*f - 1;
    without, I's generators, then t*f - 1."""
    r = gens[0].ring
    start = Ideal(r, gens).groebner().basis if known else gens
    ext = _ring(("t",) + r.variables, MonomialOrder.block(1))
    t = ext.gens()[0]
    ideal = Ideal(ext, [map_to_ring(g, ext) for g in start] + [t * map_to_ring(f, ext) - 1])
    ideal._known = len(start) if known else 0
    return ideal


def _saturation_cases():
    """Saturation-shaped ideals: named ones (a lattice ideal at a
    coordinate and at sum p, ideals with a component on f = 0, the
    conic's toric relations at sum p), then seeded random ones, each
    with and without a cached basis."""
    for gens, f in _saturation_inputs():
        yield _saturation_case(gens, f, True)
        yield _saturation_case(gens, f, False)


def _saturation_inputs():
    r = _ring(("x", "y", "z", "w"))
    x, y, z, w = r.gens()
    yield [x * z - y**2, y * w - z**2], y  # adds x*w - y*z
    yield [x * z - y**2, y * w - z**2], r.sum_of_gens()
    yield [x * y, x * z, x * w], x
    yield [x**2 * y - z * w, x * z**2 - y * w**2], x * y
    yield [x**2, x * y, z * w - y**2], x + w
    pu = _ring(("p_0", "p_1", "p_2", "u_0", "u_1", "u_2"))
    p, u = pu.gens()[:3], pu.gens()[3:]
    a = IntMatrix([[2, 1, 0], [0, 1, 2]])
    relations = minors(2, mul_int_poly(a, PolyMatrix([[p[i], u[i]] for i in range(3)], pu)))
    conic = [4 * p[0] * p[2] - p[1] ** 2] + list(relations.generators)
    yield conic, sum(p[1:], p[0])
    rng = random.Random(151)
    for _ in range(12):
        r = _ring(tuple(f"x_{k}" for k in range(rng.randint(2, 4))))
        v = rng.choice(r.gens())
        # a multiple of v makes a component on v = 0 likely
        gens = [
            _random_origin_poly(r, rng, rng.randint(2, 3), 2, True) * (v if k else r.one())
            for k in range(rng.randint(2, 3))
        ]
        gens = [g for g in gens if g.terms]
        f = v if rng.random() < 0.6 else r.sum_of_gens()
        if gens:
            yield gens, f


def test_signature_loop_matches_the_pair_loop():
    # The pair loop is the reference: on ideals through the origin and on
    # saturations both loops must give the same reduced basis.  Within a
    # step, the signature of a reduction to zero is a syzygy signature, so
    # no later pair whose signature it divides may be reduced, and neither
    # may one whose signature a leading monomial of the basis the step
    # started from divides (the F5 criterion), though that basis is not
    # reduced.  t*f - 1 is a nonzerodivisor modulo I (its constant term is
    # a unit), and it comes last, after a basis of I: a leading monomial of
    # that basis divides every syzygy signature of its step, so the step
    # reduces nothing to zero, where the pair loop does.
    zeros = regular = unreduced = 0
    saturations = {"pair loop zeros": 0, "enlarged": 0, "unchanged": 0}
    cases = itertools.chain(
        ((ideal, False) for ideal in _origin_cases()),
        ((ideal, True) for ideal in _saturation_cases()),
    )
    for ideal, saturation in cases:
        assert ideal.generators
        pair, sig, steps, pair_zeros = _loop_bases(ideal)
        assert sig == pair
        # a known prefix saves work but does not change the basis
        assert ideal.groebner().basis == buchberger(Ideal(ideal.ring, ideal.generators)).basis
        pack = _packing(ideal.ring.order, ideal.ring.nvars)
        if saturation:
            # with a known prefix G the one step is t*f - 1's, and else the last
            assert len(steps) == 1 or not ideal._known
            assert not any(zero for _, zero in steps[-1][1])
            saturations["pair loop zeros"] += pair_zeros
            if ideal._known:
                # t is variable 0, so a t-free term has its low exponent field clear
                t_free = [t for t in pair if not any(m & ((1 << 64) - 1) for _, m, _ in t)]
                known = [_primitive_terms(g, pack) for g in ideal.generators[: ideal._known]]
                saturations["unchanged" if t_free == known else "enlarged"] += 1
        keys = [key for _, step in steps for key, _ in step]
        monomials = _monomials_by_key(ideal.ring.order, ideal.ring.nvars, keys)
        for start, step in steps:
            heads = [pack.unpack(lt) for lt in start]
            if any(all(map(le, a, b)) for a, b in itertools.permutations(heads, 2)):
                unreduced += 1
            syzygies = []
            for key, zero in step:
                t = monomials[key]
                assert not any(all(map(le, h, t)) for h in syzygies)
                assert not any(all(map(le, h, t)) for h in heads)
                if zero:
                    syzygies.append(t)
                    zeros += 1
                regular += 1
    # the cases reach both kinds of step, and steps over a non-minimal basis
    assert regular >= 150 and zeros >= 20 and unreduced >= 10
    # saturations that change the ideal and ones that do not, with
    # reductions to zero in the pair loop that the signature loop skips
    assert saturations["pair loop zeros"] >= 20
    assert saturations["enlarged"] >= 8 and saturations["unchanged"] >= 3, saturations


def _reference_signature_step(f, basis, pack, stop=False):
    """_signature_step with its criteria at pop time: every J-pair is
    keyed, kept per signature and queued, and only when it is popped are
    the F5 and zero-signature criteria tried, before the cover test."""
    guard = pack.guard
    items, sigs = basis.items, basis.sigs
    nb = len(items)
    zeros = []
    sexps = {}
    pending = {}
    heap = []

    def add(terms, se, sk):
        new = len(items)
        lk, lm = terms[0][0], terms[0][1]
        basis.append(terms, sk)
        sexps[new] = se
        for q in range(new):
            lq, _, qterms = items[q]
            l = pack.lcm(lq, lm)
            if l == lq + lm:
                continue
            kl = pack.key(pack.unpack(l))
            tk, rec = kl - lk + sk, (kl, l - lm + se, new, l - lm, kl - lk)
            if q >= nb:
                tq = kl - qterms[0][0] + sigs[q]
                if tq == tk:
                    continue
                if tq > tk:
                    tk, rec = tq, (kl, l - lq + sexps[q], q, l - lq, kl - qterms[0][0])
            old = pending.get(tk)
            if old is not None and old[0] <= kl:
                continue
            if old is None:
                heapq.heappush(heap, tk)
            pending[tk] = rec

    add(f, 0, 0)
    while heap:
        tk = heapq.heappop(heap)
        top, t, i, shift, kshift = pending.pop(tk)
        if basis.divides(t, nb) or any(not (t - z) & guard for z in zeros):
            continue
        if any(
            not (t - se) & guard and tk - sigs[g] + items[g][2][0][0] < top
            for g, se in sexps.items()
        ):
            continue
        shifted = algstat.groebner._shifted(items[i][2], shift, kshift)
        r = algstat.groebner._normalize_content(algstat.groebner._divide(shifted, basis, tk)[0])
        if not r:
            zeros.append(t)
            if stop:
                break
            continue
        lk, lm = r[0][0], r[0][1]
        if any(
            not (lm - items[g][0]) & guard and lk - items[g][2][0][0] + sigs[g] == tk
            for g in sexps
        ):
            continue
        add(r, t, tk)
    sigs[nb:] = [None] * (len(items) - nb)
    return not zeros


class _Eliminating(Exception):
    """Raised in place of the multiplier elimination, which is the last basis."""


def _lagrange_eliminations(corpus):
    """The ideals that compute_lc_general hands to buchberger on the corpus
    toric ideals, in both generator orders: model checks, saturations and
    the multiplier eliminations, which are not computed here."""
    seen = []
    original = algstat.groebner.buchberger

    def spy(ideal, *args):
        seen.append(ideal)
        if "u_0" in ideal.ring.variables:  # the data: the multipliers' elimination
            raise _Eliminating
        return original(ideal, *args)

    algstat.groebner.buchberger = spy
    try:
        for _, a in corpus:
            ix = toric_ideal(a)
            for gens in (ix.generators, ix.generators[::-1]):
                with pytest.raises(_Eliminating):
                    compute_lc_general(Ideal(ix.ring, gens))
    finally:
        algstat.groebner.buchberger = original
    return seen


def test_pairs_dropped_when_made_leave_every_reduction_as_it_was(corpus):
    # Moving the F5 and zero-signature criteria from a pair's pop to its
    # creation must not change which pairs are reduced, their order or
    # their results: each step's sequence of (signature key, reduced to
    # zero) is the reference's, on ideals through the origin, on
    # saturations, on the corpus Lagrange eliminations and in the
    # stopping steps that prove saturations trivial.
    cases = itertools.chain(_origin_cases(), _saturation_cases(), _lagrange_eliminations(corpus))
    reductions = zeros = 0
    for ideal in cases:
        sig, steps = _signature_run(ideal)
        ref, ref_steps = _signature_run(ideal, _reference_signature_step)
        assert steps == ref_steps
        assert [t for _, _, t in sig.items] == [t for _, _, t in ref.items]
        reductions += sum(len(step) for _, step in steps)
        zeros += sum(zero for _, step in steps for _, zero in step)
    verdicts = {True: 0, False: 0}
    for ideal, f in _certificate_cases():
        gb = ideal.groebner()
        pack = _packing(gb.order, gb.ring.nvars)
        r = algstat.groebner._reduce_full(_primitive_terms(f, pack), gb._reducers)
        if not r:
            continue
        outcomes = []
        for step in (None, _reference_signature_step):
            index = _Reducers(pack, [t for _, _, t in gb._reducers.items])
            with _recorded_steps(step) as steps:
                verdict = algstat.groebner._signature_step(r, index, pack, stop=True)
            outcomes.append((verdict, steps, [t for _, _, t in index.items]))
        assert outcomes[0] == outcomes[1]
        verdicts[outcomes[0][0]] += 1
    assert reductions >= 800 and zeros >= 50, (reductions, zeros)
    assert verdicts[True] >= 30 and verdicts[False] >= 20, verdicts


def test_the_loop_rule_chooses_the_loop(monkeypatch, hw_ideal):
    # The pair loop runs only when an input has both a constant term and
    # a term of degree one, and the signature loop on everything else: a
    # correspondence's Lagrange elimination (2 multipliers, 3 + 3
    # variables), a saturation (t*f - 1) and a homogeneous ideal with more
    # generators than variables take the second.  An ML-degree fiber takes
    # the first: its Lagrange relations over integer data (1 multiplier +
    # 3 variables, as lam_0 is fixed at sum u*) are affine in p, and no
    # chart sum p - 1 is added to them.  A saturation of an ideal whose
    # basis is cached, by a nonzerodivisor, is proved trivial by one
    # signature step and runs neither loop; without a cached basis it is
    # one signature-loop call on I's generators and t*f - 1.
    calls = []
    for name in ("_pair_loop", "_signature_loop"):
        loop = getattr(algstat.groebner, name)

        def spy(inputs, basis, pack, loop=loop, name=name):
            calls.append((name, len(pack.weights), len(inputs)))
            return loop(inputs, basis, pack)

        monkeypatch.setattr(algstat.groebner, name, spy)
    ideals = []

    def spy_buchberger(ideal, *args, original=algstat.groebner.buchberger):
        ideals.append(ideal)
        return original(ideal, *args)

    monkeypatch.setattr(algstat.groebner, "buchberger", spy_buchberger)
    compute_lc_general(hw_ideal)
    loops = {(name, n) for name, n, _ in calls}
    assert ("_signature_loop", 8) in loops and ("_pair_loop", 8) not in loops
    calls.clear()
    p_0 = hw_ideal.ring.gens()[0]
    assert hw_ideal._gb is not None  # cached by compute_lc_general's model check
    assert saturate(hw_ideal, p_0).generators == hw_ideal.groebner().basis
    assert calls == []
    uncached = Ideal(hw_ideal.ring, hw_ideal.generators)
    assert saturate(uncached, p_0).generators == hw_ideal.groebner().basis
    assert calls == [("_signature_loop", 4, 2)]
    calls.clear()
    r = _ring(("x", "y", "z"))
    sat = saturate(_ideal(r, "x*y", "x*z"), parse_polynomial("x", r))
    assert [print_polynomial(g) for g in sat.generators] == ["z", "y"]
    assert calls == [("_signature_loop", 4, 3)]
    calls.clear()
    ideals.clear()
    ml_degree(hw_ideal, trials=1)
    assert {name for name, n, _ in calls if n == 4} == {"_pair_loop"}
    fibers = [ideal for ideal in ideals if ideal.ring.nvars == 4]
    assert len(fibers) == 1
    # the model generator and the three relations, and no linear chart
    assert [g.total_degree() for g in fibers[0].generators] == [2, 3, 3, 3]
    calls.clear()
    quadrics = _ideal(r, "x^2", "x*y", "x*z", "y^2", "y*z", "z^2 - x*y")
    assert len(quadrics.groebner()) == 6
    # a constant term alone, or a degree-one term alone, takes no pair loop
    assert [print_polynomial(g) for g in _ideal(r, "x^2 - 1", "x*y - 1").groebner()] == [
        "x - y",
        "y^2 - 1",
    ]
    assert [print_polynomial(g) for g in _ideal(r, "x^2 + y", "x*y + z").groebner()] == [
        "y^2 - x*z",
        "x*y + z",
        "x^2 + y",
    ]
    assert calls == [
        ("_signature_loop", 3, 6),
        ("_signature_loop", 3, 2),
        ("_signature_loop", 3, 2),
    ]
    calls.clear()
    # both on one input: the pair loop, though the input is no linear form
    assert [print_polynomial(g) for g in _ideal(r, "x*y + x - 1", "y^2 - z").groebner()] == [
        "x*z - x - y + 1",
        "y^2 - z",
        "x*y + x - 1",
    ]
    assert calls == [("_pair_loop", 3, 2)]


def test_buchberger_interreduces_once_in_either_loop(monkeypatch, hw_ideal):
    # both loops only grow one index, and buchberger interreduces it once,
    # not once per input
    events = []
    for name in ("buchberger", "_pair_loop", "_signature_loop", "_interreduce"):

        def spy(*args, original=getattr(algstat.groebner, name), name=name):
            events.append(name)
            return original(*args)

        monkeypatch.setattr(algstat.groebner, name, spy)
    r = _ring(("x", "y", "z", "w"))
    gens = ("x*y - z^2", "y*z - w^2", "x*w - y^2", "x^2 - z*w", "y^3 - x*z*w")
    for extra, loop in (((), "_signature_loop"), (("x + y - 1",), "_pair_loop")):
        events.clear()
        _ideal(r, *gens, *extra).groebner()
        assert events == ["buchberger", loop, "_interreduce"]
    events.clear()
    compute_lc_general(hw_ideal)  # a model check and an elimination
    runs = [tuple(events[i : i + 3]) for i in range(0, len(events), 3)]
    assert len(runs) >= 2 and set(runs) == {("buchberger", "_signature_loop", "_interreduce")}
    assert len(events) == 3 * len(runs)


# ------------------------------------------------------------- eliminate


def test_eliminate_parametrization():
    r = PolyRing(("t", "x", "y"), MonomialOrder.block(1))
    i = _ideal(r, "x - t^2", "y - t^3")
    out = eliminate(i, 1)
    assert out.ring.variables == ("x", "y")
    assert [print_polynomial(g) for g in out.generators] == ["x^3 - y^2"]


def test_eliminate_handles_any_input_order():
    # the block order is set up internally, so a grevlex ring works
    r = _ring(("t", "x", "y"))
    out = eliminate(_ideal(r, "x - t^2", "y - t^3"), 1)
    assert [print_polynomial(g) for g in out.generators] == ["x^3 - y^2"]


def test_eliminate_returns_a_reduced_basis_only_under_grevlex():
    gens = ("t - x", "x^2 + y^2 + z^2 - 1", "x*y - z^3")
    # grevlex is block(1)'s tail order: the generators are the reduced basis
    out = eliminate(_ideal(_ring(("t", "x", "y", "z")), *gens), 1)
    assert list(out.generators) == list(buchberger(out).basis)
    # under lex they only generate the ideal: not monic, and the reduced
    # lex basis has four elements
    out = eliminate(_ideal(_ring(("t", "x", "y", "z"), LEX), *gens), 1)
    assert [print_polynomial(g) for g in out.generators] == [
        "x^2 + y^2 + z^2 - 1", "-x*y + z^3",
    ]
    reduced = buchberger(out)
    assert len(reduced.basis) == 4
    assert ideal_equal(out, Ideal(out.ring, reduced.basis))


def test_eliminate_rejects_bad_counts():
    r = _ring(("t", "x"))
    i = _ideal(r, "x - t^2")
    with pytest.raises(ValueError):
        eliminate(i, 2)
    with pytest.raises(ValueError):
        eliminate(i, -1)
    assert eliminate(i, 0) is i


def test_eliminate_auxiliary_with_no_auxiliary_variable_returns_the_built_ideal():
    # k = 0: the extension ring is the ring itself, nothing is eliminated,
    # and base comes first, then what build returns
    for order in (GREVLEX, LEX):
        r = _ring(("x", "y"), order)
        x, y = r.gens()
        seen = []

        def build(aux, variables):
            seen.append((aux, variables))
            return [variables[0] - variables[1]]

        out = _eliminate_auxiliary(r, 0, build, [x * y])
        assert seen == [((), (x, y))]
        assert out.ring == r and out.generators == (x * y, x - y)
        assert out._known == 0
        assert _eliminate_auxiliary(r, 0, build, [x * y], known=True)._known == 1


def test_eliminate_restricts_the_ring_order():
    names = ("a", "b", "c", "x", "y")
    cases = [
        (LEX, 1, LEX),
        (GREVLEX, 2, GREVLEX),
        (MonomialOrder.block(3), 1, MonomialOrder.block(2)),
        (MonomialOrder.block(3), 2, MonomialOrder.block(1)),
        (MonomialOrder.block(3), 3, GREVLEX),
        (MonomialOrder.block(1), 1, GREVLEX),
    ]
    for order, k, expected in cases:
        r = _ring(names, order)
        out = eliminate(_ideal(r, "x - a*b", "y - c"), k)
        assert out.ring == _ring(names[k:], expected)
        # only a grevlex result is the reduced basis, and only it is cached
        assert (out._gb is not None) == (expected == GREVLEX)


# -------------------------------------------------------------- saturation


def test_saturate_strips_component():
    r = _ring(("x", "y"))
    i = _ideal(r, "x^2*y")
    out = saturate(i, parse_polynomial("x", r))
    assert ideal_equal(out, _ideal(r, "y"))


def test_saturate_can_reach_unit_ideal():
    r = _ring(("x", "y"))
    i = _ideal(r, "x*y", "x^2")
    out = saturate(i, parse_polynomial("x", r))
    assert ideal_equal(out, _ideal(r, "1"))


def test_saturate_fixed_when_multiplier_is_nonzerodivisor():
    r = _ring(("x", "y"))
    i = _ideal(r, "x^2 - y")
    out = saturate(i, parse_polynomial("y", r))
    assert ideal_equal(out, i)


@pytest.mark.parametrize("names", [("t", "x", "y"), ("t_0", "t1_0", "t")])
def test_saturate_and_intersect_take_any_variable_names(names):
    # the auxiliary variable gets a fresh name, so the ring may hold t
    # and the first names tried for it (t_0, then t1_0)
    plain = _ring(("a", "b", "c"))
    r = _ring(names)
    rename = dict(zip(plain.variables, names))

    def moved(ideal):
        return [map_to_ring(g, r, rename) for g in ideal.generators]

    i = _ideal(plain, "a*b - a*c", "a^2*c")
    j = _ideal(plain, "b^2 - c^2")
    f = parse_polynomial("a", plain)
    sat = saturate(Ideal(r, moved(i)), map_to_ring(f, r, rename))
    assert sat.ring == r
    assert list(sat.generators) == moved(saturate(i, f))
    assert list(saturate_by_product(Ideal(r, moved(i)), r.gens()).generators) == moved(
        saturate_by_product(i, plain.gens())
    )
    meet = intersect(Ideal(r, moved(i)), Ideal(r, moved(j)))
    assert meet.ring == r
    assert list(meet.generators) == moved(intersect(i, j))


def test_saturate_by_product_examples():
    r = _ring(("p_0", "p_1"))
    i = _ideal(r, "p_0*p_1")
    out = saturate_by_product(i, [r.gen(0), r.gen(1)])
    assert ideal_equal(out, _ideal(r, "1"))


def test_saturate_by_product_single_factor_matches_saturate():
    r = _ring(("x", "y"))
    i = _ideal(r, "x^2*y - x*y")
    f = parse_polynomial("x", r)
    assert ideal_equal(saturate_by_product(i, [f]), saturate(i, f))


def test_saturate_by_product_empty_factor_list():
    r = _ring(("x",))
    i = _ideal(r, "x^2")
    assert ideal_equal(saturate_by_product(i, []), i)


@st.composite
def _binomial_ideal_and_factors(draw):
    """A small monomial/binomial ideal plus a list of saturating factors."""
    n = draw(st.integers(2, 4))
    r = _ring(tuple(f"x_{k}" for k in range(n)))
    exps = st.tuples(*[st.integers(0, 2)] * n)
    gens = []
    for a, b, binomial in draw(
        st.lists(st.tuples(exps, exps, st.booleans()), min_size=1, max_size=3)
    ):
        g = r.poly([(a, 1), (b, -1)]) if binomial else r.poly([(a, 1)])
        if g.terms:
            gens.append(g)
    candidates = list(r.gens()) + [r.sum_of_gens()]
    fs = draw(st.lists(st.sampled_from(candidates), min_size=1, max_size=3))
    return Ideal(r, gens), fs


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_binomial_ideal_and_factors())
def test_saturate_by_product_is_saturation_by_the_product(case):
    i, fs = case
    once = saturate_by_product(i, fs)
    assert ideal_equal(once, saturate(i, prod(fs[1:], start=fs[0])))
    assert ideal_equal(once, saturate_by_product(i, fs[::-1]))


def test_saturation_is_idempotent_on_random_ideals():
    rng = random.Random(53)
    for _ in range(20):
        n = rng.randint(2, 4)
        names = tuple(f"x_{k}" for k in range(n))
        r = _ring(names)
        gens = []
        for _ in range(rng.randint(1, 3)):
            a = r.one()
            b = r.one()
            for v in r.gens():
                a = a * v ** rng.randint(0, 2)
                b = b * v ** rng.randint(0, 2)
            gens.append(a if rng.random() < 0.5 else a - b)
        i = Ideal(r, [g for g in gens if not g.is_zero()])
        once = saturate_by_product(i, list(r.gens()))
        twice = saturate_by_product(once, list(r.gens()))
        assert ideal_equal(once, twice)


# ------------------------------------------------------------ known bases


@contextmanager
def _known_counts():
    """Record how many generators each buchberger call took as a known basis."""
    seen = []
    original = algstat.groebner.buchberger

    def spy(ideal, *args):
        seen.append(ideal._known)
        return original(ideal, *args)

    algstat.groebner.buchberger = spy
    try:
        yield seen
    finally:
        algstat.groebner.buchberger = original


@st.composite
def _grevlex_ideal_and_multiplier(draw):
    """A small nonzero ideal in a grevlex ring, plus a polynomial to saturate by."""
    n = draw(st.integers(2, 3))
    r = _ring(tuple(f"x_{k}" for k in range(n)))
    term = st.tuples(st.tuples(*[st.integers(0, 2)] * n), st.integers(-3, 3))
    poly = st.lists(term, min_size=1, max_size=3).map(r.poly).filter(lambda g: bool(g.terms))
    gens = draw(st.lists(poly, min_size=1, max_size=3))
    f = draw(st.one_of(st.sampled_from(r.gens() + (r.sum_of_gens(),)), poly))
    return Ideal(r, gens), f


def _expected_known_counts(basis, f, saturated):
    """What _known_counts records for a saturate of an ideal whose reduced
    basis ``basis`` is cached: nothing when f lies in the ideal (the unit
    ideal needs no elimination) or one signature step proves the
    saturation trivial, else one elimination from the basis.  The step
    is tried when f's remainder is nonzero, and it proves the saturation
    trivial exactly when it is."""
    r = normal_form(f, basis)
    return [] if not r.terms or saturated == basis else [len(basis)]


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_grevlex_ideal_and_multiplier())
def test_saturate_from_a_known_basis_matches_saturate_from_generators(case):
    ideal, f = case
    plain = saturate(Ideal(ideal.ring, ideal.generators), f)
    gb = ideal.groebner()
    with _known_counts() as seen:
        seeded = saturate(ideal, f)
    assert seen == _expected_known_counts(gb.basis, f, plain.generators)
    assert seeded.generators == plain.generators
    # the saturation carries its basis, so the next one starts from it too;
    # saturating again changes nothing, so the step proves that unless
    # the remainder of f is zero
    again_plain = saturate(Ideal(ideal.ring, seeded.generators), f)
    assert seeded._gb is not None and seeded._gb.basis == seeded.generators
    with _known_counts() as seen:
        again = saturate(seeded, f)
    assert seen == _expected_known_counts(seeded.generators, f, again_plain.generators)
    assert again.generators == again_plain.generators == seeded.generators


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_grevlex_ideal_and_multiplier(), st.integers(1, 2))
def test_eliminate_attaches_its_reduced_basis_under_grevlex(case, k):
    ideal, _ = case
    k = min(k, ideal.ring.nvars - 1)
    out = eliminate(ideal, k)
    assert out._gb is not None and out._gb.basis == out.generators
    assert out._gb.basis == buchberger(Ideal(out.ring, out.generators)).basis
    with _known_counts() as seen:
        assert out.groebner() is out._gb
    assert seen == []


def _assert_elimination_is_the_auxiliary_free_part(ideal, k):
    """eliminate(ideal, k), and the part of the block(k) basis that
    buchberger finishes for it, are the elements of the full reduced
    block(k) basis that are free of the first k variables, in order, as
    the elimination took them before it finished only that part.  The
    input's cached basis, or its lack of one, is left as it was, and a
    cached basis is used instead of a buchberger call."""
    ring = ideal.ring
    block_ring = PolyRing(ring.variables, MonomialOrder.block(k))
    block = Ideal(block_ring, [map_to_ring(g, block_ring) for g in ideal.generators])
    if ring == block_ring:
        block._known = ideal._known
    free = [g for g in buchberger(block).basis if not any(g.leading_monomial()[:k])]
    sub = PolyRing(ring.variables[k:], _restrict_order(ring.order, range(k, ring.nvars)))
    cached = ideal._gb
    calls = []
    original = algstat.groebner.buchberger

    def spy(ideal, *args):
        gb = original(ideal, *args)
        calls.append((args, list(gb.basis)))
        return gb

    algstat.groebner.buchberger = spy
    try:
        out = eliminate(ideal, k)
    finally:
        algstat.groebner.buchberger = original
    assert calls == ([((k,), free)] if cached is None else [])
    assert ideal._gb is cached
    assert list(out.generators) == [sub.poly([(m[k:], c) for m, c in g.terms]) for g in free]


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_grevlex_ideal_and_multiplier(), st.integers(1, 2))
def test_eliminate_finishes_only_the_auxiliary_free_part(case, k):
    # grevlex and lex inputs, whose block(k) ideal is made inside
    # eliminate, and a saturation's I + (t*f - 1) built in the block(1)
    # ring, first as it comes, then with its full basis cached
    ideal, f = case
    r = ideal.ring
    k = min(k, r.nvars - 1)
    lex = PolyRing(r.variables, LEX)
    ext = PolyRing(("t",) + r.variables, MonomialOrder.block(1))
    t = ext.gens()[0]
    saturation = Ideal(
        ext, [map_to_ring(g, ext) for g in ideal.generators] + [t * map_to_ring(f, ext) - 1]
    )
    _assert_elimination_is_the_auxiliary_free_part(ideal, k)
    _assert_elimination_is_the_auxiliary_free_part(
        Ideal(lex, [map_to_ring(g, lex) for g in ideal.generators]), k
    )
    _assert_elimination_is_the_auxiliary_free_part(saturation, 1)
    assert saturation._gb is None
    saturation.groebner()
    _assert_elimination_is_the_auxiliary_free_part(saturation, 1)


def test_eliminate_finishes_only_the_auxiliary_free_part_of_the_lagrange_systems(corpus):
    # the multiplier eliminations of compute_lc_general on the corpus, in
    # both generator orders
    systems = [i for i in _lagrange_eliminations(corpus) if "u_0" in i.ring.variables]
    assert len(systems) == 2 * len(corpus)
    for ideal in systems:
        assert ideal._gb is None
        _assert_elimination_is_the_auxiliary_free_part(ideal, ideal.ring.order.block_size)


def test_buchberger_finishes_a_part_only_under_its_block_order():
    r = _ring(("t", "x", "y"))
    with pytest.raises(ValueError, match="block\\(1\\)"):
        buchberger(_ideal(r, "x - t^2", "y - t^3"), 1)
    with pytest.raises(ValueError):
        buchberger(_ideal(_ring(("t", "x", "y"), MonomialOrder.block(2)), "x - t^2"), 1)


def _random_term_poly(r, rng, nterms, degree, homogeneous):
    terms = []
    for _ in range(nterms):
        exps = [0] * r.nvars
        for _ in range(degree if homogeneous else rng.randint(0, degree)):
            exps[rng.randrange(r.nvars)] += 1
        terms.append((tuple(exps), rng.randint(-3, 3)))
    return r.poly(terms)


def _certificate_cases():
    """Named ideals and multipliers, then seeded random ones, homogeneous or not."""
    r = _ring(("x", "y", "z"))
    x = r.gens()[0]
    yield _ideal(r, "x*y - z^2", "y^3 - x"), parse_polynomial("x*y - z^2", r)  # f in I
    yield _ideal(r, "x^2 - y"), parse_polynomial("x^2 + 1", r)  # remainder y + 1
    yield _ideal(r, "x*y + x"), parse_polynomial("x*z + y + 1", r)  # remainder y + 1
    yield _ideal(r, "x*y + x"), parse_polynomial("y + 1", r)  # gives (x)
    yield _ideal(r, "x^2 - 1", "y*z"), parse_polynomial("x - 1", r)  # gives (x + 1, y*z)
    yield _ideal(r, "4*x*z - y^2"), r.sum_of_gens()  # the conic at sum p
    yield _ideal(r, "x^2 + x*y + x*z", "x*y + y^2 + y*z"), r.sum_of_gens()
    yield _ideal(r, "x*y - z^2"), x  # a variable, a nonzerodivisor
    yield _ideal(r, "x*y", "x*z"), x  # a variable, a zero divisor
    rng = random.Random(61)
    for _ in range(120):
        n = rng.randint(2, 4)
        r = _ring(tuple(f"x_{k}" for k in range(n)))
        homogeneous = rng.random() < 0.5
        degree = rng.randint(1, 3)
        gens = [
            _random_term_poly(r, rng, rng.randint(1, 3), degree, homogeneous)
            for _ in range(rng.randint(1, 3))
        ]
        pick = rng.random()
        if pick < 0.3:
            f = rng.choice(r.gens())
        elif pick < 0.45:
            f = r.sum_of_gens()
        else:
            f = _random_term_poly(r, rng, rng.randint(1, 3), rng.randint(1, 2), homogeneous)
        ideal = Ideal(r, gens)
        if ideal.generators and f.terms:
            yield ideal, f


def _colon_is_trivial(gb, f):
    """The step's verdict on I : f = I, given f's remainder on gb as saturate gives it."""
    pack = _packing(gb.order, gb.ring.nvars)
    r = algstat.groebner._reduce_full(_primitive_terms(f, pack), gb._reducers)
    return algstat.groebner._colon_is_trivial(gb, r)


def test_one_signature_step_certifies_trivial_saturations_only():
    # the step's claim checked against the elimination in both directions:
    # a proof of I : f = I gives I, and an early exit means the saturation
    # is strictly larger than I; a remainder with a constant term is tried
    # like any other
    routes = {"proved": 0, "larger": 0, "unit": 0}
    constant = {"proved": 0, "larger": 0}
    for ideal, f in _certificate_cases():
        gb = ideal.groebner()
        plain = saturate(Ideal(ideal.ring, ideal.generators), f)  # no basis cached
        r = normal_form(f, gb)
        with _known_counts() as seen:
            sat = saturate(ideal, f)
        assert sat.generators == plain.generators
        if not r.terms:
            routes["unit"] += 1
            assert [print_polynomial(g) for g in plain.generators] == ["1"]
            assert seen == [] and sat._gb.basis == sat.generators
            continue
        if _colon_is_trivial(gb, f):
            route = "proved"
            assert ideal_equal(ideal, plain) and plain.generators == gb.basis
            assert seen == [] and sat._gb.basis == gb.basis
        else:
            route = "larger"
            assert all(ideal_contains(plain, g) for g in ideal.generators)
            assert not ideal_equal(ideal, plain)
            assert seen == [len(gb.basis)]
        routes[route] += 1
        constant[route] += not all(any(m) for m, _ in r.terms)
    assert routes["proved"] >= 30 and routes["larger"] >= 20 and routes["unit"] >= 1
    assert constant["proved"] >= 2 and constant["larger"] >= 2, constant


def test_a_colon_step_that_finds_a_larger_saturation_leaves_the_basis_index_alone():
    # the step appends to a copy of the basis's index; after it stops at
    # a reduction to zero, the index that normal_form scans holds the
    # same reducers, signatures and bitsets, and gives the same normal forms
    checked = 0
    for ideal, f in _certificate_cases():
        gb = ideal.groebner()
        index = gb._index()
        before = (list(index.items), list(index.sigs), list(index.miss))
        probes = [f] + [f * v + g for v, g in zip(ideal.ring.gens(), ideal.generators)]
        forms = [normal_form(g, gb) for g in probes]
        if not normal_form(f, gb).terms or _colon_is_trivial(gb, f):
            continue
        assert gb._index() is index
        assert (index.items, index.sigs, index.miss) == before
        assert [normal_form(g, gb) for g in probes] == forms
        checked += 1
    assert checked >= 20


def test_a_saturation_by_a_member_of_the_ideal_eliminates_nothing(monkeypatch):
    # f in I makes I : f the unit ideal; with I's basis cached, its zero
    # remainder shows that, so saturate returns (1) with (1) as its cached
    # basis, the bytes the elimination gives, and no eliminate or
    # buchberger runs
    eliminations = []
    original = algstat.groebner.eliminate

    def spy(ideal, k):
        eliminations.append(k)
        return original(ideal, k)

    monkeypatch.setattr(algstat.groebner, "eliminate", spy)
    r = _ring(("x", "y", "z"))
    gens = [parse_polynomial(t, r) for t in ("x*y - z^2", "y^3 - x")]
    rng = random.Random(131)
    members = [gens[0]]
    while len(members) < 8:
        f = sum((_random_term_poly(r, rng, 3, 2, False) * g for g in gens), r.zero())
        if f.terms:
            members.append(f)
    for f in members:
        plain = saturate(Ideal(r, gens), f)  # no basis cached: an elimination
        assert plain.generators == (r.one(),)
        ideal = Ideal(r, gens)
        ideal.groebner()
        eliminations.clear()
        with _known_counts() as seen:
            sat = saturate(ideal, f)
        assert eliminations == [] and seen == []
        assert sat.generators == plain.generators and sat._gb.basis == (r.one(),)


def test_a_saturation_leaves_the_cached_reducer_index_alone():
    # the signature step appends to a fresh index, not to the one that
    # normal_form scans, whether it proves the saturation trivial or not
    r = _ring(("x", "y", "z"))
    probes = [parse_polynomial(t, r) for t in ("x^3*y*z + y^2", "x*y*z^2 - 3", "z^4 + x*y^3")]
    for gens, f, trivial in (
        (("x*y - z^2", "y^3 - x*z^2"), "x + y + z", True),
        (("x*y", "x*z"), "x", False),
    ):
        ideal = _ideal(r, *gens)
        gb = ideal.groebner()
        before = [normal_form(g, gb) for g in probes]
        size = len(gb._reducers)
        sat = saturate(ideal, parse_polynomial(f, r))
        assert (sat.generators == gb.basis) is trivial
        assert len(gb._reducers) == size and gb._reducers.sigs == [None] * size
        assert [normal_form(g, gb) for g in probes] == before


def test_saturate_ignores_a_basis_cached_under_another_order():
    # a lex basis is no basis for block(1), whose t-free part is grevlex
    r = _ring(("x", "y", "z"), LEX)
    gens = ("x*y - z^2", "y^3 - x")
    i = _ideal(r, *gens)
    i.groebner()
    z = parse_polynomial("z", r)
    with _known_counts() as seen:
        sat = saturate(i, z)
    assert seen == [0]
    assert ideal_equal(sat, saturate(_ideal(r, *gens), z))


def test_groebner_basis_keeps_the_ideal_it_came_from():
    r = _ring(("x", "y", "z"))
    i = _ideal(r, "x^2 - 2*y*z", "3*x*y - z^2", "y^3 - x")
    gb = i.groebner()
    back = gb.ideal
    assert back.ring == i.ring and back.generators == i.generators
    assert back.groebner() is gb


def test_groebner_basis_and_its_ideal_form_no_reference_cycle():
    r = _ring(("x", "y", "z"))
    enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.collect()
    gc.disable()
    try:
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        i = _ideal(r, "x^2 - 2*y*z", "3*x*y - z^2", "y^3 - x")
        gb = i.groebner()
        sat = saturate(i, parse_polynomial("z", r))  # eliminate caches a basis on it
        del i, gb, sat
        gc.collect()
        left = [o for o in gc.garbage if isinstance(o, GroebnerBasis)]
    finally:
        gc.set_debug(flags)
        gc.garbage.clear()
        if enabled:
            gc.enable()
    assert left == []


# -------------------------------------------------- intersect / dimension


def test_ideal_saturate_and_intersect_reject_bad_input():
    r = _ring(("x", "y"))
    other = _ring(("x", "z"))
    with pytest.raises(TypeError):
        Ideal(r, [r.gen(0), 1])
    with pytest.raises(ValueError):
        Ideal(r, [r.gen(0), other.gen(0)])
    i = _ideal(r, "x*y")
    with pytest.raises(ValueError):
        saturate(i, other.gen(0))
    with pytest.raises(ValueError):
        saturate(i, r.zero())
    with pytest.raises(ValueError):
        intersect(i, _ideal(other, "x"))


def test_intersect_principal_ideals():
    r = _ring(("x", "y"))
    out = intersect(_ideal(r, "x"), _ideal(r, "y"))
    assert ideal_equal(out, _ideal(r, "x*y"))


def test_intersect_known_value():
    r = _ring(("x", "y"))
    out = intersect(_ideal(r, "x^2", "y"), _ideal(r, "x"))
    assert ideal_equal(out, _ideal(r, "x^2", "x*y"))


def test_intersect_with_zero_ideal():
    r = _ring(("x", "y"))
    out = intersect(_ideal(r, "x"), _ideal(r))
    assert ideal_equal(out, _ideal(r))


def test_intersect_contains_products():
    rng = random.Random(59)
    r = _ring(("x", "y"))
    for _ in range(10):

        def rand_poly():
            p = r.zero()
            for _ in range(2):
                m = r.one()
                for v in r.gens():
                    m = m * v ** rng.randint(0, 2)
                p = p + rng.randint(-2, 2) * m
            return p

        a = Ideal(r, [q for q in (rand_poly(),) if not q.is_zero()])
        b = Ideal(r, [q for q in (rand_poly(),) if not q.is_zero()])
        both = intersect(a, b)
        for f in both.generators:
            assert ideal_contains(a, f)
            assert ideal_contains(b, f)
        for f in a.generators:
            for g in b.generators:
                assert ideal_contains(both, f * g)


def test_krull_dimension():
    r = _ring(("x", "y", "z"))
    assert krull_dimension(_ideal(r).groebner()) == 3
    assert krull_dimension(_ideal(r, "1").groebner()) == -1
    assert krull_dimension(_ideal(r, "x").groebner()) == 2
    assert krull_dimension(_ideal(r, "x", "y").groebner()) == 1
    assert krull_dimension(_ideal(r, "x", "y", "z").groebner()) == 0
    assert krull_dimension(_ideal(r, "x*y").groebner()) == 2
    assert krull_dimension(_ideal(r, "x*y", "x*z", "y*z").groebner()) == 1


def test_krull_dimension_of_monomial_curve():
    r = _ring(("p_0", "p_1", "p_2", "p_3"))
    i = _ideal(r, "p_1^2 - p_0*p_2", "p_1*p_2 - p_0*p_3", "p_2^2 - p_1*p_3")
    assert krull_dimension(i.groebner()) == 2


def test_zero_dimensionality():
    r = _ring(("x", "y"))
    assert is_zero_dimensional(_ideal(r, "x^2", "y^3").groebner())
    assert not is_zero_dimensional(_ideal(r, "x^2").groebner())
    assert not is_zero_dimensional(_ideal(r).groebner())
    assert is_zero_dimensional(_ideal(r, "1").groebner())


def test_quotient_dimension():
    r = _ring(("x", "y"))
    assert quotient_dimension(_ideal(r, "x^2", "y^3").groebner()) == 6
    assert quotient_dimension(_ideal(r, "x^2 + y", "y^2").groebner()) == 4
    assert quotient_dimension(_ideal(r, "x", "y").groebner()) == 1
    assert quotient_dimension(_ideal(r, "1").groebner()) == 0


def test_quotient_dimension_rejects_positive_dimension():
    r = _ring(("x", "y"))
    with pytest.raises(ValueError):
        quotient_dimension(_ideal(r, "x^2").groebner())


def test_quotient_dimension_guardrail():
    r = _ring(("x", "y", "z"))
    gb = _ideal(r, "x^101", "y^101", "z^101").groebner()
    with pytest.raises(GuardrailError):
        quotient_dimension(gb)


def test_quotient_dimension_counts_points_with_multiplicity():
    # (x^2 - 1)(x - 2) has three simple roots
    r = _ring(("x",))
    gb = _ideal(r, "x^3 - 2*x^2 - x + 2").groebner()
    assert quotient_dimension(gb) == 3


def test_zero_dimension_readers_on_random_monomial_ideals():
    rng = random.Random(23)
    finite = 0
    for _ in range(60):
        n = rng.randint(1, 4)
        r = _ring([f"x{i}" for i in range(n)])
        monomials = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(0, 4))]
        for i in rng.sample(range(n), rng.randint(0, n)):
            monomials.append(tuple(rng.randint(1, 4) if j == i else 0 for j in range(n)))
        gb = Ideal(r, [r.poly([(m, 1)]) for m in monomials if any(m)]).groebner()
        zero_dim = is_zero_dimensional(gb)
        assert zero_dim == (krull_dimension(gb) <= 0), monomials
        if not zero_dim:
            with pytest.raises(ValueError):
                quotient_dimension(gb)
            continue
        finite += 1
        # the standard monomials of a monomial ideal are the monomials no
        # generator divides, and each lies below every pure power
        box = [min(m[i] for m in monomials if m[i] and not any(m[:i] + m[i + 1:]))
               for i in range(n)]
        standard = sum(
            1 for e in itertools.product(*map(range, box))
            if not any(all(a <= b for a, b in zip(m, e)) for m in monomials if any(m))
        )
        assert quotient_dimension(gb) == standard, monomials
    assert 10 < finite < 60


# ------------------------------------------------------------ ideal files


def test_format_ideal_layout():
    r = _ring(("x", "y"))
    text = format_ideal(_ideal(r, "x^2 - y", "y^2 - 1"))
    assert text == "ring x y\norder grevlex\nx^2 - y\ny^2 - 1\n"


def test_parse_ideal_text_range_syntax():
    i = parse_ideal_text("ring p_0..p_2\np_1^2 - 4*p_0*p_2\n")
    assert i.ring.variables == ("p_0", "p_1", "p_2")
    assert i.ring.order == GREVLEX


@pytest.mark.parametrize("token", ["p_00..p_02", "p_0..p_02", "p_01..p_2", "x00..x2"])
def test_parse_ideal_text_rejects_zero_padded_range(token):
    # a range would respell its names (p_00..p_02 made p_0 p_1 p_2)
    with pytest.raises(ParseError) as exc:
        parse_ideal_text(f"ring {token}\n")
    assert repr(token) in str(exc.value)


def test_parse_ideal_text_order_line():
    i = parse_ideal_text("ring x y\norder lex\nx - y\n")
    assert i.ring.order == LEX
    # only a first token of exactly 'order' makes the order line
    i = parse_ideal_text("ring order_1 x\norder_1*x - 1\n")
    assert i.ring.order == GREVLEX
    assert i.generators == _ideal(i.ring, "order_1*x - 1").generators
    with pytest.raises(InputError):
        parse_ideal_text("ring order_1 x\norder weird\norder_1*x - 1\n")


def test_parse_ideal_text_ring_variable_named_order():
    # with a variable named order, a first line that is no valid order
    # line is a generator
    i = parse_ideal_text("ring order x\norder - x\n")
    assert i.ring.variables == ("order", "x")
    assert i.ring.order == GREVLEX
    assert i.generators == _ideal(i.ring, "order - x").generators
    i = parse_ideal_text("ring order x\norder lex\norder*x - 1\n")
    assert i.ring.order == LEX
    assert i.generators == _ideal(i.ring, "order*x - 1").generators


def test_parse_ideal_text_comments_and_blanks():
    i = parse_ideal_text("# header\nring x y\n\n# gen\nx*y - 1\n")
    assert len(i.generators) == 1


def test_parse_ideal_text_no_generators_is_zero_ideal():
    i = parse_ideal_text("ring x y\n")
    assert i.generators == ()


def test_parse_ideal_text_errors():
    with pytest.raises(InputError):
        parse_ideal_text("x + y\n")  # missing ring line
    with pytest.raises(InputError):
        parse_ideal_text("ring x y\norder weird\nx\n")
    with pytest.raises(InputError) as exc:
        parse_ideal_text("ring x y\nx +\n")
    assert "line" in str(exc.value)
    for text in ("", "ring p_0..q_2\n", "ring p_2..p_0\n", "ring x x\n"):
        with pytest.raises(ParseError):
            parse_ideal_text(text)
    with pytest.raises(ParseError) as exc:
        parse_ideal_text("ring x y\nx^9223372036854775807*x\n")
    assert exc.value.line == 2


def test_ideal_text_with_overlong_indices():
    # a range index past sys.get_int_max_str_digits() is a ParseError at
    # the ring line, and a single name with such an index parses and
    # prints, outside any range
    digits = "7" * (sys.get_int_max_str_digits() + 1)
    with pytest.raises(ParseError) as exc:
        parse_ideal_text(f"ring p_0..p_{digits}\np_0\n")
    assert (exc.value.line, exc.value.column) == (1, 1)
    assert "too long" in exc.value.reason
    text = f"ring p_{digits} q_1 q_2 q_3\norder grevlex\np_{digits}*q_1 - q_2^2\n"
    assert format_ideal(parse_ideal_text(text)) == text.replace("q_1 q_2 q_3", "q_1..q_3")


def test_parse_ideal_text_error_names_one_location():
    with pytest.raises(ParseError) as exc:
        parse_ideal_text("ring x y\n\nx - y\nx + (y))\n")
    message = str(exc.value)
    assert message.startswith("line 4, column ")
    assert message.count("line") == 1
    assert exc.value.line == 4


def test_block_orders_have_no_text_form():
    with pytest.raises(InputError):
        parse_ideal_text("ring t x\norder block 1\nt - x\n")
    r = _ring(("t", "x"), MonomialOrder.block(1))
    with pytest.raises(ValueError):
        format_ideal(_ideal(r, "t - x"))


def test_ideal_file_round_trip():
    rng = random.Random(61)
    r = _ring(("a", "b", "c"), LEX)
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(0, 3)):
            p = r.zero()
            for _ in range(3):
                m = r.one()
                for v in r.gens():
                    m = m * v ** rng.randint(0, 2)
                p = p + Fraction(rng.randint(-4, 4), rng.randint(1, 3)) * m
            if not p.is_zero():
                gens.append(p)
        i = Ideal(r, gens)
        back = parse_ideal_text(format_ideal(i))
        assert back.ring == r
        assert back.generators == i.generators


@pytest.mark.parametrize(
    "names, ring_line",
    [
        (("p_00", "p_1"), "ring p_00 p_1"),
        (("p_1", "p_02"), "ring p_1 p_02"),
        (("x_1", "x_2"), "ring x_1..x_2"),
        (("a_9", "a_10", "a_011", "a_12"), "ring a_9..a_10 a_011 a_12"),
    ],
)
def test_ideal_file_round_trip_keeps_index_spelling(names, ring_line):
    r = _ring(names)
    i = _ideal(r, f"{names[0]}^2 - {names[1]}^2")
    text = format_ideal(i)
    assert text.splitlines()[0] == ring_line
    back = parse_ideal_text(text)
    assert back.ring == r
    assert back.generators == i.generators


# ------------------------------------------------------------ poly matrix


def test_poly_matrix_and_minors():
    r = _ring(("p_0", "p_1", "p_2", "p_3"))
    p = r.gens()
    m = PolyMatrix([[p[0], p[1], p[2]], [p[1], p[2], p[3]]])
    assert m.nrows == 2
    assert m.ncols == 3
    i = minors(2, m)
    expect = _ideal(
        r,
        "p_0*p_2 - p_1^2",
        "p_0*p_3 - p_1*p_2",
        "p_1*p_3 - p_2^2",
    )
    assert ideal_equal(i, expect)


def test_minors_size_one():
    r = _ring(("x", "y"))
    m = PolyMatrix([[r.gen(0), r.gen(1)]])
    assert ideal_equal(minors(1, m), _ideal(r, "x", "y"))


def test_minors_rejects_oversize():
    r = _ring(("x",))
    m = PolyMatrix([[r.gen(0)]])
    with pytest.raises(ValueError):
        minors(2, m)
    with pytest.raises(ValueError):
        minors(0, m)


def test_poly_matrix_rejects_mixed_rings():
    a = _ring(("x",))
    b = _ring(("y",))
    with pytest.raises(ValueError):
        PolyMatrix([[a.gen(0), b.gen(0)]])


def test_poly_matrix_rejects_ragged_rows_and_ringless_empty_input():
    r = _ring(("x", "y"))
    x, y = r.gens()
    with pytest.raises(ValueError):
        PolyMatrix([[x, y], [x]])
    for entries in ([], [[]]):
        with pytest.raises(ValueError):
            PolyMatrix(entries)
    empty = PolyMatrix([], r)
    assert (empty.nrows, empty.ncols, empty.ring) == (0, 0, r)


@pytest.mark.parametrize("n", [3, 4])
def test_laplace_determinant_matches_bareiss_at_integer_points(n):
    # _det expands along the first row for n >= 3; evaluated at integer
    # points it must give the fraction-free Bareiss determinant of the
    # evaluated matrix
    names = tuple(f"x_{i}" for i in range(3))
    r = _ring(names)
    rng = random.Random(n)

    def entry():
        terms = [
            (tuple(rng.randint(0, 2) for _ in names), rng.randint(-3, 3)) for _ in range(2)
        ]
        return r.poly(terms)

    for _ in range(5):
        rows = [[entry() for _ in range(n)] for _ in range(n)]
        d = _det(rows)
        for _ in range(4):
            point = {name: rng.randint(-4, 4) for name in names}

            def value(f):
                return int(f.substitute(point).constant_coefficient())

            m = IntMatrix([[value(e) for e in row] for row in rows])
            assert value(d) == det(m)


def test_mul_int_poly():
    r = _ring(("p_0", "p_1", "u_0", "u_1"))
    m = PolyMatrix([
        [parse_polynomial("p_0", r), parse_polynomial("u_0", r)],
        [parse_polynomial("p_1", r), parse_polynomial("u_1", r)],
    ])
    a = IntMatrix([[1, 1], [0, 1]])
    out = mul_int_poly(a, m)
    assert print_polynomial(out.entries[0][0]) == "p_0 + p_1"
    assert print_polynomial(out.entries[0][1]) == "u_0 + u_1"
    assert print_polynomial(out.entries[1][0]) == "p_1"
    with pytest.raises(ValueError):
        mul_int_poly(IntMatrix([[1, 2, 3]]), m)
