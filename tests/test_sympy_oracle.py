"""Reduced Groebner bases and normal forms checked against sympy.

Seeded small ideals (3 variables, degree <= 2, at most 3 generators)
keep sympy's running time to about a second.  A second set has 4
variables and no constant term, under four orders, block orders
included, so it checks the signature loop that such ideals take.  A
third set checks saturations of homogeneous ideals against sympy's own
elimination of t from I + (t*f - 1), on both of saturate's routes.
"""

import random
from fractions import Fraction

import pytest

import algstat.groebner
from algstat import GREVLEX, LEX, Ideal, MonomialOrder, PolyRing, normal_form, saturate

sympy = pytest.importorskip("sympy")
from sympy.polys.orderings import ProductOrder, grevlex  # noqa: E402

NAMES = ("x", "y", "z")
SYMBOLS = sympy.symbols(NAMES)
SYMBOLS4 = sympy.symbols(("x", "y", "z", "w"))


def _random_poly(ring, rng, nterms, maxdeg, mindeg=0):
    terms = []
    for _ in range(nterms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(mindeg, maxdeg)):
            exps[rng.randrange(ring.nvars)] += 1
        terms.append((tuple(exps), rng.randint(-3, 3)))
    return ring.poly(terms)


def _to_sympy(f, symbols=SYMBOLS):
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(symbols, m)))
            for m, c in f.terms
        ),
        sympy.Integer(0),
    )


def _fraction(c):
    return Fraction(int(c.p), int(c.q))


def _from_sympy(expr, scale=Fraction(1), symbols=SYMBOLS):
    """The exponent/coefficient dict of a sympy expression, divided by scale."""
    poly = sympy.Poly(expr, *symbols)
    return {m: _fraction(c) / scale for m, c in poly.terms() if c}


def _from_poly(expr, ring, symbols):
    """A sympy expression as a polynomial of ring."""
    return ring.poly(list(_from_sympy(expr, symbols=symbols).items()))


def _seeded_cases(order, seed, count=25):
    rng = random.Random(seed)
    ring = PolyRing(NAMES, order)
    for _ in range(count):
        # no constant terms, so that few of the ideals are the unit ideal
        gens = [
            _random_poly(ring, rng, rng.randint(1, 3), 2, mindeg=1)
            for _ in range(rng.randint(1, 3))
        ]
        ideal = Ideal(ring, gens)
        probes = [_random_poly(ring, rng, rng.randint(1, 4), 3) for _ in range(5)]
        yield ideal, probes


def _sympy_basis(ideal, symbols, order):
    """sympy's reduced basis, and its elements made monic, as sorted lists of dict items."""
    theirs = sympy.groebner([_to_sympy(g, symbols) for g in ideal.generators], *symbols, order=order)
    # sympy's basis is reduced but not monic; Poly.monic would use lex,
    # so scale by the leading coefficient in the order itself
    expected = sorted(
        sorted(_from_sympy(g, _fraction(sympy.LC(g, *symbols, order=order)), symbols).items())
        for g in theirs.exprs
    )
    return theirs, expected


@pytest.mark.parametrize(
    "order, name, seed", [(GREVLEX, "grevlex", 71), (LEX, "lex", 73)]
)
def test_groebner_and_normal_form_match_sympy(order, name, seed):
    for ideal, probes in _seeded_cases(order, seed):
        ours = ideal.groebner()
        if not ideal.generators:
            assert ours.basis == ()
            continue
        theirs, expected = _sympy_basis(ideal, SYMBOLS, name)
        assert sorted(sorted(dict(g.terms).items()) for g in ours.basis) == expected
        for f in probes:
            _, r = sympy.reduced(_to_sympy(f), theirs.exprs, *SYMBOLS, order=name)
            assert dict(normal_form(f, ours).terms) == _from_sympy(r)


def _block(k):
    """sympy's form of MonomialOrder.block(k): grevlex on the first k, then on the rest."""
    return ProductOrder((grevlex, lambda m: m[:k]), (grevlex, lambda m: m[k:]))


@pytest.mark.parametrize(
    "order, sympy_order, seed",
    [
        (GREVLEX, "grevlex", 79),
        (LEX, "lex", 83),
        (MonomialOrder.block(1), _block(1), 89),
        (MonomialOrder.block(2), _block(2), 97),
    ],
    ids=["grevlex", "lex", "block1", "block2"],
)
def test_bases_of_ideals_through_the_origin_match_sympy(order, sympy_order, seed):
    rng = random.Random(seed)
    ring = PolyRing(("x", "y", "z", "w"), order)
    for _ in range(6):
        gens = []
        for _ in range(3):
            if rng.random() < 0.5:
                d = rng.randint(2, 3)  # a homogeneous generator
                gens.append(_random_poly(ring, rng, rng.randint(2, 4), d, mindeg=d))
            else:
                gens.append(_random_poly(ring, rng, rng.randint(2, 4), 3, mindeg=1))
        ideal = Ideal(ring, gens)
        # every term has degree >= 1, so buchberger takes its signature loop
        assert all(sum(m) for g in ideal.generators for m, _ in g.terms)
        if not ideal.generators:
            continue
        _, expected = _sympy_basis(ideal, SYMBOLS4, sympy_order)
        ours = ideal.groebner()
        assert sorted(sorted(dict(g.terms).items()) for g in ours.basis) == expected


def test_saturations_match_sympy_elimination(monkeypatch):
    # each ideal's grevlex basis is cached first, so saturate may prove a
    # saturation trivial with one signature step; record which way it went
    proved = []
    colon_is_trivial = algstat.groebner._colon_is_trivial

    def spy(gb, f):
        proved.append(colon_is_trivial(gb, f))
        return proved[-1]

    monkeypatch.setattr(algstat.groebner, "_colon_is_trivial", spy)
    rng = random.Random(101)
    t = sympy.Symbol("t")
    for _ in range(16):
        n = rng.randint(3, 4)
        ring = PolyRing(("x", "y", "z", "w")[:n], GREVLEX)
        symbols = SYMBOLS4[:n]
        gens = []
        for _ in range(rng.randint(1, 3)):
            d = rng.randint(1, 2)
            gens.append(_random_poly(ring, rng, rng.randint(1, 3), d, mindeg=d))
        ideal = Ideal(ring, gens)
        if not ideal.generators:
            continue
        ideal.groebner()
        pick = rng.random()
        if pick < 0.4:
            f = ring.gens()[rng.randrange(n)]
        elif pick < 0.6:
            f = ring.sum_of_gens()
        else:
            f = _random_poly(ring, rng, 2, 1, mindeg=1)
        if not f.terms:
            continue
        ours = saturate(ideal, f)
        system = [_to_sympy(g, symbols) for g in ideal.generators]
        system.append(t * _to_sympy(f, symbols) - 1)
        # grevlex on t, then grevlex on the rest: t's elimination order
        block = sympy.groebner(system, t, *symbols, order=_block(1))
        free = [g for g in block.exprs if not g.has(t)]
        reduced = _sympy_basis(Ideal(ring, [_from_poly(g, ring, symbols) for g in free]),
                               symbols, "grevlex")[1]
        assert sorted(sorted(dict(g.terms).items()) for g in ours.generators) == reduced
    assert proved.count(True) >= 3 and proved.count(False) >= 3

