"""Reduced Groebner bases and normal forms checked against sympy.

Seeded small ideals (3 variables, degree <= 2, at most 3 generators)
keep sympy's running time to about a second.
"""

import random
from fractions import Fraction

import pytest

from algstat import GREVLEX, LEX, Ideal, PolyRing, normal_form

sympy = pytest.importorskip("sympy")

NAMES = ("x", "y", "z")
SYMBOLS = sympy.symbols(NAMES)


def _random_poly(ring, rng, nterms, maxdeg, mindeg=0):
    terms = []
    for _ in range(nterms):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(mindeg, maxdeg)):
            exps[rng.randrange(ring.nvars)] += 1
        terms.append((tuple(exps), rng.randint(-3, 3)))
    return ring.poly(terms)


def _to_sympy(f):
    return sum(
        (
            sympy.Rational(c.numerator, c.denominator)
            * sympy.Mul(*(s**e for s, e in zip(SYMBOLS, m)))
            for m, c in f.terms
        ),
        sympy.Integer(0),
    )


def _fraction(c):
    return Fraction(int(c.p), int(c.q))


def _from_sympy(expr, scale=Fraction(1)):
    """The exponent/coefficient dict of a sympy expression, divided by scale."""
    poly = sympy.Poly(expr, *SYMBOLS)
    return {m: _fraction(c) / scale for m, c in poly.terms() if c}


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


@pytest.mark.parametrize(
    "order, name, seed", [(GREVLEX, "grevlex", 71), (LEX, "lex", 73)]
)
def test_groebner_and_normal_form_match_sympy(order, name, seed):
    for ideal, probes in _seeded_cases(order, seed):
        ours = ideal.groebner()
        if not ideal.generators:
            assert ours.basis == ()
            continue
        theirs = sympy.groebner(
            [_to_sympy(g) for g in ideal.generators], *SYMBOLS, order=name
        )
        # sympy's basis is reduced but not monic; Poly.monic would use lex,
        # so scale by the leading coefficient in the order itself
        expected = sorted(
            sorted(_from_sympy(g, _fraction(sympy.LC(g, *SYMBOLS, order=name))).items())
            for g in theirs.exprs
        )
        assert sorted(sorted(dict(g.terms).items()) for g in ours.basis) == expected
        for f in probes:
            _, r = sympy.reduced(_to_sympy(f), theirs.exprs, *SYMBOLS, order=name)
            assert dict(normal_form(f, ours).terms) == _from_sympy(r)
