"""Acceptance suite: one numbered criterion per test, one PASS/FAIL line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report lines; each test also enforces its own time budget.
"""

import json
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from algstat import (
    GREVLEX,
    DiscreteRandomVariable,
    Ideal,
    IntMatrix,
    ModelGraph,
    PolyRing,
    compute_lc_general,
    compute_lc_toric,
    ideal_contains,
    ideal_equal,
    lattice_span_equal,
    make_loglinear_matrix,
    map_to_ring,
    maximal_cliques,
    ml_degree,
    normal_form,
    parse_ideal_text,
    parse_polynomial,
    rational_normal_scroll,
    run,
    s_polynomial,
    saturate_by_product,
    toric_ideal,
)


@contextmanager
def _criterion(num, desc):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL {desc}")
        raise
    elapsed = time.monotonic() - start
    print(f"[criterion {num:02d}] PASS ({elapsed:.2f}s) {desc}")


def _ideal(ring, *texts):
    return Ideal(ring, [parse_polynomial(t, ring) for t in texts])


CORPUS = [
    ("segre-line", IntMatrix([[1, 1], [0, 1]])),
    ("plane", IntMatrix.identity(3)),
    ("conic", IntMatrix([[1, 1, 1], [0, 1, 2]])),
    ("twisted-cubic", IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])),
    ("independence-2x2", IntMatrix([
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 0, 1, 0],
        [0, 1, 0, 1],
    ])),
    ("binary-3-chain", IntMatrix([
        [1, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 1, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 1, 1],
        [1, 0, 0, 0, 1, 0, 0, 0],
        [0, 1, 0, 0, 0, 1, 0, 0],
        [0, 0, 1, 0, 0, 0, 1, 0],
        [0, 0, 0, 1, 0, 0, 0, 1],
    ])),
]


def _hw_ideal():
    ring = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    return _ideal(ring, "4*p_0*p_2 - p_1^2")


def test_criterion_01_scaled_conic_likelihood_ideal():
    with _criterion(1, "likelihood ideal of the scaled conic, under 10s"):
        start = time.monotonic()
        lc = compute_lc_general(_hw_ideal())
        elapsed = time.monotonic() - start
        expect = _ideal(
            lc.ring,
            "4*p_2*u_0 - p_1*u_1 + 2*p_2*u_1 - 2*p_1*u_2",
            "2*p_1*u_0 - 2*p_0*u_1 + p_1*u_1 - 4*p_0*u_2",
            "p_1^2 - 4*p_0*p_2",
        )
        assert ideal_equal(lc.ideal(), expect)
        assert elapsed < 10.0


def test_criterion_02_scaled_conic_ml_degree():
    with _criterion(2, "ML degree 1 for the scaled conic over 5 seeds, "
                       "under 10s per seed"):
        hw = _hw_ideal()
        for seed in (0, 1, 7, 42, 2026):
            start = time.monotonic()
            assert ml_degree(hw, seed=seed) == 1
            assert time.monotonic() - start < 10.0


def test_criterion_03_twisted_cubic_ideal():
    with _criterion(3, "twisted cubic ideal equals the 2x2 rolling minors, "
                       "under 5s"):
        start = time.monotonic()
        i = toric_ideal(IntMatrix([[1, 1, 1, 1], [1, 2, 3, 4]]))
        elapsed = time.monotonic() - start
        r = i.ring
        expect = _ideal(
            r,
            "p_0*p_2 - p_1^2",
            "p_0*p_3 - p_1*p_2",
            "p_1*p_3 - p_2^2",
        )
        assert ideal_equal(i, expect)
        assert elapsed < 5.0


def test_criterion_04_twisted_cubic_polytope():
    with _criterion(4, "recovered twisted-cubic lattice spans the expected "
                       "rows"):
        from algstat import toric_polytope

        out = toric_polytope(toric_ideal(IntMatrix([[1, 1, 1, 1],
                                                    [0, 1, 2, 3]])))
        assert lattice_span_equal(
            out, IntMatrix([[1, 1, 1, 1], [-2, -1, 0, 1]])
        )


def test_criterion_05_loglinear_matrix():
    with _criterion(5, "log-linear matrix of the binary 3-chain is "
                       "bit-identical"):
        a = DiscreteRandomVariable(2, name="a")
        b = DiscreteRandomVariable(2, name="b")
        c = DiscreteRandomVariable(2, name="c")
        m = make_loglinear_matrix([(a, b), (b, c)], [a, b, c])
        assert m.entries == (
            (1, 1, 0, 0, 0, 0, 0, 0),
            (0, 0, 1, 1, 0, 0, 0, 0),
            (0, 0, 0, 0, 1, 1, 0, 0),
            (0, 0, 0, 0, 0, 0, 1, 1),
            (1, 0, 0, 0, 1, 0, 0, 0),
            (0, 1, 0, 0, 0, 1, 0, 0),
            (0, 0, 1, 0, 0, 0, 1, 0),
            (0, 0, 0, 1, 0, 0, 0, 1),
        )


def test_criterion_06_chain_graph_toric_ideal():
    with _criterion(6, "binary 3-chain graph ideal equals the two marginal "
                       "binomials"):
        g = ModelGraph(
            [DiscreteRandomVariable(2, name=n) for n in "abc"],
            [("a", "b"), ("b", "c")],
        )
        i = toric_ideal(g)
        expect = _ideal(i.ring, "p_3*p_6 - p_2*p_7", "p_1*p_4 - p_0*p_5")
        assert ideal_equal(i, expect)


def test_criterion_07_scroll_likelihood_ideal():
    with _criterion(7, "scroll (2,2,3) likelihood ideal under 120s, "
                       "containing the model ideal, saturation-fixed"):
        scroll = rational_normal_scroll((2, 2, 3))
        start = time.monotonic()
        lc = compute_lc_toric(scroll)
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        model = toric_ideal(scroll)
        full = lc.ideal()
        for g in model.generators:
            assert ideal_contains(full, map_to_ring(g, lc.ring))
        n1 = lc.ring.nvars // 2
        p_gens = list(lc.ring.gens())[:n1]
        again = saturate_by_product(full, p_gens)
        assert ideal_equal(full, again)


def test_criterion_08_cross_path_agreement():
    with _criterion(8, "toric and Lagrange constructions agree, and both "
                       "saturation modes agree, on all six corpus models, "
                       "under 120s total"):
        start = time.monotonic()
        for name, matrix in CORPUS:
            lt = compute_lc_toric(matrix)
            lg = compute_lc_general(toric_ideal(matrix))
            assert ideal_equal(lt.ideal(), lg.ideal()), name
            lf = compute_lc_toric(matrix, saturation="full")
            assert ideal_equal(lt.ideal(), lf.ideal()), name
        assert time.monotonic() - start < 120.0


def test_criterion_09_property_suite():
    with _criterion(9, "algebraic property suite (S-pairs, saturation "
                       "idempotence, closed-form maximizer, containment)"):
        # S-polynomials of every corpus basis reduce to zero
        for _, matrix in CORPUS:
            basis = list(toric_ideal(matrix).groebner().basis)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j])
                    assert normal_form(s, basis).is_zero()

        # saturation is idempotent on seeded random monomial/binomial ideals
        rng = random.Random(20260819)
        for _ in range(20):
            n = rng.randint(2, 4)
            ring = PolyRing(tuple(f"x_{k}" for k in range(n)), GREVLEX)
            gens = []
            for _ in range(rng.randint(1, 3)):
                mono = ring.one()
                other = ring.one()
                for v in ring.gens():
                    mono = mono * v ** rng.randint(0, 2)
                    other = other * v ** rng.randint(0, 2)
                gens.append(mono if rng.random() < 0.5 else mono - other)
            ideal = Ideal(ring, [g for g in gens if not g.is_zero()])
            once = saturate_by_product(ideal, list(ring.gens()))
            twice = saturate_by_product(once, list(ring.gens()))
            assert ideal_equal(once, twice)
            basis = list(once.groebner().basis)
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    s = s_polynomial(basis[i], basis[j])
                    assert normal_form(s, basis).is_zero()

        # the closed-form maximizer of the scaled conic zeroes every
        # generator for 100 seeded positive data vectors
        lc = compute_lc_general(_hw_ideal())
        rng = random.Random(97)
        for _ in range(100):
            ua, ub, uc = (rng.randint(1, 100) for _ in range(3))
            total = 2 * (ua + ub + uc)
            values = {
                "p_0": Fraction((2 * ua + ub) ** 2, total ** 2),
                "p_1": Fraction(2 * (2 * ua + ub) * (ub + 2 * uc), total ** 2),
                "p_2": Fraction((ub + 2 * uc) ** 2, total ** 2),
                "u_0": ua, "u_1": ub, "u_2": uc,
            }
            for g in lc.generators:
                assert g.substitute(values).is_zero()

        # every corpus likelihood ideal contains its model ideal
        for name, matrix in CORPUS:
            lc = compute_lc_toric(matrix)
            full = lc.ideal()
            for g in toric_ideal(matrix).generators:
                assert ideal_contains(full, map_to_ring(g, lc.ring)), name


def test_criterion_10_random_variable_suite():
    with _criterion(10, "discrete random variable behaviors"):
        d = DiscreteRandomVariable(
            3, [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)]
        )
        assert d.mean() == Fraction(17, 10)
        assert d.states() == [1, 2, 3]
        for arity in range(1, 21):
            assert DiscreteRandomVariable(arity).mean() == \
                Fraction(arity + 1, 2)
        assert d.sample(25, seed=4) == d.sample(25, seed=4)
        assert all(s in (1, 2, 3) for s in d.sample(200, seed=9))
        with pytest.raises(ValueError):
            DiscreteRandomVariable(2, [Fraction(1, 2), Fraction(1, 3)])


def test_criterion_11_cli_round_trip(capsys, tmp_path):
    with _criterion(11, "command-line round trip on every corpus model and "
                        "byte-identical reruns"):
        # every corpus likelihood ideal: emit as text, re-parse, recompute
        for name, matrix in CORPUS:
            inline = ";".join(" ".join(str(e) for e in row)
                              for row in matrix.entries)
            assert run(["compute-lc", "--matrix", inline, "--inline"]) == 0
            emitted = capsys.readouterr().out
            reparsed = parse_ideal_text(emitted)
            recomputed = compute_lc_toric(matrix)
            assert reparsed.ring == recomputed.ring, name
            assert ideal_equal(reparsed, recomputed.ideal()), name

        path = tmp_path / "hw.ideal"
        path.write_text("ring p_0..p_2\n4*p_0*p_2 - p_1^2\n")
        assert run(["compute-lc", str(path)]) == 0
        emitted = capsys.readouterr().out
        reparsed = parse_ideal_text(emitted)
        recomputed = compute_lc_general(_hw_ideal())
        assert reparsed.ring == recomputed.ring
        assert ideal_equal(reparsed, recomputed.ideal())

        chain = tmp_path / "chain.json"
        chain.write_text(json.dumps({
            "variables": [
                {"name": "a", "arity": 2},
                {"name": "b", "arity": 2},
                {"name": "c", "arity": 2},
            ],
            "edges": [["a", "b"], ["b", "c"]],
        }))
        for argv in (
            ["compute-lc", str(path)],
            ["ml-degree", str(path), "--seed", "11"],
            ["toric-ideal", str(chain)],
            ["loglinear-matrix", str(chain)],
            ["drv", "sample", "--arity", "3", "--n", "8", "--seed", "2"],
        ):
            assert run(list(argv)) == 0
            first = capsys.readouterr().out
            assert run(list(argv)) == 0
            assert capsys.readouterr().out == first
