"""Tests for random variables, the seeded generator, and model graphs."""

import itertools
import random
import re
import sys
from fractions import Fraction

import pytest

from algstat import (
    DiscreteRandomVariable,
    InputError,
    ModelGraph,
    SplitMix64,
    derive_seed,
    maximal_cliques,
    parse_model_json,
)


# ----------------------------------------------------------------- rng


def test_splitmix64_reference_sequence():
    # first outputs of the published reference generator for seed 0
    rng = SplitMix64(0)
    assert rng.next_u64() == 0xE220A8397B1DCDAF
    assert rng.next_u64() == 0x6E789E6AA1B965F4
    assert rng.next_u64() == 0x06C45D188009454F


def test_splitmix64_determinism():
    a = SplitMix64(12345)
    b = SplitMix64(12345)
    assert [a.next_u64() for _ in range(10)] == [b.next_u64() for _ in range(10)]


def test_splitmix64_seed_masked_to_64_bits():
    assert SplitMix64(2 ** 64 + 3).next_u64() == SplitMix64(3).next_u64()


def test_next_int_bounds_and_determinism():
    rng = SplitMix64(2026)
    draws = [rng.next_int(1, 6) for _ in range(8)]
    assert draws == [2, 6, 3, 1, 4, 4, 1, 2]
    rng = SplitMix64(99)
    for _ in range(200):
        assert 5 <= rng.next_int(5, 9) <= 9
    assert SplitMix64(1).next_int(7, 7) == 7


def test_next_int_spans_up_to_two_to_the_64():
    # a span of exactly 2^64 rejects nothing: the draw is lo + next_u64()
    assert SplitMix64(5).next_int(1, 2 ** 64) == 1 + SplitMix64(5).next_u64()
    with pytest.raises(ValueError, match="2\\^64"):
        SplitMix64(5).next_int(1, 2 ** 64 + 1)


def test_next_int_rejects_empty_range():
    with pytest.raises(ValueError):
        SplitMix64(0).next_int(3, 2)


def test_next_unit_is_dyadic_in_unit_interval():
    rng = SplitMix64(5)
    for _ in range(50):
        u = rng.next_unit()
        assert 0 <= u < 1
        assert (2 ** 53) % u.denominator == 0


def test_derive_seed_is_stable():
    assert derive_seed(0, 0) == 7960286522194355700
    assert derive_seed(0, 1) == 487617019471545679
    assert derive_seed(7, 0) == 309689372594955804
    assert derive_seed(0, 0) != derive_seed(1, 0)


# ---------------------------------------------------------------- drv


def test_drv_uniform_default():
    d = DiscreteRandomVariable(4)
    assert d.pmf == (Fraction(1, 4),) * 4
    assert d.states() == [1, 2, 3, 4]
    assert d.mean() == Fraction(5, 2)


def test_drv_mean_known_value():
    d = DiscreteRandomVariable(3, [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)])
    assert d.mean() == Fraction(17, 10)


def test_drv_uniform_mean_formula():
    for arity in range(1, 21):
        assert DiscreteRandomVariable(arity).mean() == Fraction(arity + 1, 2)


def test_drv_pmf_as_dict():
    d = DiscreteRandomVariable(2, {1: Fraction(1, 3), 2: Fraction(2, 3)})
    assert d.pmf == (Fraction(1, 3), Fraction(2, 3))


def test_drv_validation():
    with pytest.raises(ValueError):
        DiscreteRandomVariable(0)
    with pytest.raises(ValueError):
        DiscreteRandomVariable(2.5)
    with pytest.raises(ValueError):
        DiscreteRandomVariable(True)
    with pytest.raises(ValueError):
        DiscreteRandomVariable(2, [Fraction(1, 2), Fraction(1, 3)])
    with pytest.raises(ValueError):
        DiscreteRandomVariable(2, [Fraction(3, 2), Fraction(-1, 2)])
    with pytest.raises(ValueError):
        DiscreteRandomVariable(3, [Fraction(1, 2), Fraction(1, 2)])
    with pytest.raises(ValueError):
        DiscreteRandomVariable(2, {1: Fraction(1, 2), 5: Fraction(1, 2)})
    for pmf in (["1/0", "1"], [True, False], ["x", "1"], [[1], 0]):
        with pytest.raises(ValueError):
            DiscreteRandomVariable(2, pmf)


def test_drv_pmf_decimal_exponents_within_the_digit_limit():
    # a decimal whose exact value needs more digits than
    # sys.get_int_max_str_digits() is refused before Fraction computes
    # its power of ten, and the error names the entry; 1e-10000000 once
    # ran 8 s and failed with an int-conversion message naming neither
    limit = sys.get_int_max_str_digits()
    for entry in (f"1e-{limit}", f"1e{limit}", f"0.5e-{limit}", "1e-10000000", "1e" + "9" * 30):
        with pytest.raises(ValueError, match=re.escape(f"pmf entry {entry!r}")):
            DiscreteRandomVariable(2, [entry, "1"])
    # 10^(limit - 1) has limit digits, so these are read exactly
    small = f"1e-{limit - 1}"
    rest = "0." + "9" * (limit - 1)
    assert DiscreteRandomVariable(2, [small, rest]).pmf == (
        Fraction(1, 10 ** (limit - 1)), 1 - Fraction(1, 10 ** (limit - 1))
    )
    assert DiscreteRandomVariable(2, ["2.5e-1", "75_0e-3"]).pmf == (Fraction(1, 4), Fraction(3, 4))


def test_drv_sample_deterministic():
    d = DiscreteRandomVariable(3, [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)])
    assert d.sample(10, seed=0) == [3, 1, 1, 3, 1, 1, 1, 2, 1, 3]
    assert d.sample(10, seed=0) == d.sample(10, seed=0)
    assert d.sample(10, seed=0) != d.sample(10, seed=1)


def test_drv_sample_values_in_range():
    d = DiscreteRandomVariable(5)
    draws = d.sample(300, seed=7)
    assert len(draws) == 300
    assert set(draws) <= {1, 2, 3, 4, 5}
    # a uniform variable should hit every state in 300 draws
    assert set(draws) == {1, 2, 3, 4, 5}


def test_drv_sample_respects_degenerate_pmf():
    d = DiscreteRandomVariable(3, [Fraction(0), Fraction(1), Fraction(0)])
    assert d.sample(50, seed=3) == [2] * 50


def test_drv_sample_frequencies_track_pmf():
    d = DiscreteRandomVariable(2, [Fraction(9, 10), Fraction(1, 10)])
    draws = d.sample(1000, seed=11)
    ones = draws.count(1)
    assert 830 <= ones <= 960


# --------------------------------------------------------------- graphs


def _binary(name):
    return DiscreteRandomVariable(2, name=name)


def test_graph_construction():
    a, b, c = _binary("a"), _binary("b"), _binary("c")
    g = ModelGraph([a, b, c], [("a", "b"), ("b", "c")])
    assert [v.name for v in g.vertices] == ["a", "b", "c"]
    assert g.vertex("b") is b
    adj = g.adjacency()  # indexed by vertex position
    assert adj[0] == {1}
    assert adj[1] == {0, 2}
    assert adj[2] == {1}


def test_graph_validation():
    a, b = _binary("a"), _binary("b")
    with pytest.raises(ValueError):
        ModelGraph([a, _binary("a")])
    with pytest.raises(ValueError):
        ModelGraph([a, b], [("a", "z")])
    with pytest.raises(ValueError):
        ModelGraph([a, b], [("a", "a")])
    with pytest.raises(ValueError):
        ModelGraph([])


def test_cliques_of_path():
    a, b, c = _binary("a"), _binary("b"), _binary("c")
    g = ModelGraph([a, b, c], [("a", "b"), ("b", "c")])
    cliques = maximal_cliques(g)
    assert [[v.name for v in cl] for cl in cliques] == [["a", "b"], ["b", "c"]]


def test_cliques_of_triangle():
    a, b, c = _binary("a"), _binary("b"), _binary("c")
    g = ModelGraph([a, b, c], [("a", "b"), ("b", "c"), ("a", "c")])
    assert [[v.name for v in cl] for cl in maximal_cliques(g)] == [["a", "b", "c"]]


def test_cliques_include_isolated_vertices():
    a, b, c = _binary("a"), _binary("b"), _binary("c")
    g = ModelGraph([a, b, c], [("a", "b")])
    assert [[v.name for v in cl] for cl in maximal_cliques(g)] == [["a", "b"], ["c"]]


def test_cliques_of_empty_graph():
    g = ModelGraph([_binary("a"), _binary("b")])
    assert [[v.name for v in cl] for cl in maximal_cliques(g)] == [["a"], ["b"]]


def _brute_force_cliques(names, edge_set):
    adj = {n: set() for n in names}
    for x, y in edge_set:
        adj[x].add(y)
        adj[y].add(x)
    cliques = []
    for k in range(1, len(names) + 1):
        for combo in itertools.combinations(names, k):
            if all(y in adj[x] for x, y in itertools.combinations(combo, 2)):
                cliques.append(set(combo))
    return sorted(
        (sorted(c) for c in cliques
         if not any(c < d for d in cliques)),
    )


def test_cliques_match_brute_force():
    rng = random.Random(67)
    for _ in range(25):
        n = rng.randint(1, 7)
        names = [f"v{k}" for k in range(n)]
        edges = [pair for pair in itertools.combinations(names, 2)
                 if rng.random() < 0.5]
        g = ModelGraph([_binary(nm) for nm in names], edges)
        got = sorted(sorted(v.name for v in cl) for cl in maximal_cliques(g))
        assert got == _brute_force_cliques(names, edges)


# ------------------------------------------------------------ model json


def test_parse_model_json_graph():
    text = """{
      "variables": [{"name": "a", "arity": 2}, {"name": "b", "arity": 3}],
      "edges": [["a", "b"]]
    }"""
    g = parse_model_json(text)
    assert isinstance(g, ModelGraph)
    assert [v.arity for v in g.vertices] == [2, 3]
    assert g.edges == frozenset({frozenset({"a", "b"})})


def test_parse_model_json_generators():
    text = """{
      "variables": [{"name": "a", "arity": 2}, {"name": "b", "arity": 2},
                    {"name": "c", "arity": 2}],
      "generators": [["a", "b"], ["b", "c"]]
    }"""
    variables, generators = parse_model_json(text)
    assert [v.name for v in variables] == ["a", "b", "c"]
    assert [[v.name for v in gen] for gen in generators] == [["a", "b"], ["b", "c"]]


def test_parse_model_json_pmf():
    text = """{
      "variables": [{"name": "a", "arity": 2, "pmf": ["1/3", "2/3"]}],
      "edges": []
    }"""
    g = parse_model_json(text)
    assert g.vertices[0].pmf == (Fraction(1, 3), Fraction(2, 3))

    def pmf(entries):
        model = '{"variables": [{"name": "a", "arity": 2, "pmf": ' + entries + '}], "edges": []}'
        return parse_model_json(model).vertices[0].pmf

    # decimals, as strings or numbers, are read as written
    assert pmf('["0.1", 0.9]') == (Fraction(1, 10), Fraction(9, 10))
    assert pmf('[0, 1]') == (Fraction(0), Fraction(1))
    # a zero denominator once escaped as a ZeroDivisionError, and booleans
    # were read as 1 and 0
    for entries in ('["1/0", "1"]', '[true, false]', '["x", "1"]'):
        with pytest.raises(InputError):
            pmf(entries)
    # a decimal past the digit limit, named with its variable
    with pytest.raises(InputError, match="variable 'a': pmf entry '1e-10000000'"):
        pmf('["1e-10000000", "1"]')


def test_parse_model_json_errors():
    with pytest.raises(InputError):
        parse_model_json("not json")
    with pytest.raises(InputError):
        parse_model_json('{"edges": []}')
    with pytest.raises(InputError):
        parse_model_json('{"variables": [{"name": "a"}]}')
    with pytest.raises(InputError):
        parse_model_json(
            '{"variables": [{"name": "a", "arity": 2}],'
            ' "edges": [], "generators": []}'
        )
    with pytest.raises(InputError):
        parse_model_json(
            '{"variables": [{"name": "a", "arity": 2}],'
            ' "generators": [["zz"]]}'
        )
    with pytest.raises(InputError):
        parse_model_json(
            '{"variables": [{"name": "a", "arity": 2}], "edges": [["a", "q"]]}'
        )
