"""Tests for likelihood correspondences and maximum-likelihood degrees."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import algstat.groebner
import algstat.likelihood
from algstat import (
    GREVLEX,
    DegenerateFiberError,
    Ideal,
    InputError,
    IntMatrix,
    LikelihoodIdeal,
    ModelGraph,
    DiscreteRandomVariable,
    PolyRing,
    UnstableCountError,
    compute_lc,
    compute_lc_general,
    compute_lc_toric,
    format_ideal,
    ideal_contains,
    ideal_equal,
    lc_ring,
    map_to_ring,
    ml_degree,
    parse_polynomial,
    print_polynomial,
    saturate_by_product,
    toric_ideal,
    toric_model,
)

HW_LC_GENERATORS = [
    "4*p_2*u_0 - p_1*u_1 + 2*p_2*u_1 - 2*p_1*u_2",
    "2*p_1*u_0 - 2*p_0*u_1 + p_1*u_1 - 4*p_0*u_2",
    "p_1^2 - 4*p_0*p_2",
]


def _bidegree(poly, n1):
    degs = {(sum(m[:n1]), sum(m[n1:])) for m, _ in poly.terms}
    assert len(degs) == 1
    return degs.pop()


# ----------------------------------------------------------------- lc_ring


def test_lc_ring_layout():
    r = lc_ring(2)
    assert r.variables == ("p_0", "p_1", "p_2", "u_0", "u_1", "u_2")
    assert r.order == GREVLEX
    assert lc_ring(1).nvars == 4


def test_lc_ring_needs_two_states():
    with pytest.raises(ValueError):
        lc_ring(0)


# ------------------------------------------------------------- toric path


def test_lc_toric_segre_line(p1_matrix):
    lc = compute_lc_toric(p1_matrix)
    assert [print_polynomial(g) for g in lc.generators] == ["p_1*u_0 - p_0*u_1"]
    assert lc.mode == "toric"


def test_lc_toric_conic_agrees_with_general(rnc2_matrix):
    lt = compute_lc_toric(rnc2_matrix)
    lg = compute_lc_general(toric_ideal(rnc2_matrix))
    assert ideal_equal(lt.ideal(), lg.ideal())


def test_lc_toric_hyperplane_mode(rnc2_matrix):
    lh = compute_lc_toric(rnc2_matrix, saturation="hyperplane")
    lt = compute_lc_toric(rnc2_matrix, saturation="full")
    assert ideal_equal(lt.ideal(), lh.ideal())


def test_lc_toric_one_row_matrix_matches_lagrange():
    # a one-row matrix has no 2x2 minors: the correspondence is I_A alone
    a = IntMatrix([[1, 1, 1]])
    lt = compute_lc_toric(a)
    lg = compute_lc_general(toric_ideal(a))
    assert lt.ring == lg.ring
    assert [print_polynomial(g) for g in lt.generators] == ["p_1 - p_2", "p_0 - p_2"]
    assert lt.generators == lg.generators
    assert ml_degree(a) == 1


@st.composite
def _toric_matrices(draw):
    rows = draw(st.integers(1, 3))
    cols = draw(st.integers(2, 4))
    entries = st.lists(st.integers(0, 3), min_size=cols, max_size=cols)
    return IntMatrix(draw(st.lists(entries, min_size=rows, max_size=rows)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_toric_matrices())
@example(IntMatrix([[0, 1, 1, 2]]))
@example(IntMatrix([[0, 0, 1, 1], [0, 1, 0, 1]]))
def test_lc_toric_is_saturated_at_every_coordinate(a):
    # one saturation at sum p already gives (sum p)(prod p)-saturation
    lc = compute_lc_toric(a, saturation="hyperplane")
    ring = lc.ring
    p = list(ring.gens())[: ring.nvars // 2]
    again = saturate_by_product(lc.ideal(), [sum(p[1:], p[0])] + p)
    assert ideal_equal(lc.ideal(), again)
    assert lc.generators == compute_lc_toric(a, saturation="full").generators


def test_lc_toric_rejects_unknown_mode(p1_matrix):
    with pytest.raises(InputError):
        compute_lc_toric(p1_matrix, saturation="partial")


def test_lc_toric_accepts_graph(p1_matrix):
    g = ModelGraph([DiscreteRandomVariable(2, name="a")])
    lc = compute_lc_toric(g)
    assert ideal_equal(lc.ideal(), compute_lc_toric(p1_matrix).ideal())


def test_lc_toric_generators_are_bihomogeneous(rnc3_matrix):
    lc = compute_lc_toric(rnc3_matrix)
    n1 = lc.ring.nvars // 2
    for g in lc.generators:
        _bidegree(g, n1)


def test_lc_toric_contains_model_ideal(rnc3_matrix):
    lc = compute_lc_toric(rnc3_matrix)
    model = toric_ideal(rnc3_matrix)
    full = lc.ideal()
    for g in model.generators:
        assert ideal_contains(full, map_to_ring(g, lc.ring))


def test_lc_toric_generators_sign_normalized(indep22_matrix):
    lc = compute_lc_toric(indep22_matrix)
    for g in lc.generators:
        assert g.leading_coefficient() > 0
        # integer primitive form: coefficient gcd is 1
        coeffs = [c for _, c in g.terms]
        assert all(c.denominator == 1 for c in coeffs)


# ------------------------------------------------------------ general path


def test_lc_general_scaled_conic(hw_ideal):
    lc = compute_lc_general(hw_ideal)
    assert [print_polynomial(g) for g in lc.generators] == HW_LC_GENERATORS
    assert lc.mode == "lagrange"
    assert lc.ring.variables == ("p_0", "p_1", "p_2", "u_0", "u_1", "u_2")


def test_lc_general_zero_ideal_on_two_states():
    r = PolyRing(("p_0", "p_1"), GREVLEX)
    lc = compute_lc_general(Ideal(r, []))
    assert [print_polynomial(g) for g in lc.generators] == ["p_1*u_0 - p_0*u_1"]


def test_lc_general_keeps_input_names():
    r = PolyRing(("x", "y", "z"), GREVLEX)
    i = Ideal(r, [parse_polynomial("4*x*z - y^2", r)])
    lc = compute_lc_general(i)
    assert lc.ring.variables == ("x", "y", "z", "u_0", "u_1", "u_2")


def test_lc_general_rejects_inhomogeneous():
    r = PolyRing(("x", "y"), GREVLEX)
    with pytest.raises(ValueError):
        compute_lc_general(Ideal(r, [parse_polynomial("x^2 - y", r)]))


def test_lc_general_rejects_unit_ideal():
    r = PolyRing(("x", "y"), GREVLEX)
    with pytest.raises(ValueError):
        compute_lc_general(Ideal(r, [parse_polynomial("x - x + 1", r)]))


def test_lc_general_rejects_reserved_names():
    r = PolyRing(("u_0", "u_1"), GREVLEX)
    with pytest.raises(InputError):
        compute_lc_general(Ideal(r, []))
    r2 = PolyRing(("lam_0", "q"), GREVLEX)
    with pytest.raises(InputError):
        compute_lc_general(Ideal(r2, []))
    r3 = PolyRing(("t", "q"), GREVLEX)
    with pytest.raises(InputError):
        compute_lc_general(Ideal(r3, []))


def test_lc_general_singular_saturation_noop_on_conic(hw_ideal):
    plain = compute_lc_general(hw_ideal)
    extra = compute_lc_general(hw_ideal, saturate_singular=True)
    assert ideal_equal(plain.ideal(), extra.ideal())


def _nodal_cubic():
    # a plane cubic with its node at (1:1:1), away from the coordinate lines
    r = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    p0, p1, p2 = r.gens()
    return Ideal(r, [(p1 - p2) ** 2 * p2 - (p0 - p2) ** 2 * (p0 + p2)])


def test_ml_degree_of_singular_model():
    # independent count: along the parametrization (t^2 - 1 : t^3 - 2t + 1 : 1)
    # the log-likelihood's derivative has 7 roots for generic u, and one of
    # them, t = 1, is the excluded point (0 : 0 : 1)
    assert ml_degree(_nodal_cubic()) == 6


def test_lc_general_singular_saturation_keeps_prime_model():
    # the model ideal is prime, so saturating it at the Jacobian's minors
    # drops no component, even though the curve has a singular point
    plain = compute_lc_general(_nodal_cubic())
    extra = compute_lc_general(_nodal_cubic(), saturate_singular=True)
    assert plain.ring == extra.ring
    assert plain.generators == extra.generators


def test_lc_general_singular_saturation_rejects_double_line():
    # every component of a non-reduced ideal lies where its Jacobian drops rank
    r = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    double_line = Ideal(r, [parse_polynomial("p_0^2 - 2*p_0*p_1 + p_1^2", r)])
    with pytest.raises(ValueError, match="pass the radical"):
        compute_lc_general(double_line, saturate_singular=True)


def test_lc_general_model_outside_the_torus():
    # the line p_0 = 0 misses the torus: no critical points, with or without
    # singular saturation
    r = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    model = Ideal(r, [r.gen(0)])
    for singular in (False, True):
        lc = compute_lc_general(model, singular)
        assert [print_polynomial(g) for g in lc.generators] == ["1"]
    assert ml_degree(model) == 0


@pytest.mark.parametrize("texts", [
    ("p_0 - p_1", "p_2 - p_3"),
    ("p_0*p_3 - p_1*p_2", "p_0 - p_1"),
])
def test_lc_general_ignores_generator_order(texts):
    r = PolyRing(tuple(f"p_{i}" for i in range(4)), GREVLEX)
    gens = [parse_polynomial(t, r) for t in texts]
    forward = compute_lc_general(Ideal(r, gens))
    backward = compute_lc_general(Ideal(r, gens[::-1]))
    assert format_ideal(forward.ideal()) == format_ideal(backward.ideal())


def test_lc_general_mle_zeroes_generators(hw_ideal):
    # closed form for the scaled conic: p = ((2a+b)^2, 2(2a+b)(b+2c), (b+2c)^2)
    lc = compute_lc_general(hw_ideal)
    rng = random.Random(73)
    for _ in range(25):
        ua, ub, uc = (rng.randint(1, 100) for _ in range(3))
        total = 2 * (ua + ub + uc)
        pa = Fraction((2 * ua + ub) ** 2, total ** 2)
        pb = Fraction(2 * (2 * ua + ub) * (ub + 2 * uc), total ** 2)
        pc = Fraction((ub + 2 * uc) ** 2, total ** 2)
        assert pa + pb + pc == 1
        values = {
            "p_0": pa, "p_1": pb, "p_2": pc,
            "u_0": ua, "u_1": ub, "u_2": uc,
        }
        for g in lc.generators:
            assert g.substitute(values).is_zero()


# ---------------------------------------------------------------- dispatch


def test_compute_lc_dispatch(p1_matrix):
    by_matrix = compute_lc(p1_matrix)
    assert by_matrix.mode == "toric"
    by_model = compute_lc(toric_model(p1_matrix))
    assert ideal_equal(by_matrix.ideal(), by_model.ideal())
    r = PolyRing(("p_0", "p_1"), GREVLEX)
    by_ideal = compute_lc(Ideal(r, []))
    assert by_ideal.mode == "lagrange"
    assert ideal_equal(by_matrix.ideal(), by_ideal.ideal())
    again = compute_lc(by_matrix)
    assert again is by_matrix


def test_compute_lc_dispatch_graph():
    g = ModelGraph(
        [DiscreteRandomVariable(2, name=n) for n in "ab"],
        [("a", "b")],
    )
    lc = compute_lc(g)
    assert lc.mode == "toric"
    assert lc.ring.nvars == 8


def test_compute_lc_rejects_bad_combinations(p1_matrix, hw_ideal):
    with pytest.raises(InputError):
        compute_lc(p1_matrix, saturate_singular=True)
    with pytest.raises(TypeError):
        compute_lc("not a model")


def test_compute_lc_takes_saturate_singular_by_keyword(hw_ideal):
    # a stale positional saturation mode must not turn on singular saturation
    with pytest.raises(TypeError):
        compute_lc(hw_ideal, True)
    with pytest.raises(TypeError):
        compute_lc(hw_ideal, "full")
    assert not hasattr(compute_lc(hw_ideal), "saturation")


def test_likelihood_ideal_container(hw_ideal):
    lc = compute_lc(hw_ideal)
    assert len(lc) == 3
    assert list(lc) == list(lc.generators)
    assert lc.ideal().ring is lc.ring
    assert "lagrange" in repr(lc)


# --------------------------------------------------------------- ml degree


def test_ml_degree_scaled_conic(hw_ideal):
    for seed in (0, 1, 7, 42, 2026):
        assert ml_degree(hw_ideal, seed=seed) == 1


def test_ml_degree_full_simplex():
    for n in (1, 2, 3):
        r = PolyRing(tuple(f"p_{i}" for i in range(n + 1)), GREVLEX)
        assert ml_degree(Ideal(r, [])) == 1


def test_ml_degree_independence(indep22_matrix):
    assert ml_degree(indep22_matrix) == 1
    assert ml_degree(indep22_matrix, seed=31) == 1


def test_ml_degree_accepts_precomputed(hw_ideal):
    lc = compute_lc(hw_ideal)
    assert ml_degree(lc) == 1


def test_ml_degree_trials_and_range_validation(hw_ideal):
    with pytest.raises(ValueError):
        ml_degree(hw_ideal, trials=0)
    with pytest.raises(InputError):
        ml_degree(hw_ideal, u_range=(0, 5))
    with pytest.raises(InputError):
        ml_degree(hw_ideal, u_range=(7, 3))
    with pytest.raises(InputError):
        ml_degree(hw_ideal, u_range=(1, "big"))
    assert ml_degree(hw_ideal, trials=1, u_range=(5, 5)) == 1


def test_ml_degree_rejects_wide_range_before_any_work(monkeypatch, hw_ideal, rnc3_matrix):
    def fail(*args, **kwargs):
        raise AssertionError("Groebner work ran before the range was checked")

    # the first step of each route (toric ideal, small-ring saturation, any
    # Groebner basis) and the correspondence itself all fail if reached
    monkeypatch.setattr(algstat.likelihood, "compute_lc", fail)
    monkeypatch.setattr(algstat.likelihood, "toric_ideal", fail)
    monkeypatch.setattr(algstat.likelihood, "saturate_by_product", fail)
    monkeypatch.setattr(algstat.groebner, "buchberger", fail)
    for model in (hw_ideal, rnc3_matrix):
        with pytest.raises(InputError, match="2\\^64"):
            ml_degree(model, u_range=(1, 10 ** 23))


def test_ml_degree_degenerate_fiber():
    empty = LikelihoodIdeal(lc_ring(1), (), "toric")
    with pytest.raises(DegenerateFiberError):
        ml_degree(empty)


def test_ml_degree_unstable_counts(monkeypatch, hw_ideal):
    lc = compute_lc(hw_ideal)
    fake = iter([1, 2, 3])
    monkeypatch.setattr(
        algstat.likelihood, "quotient_dimension", lambda gb: next(fake)
    )
    with pytest.raises(UnstableCountError):
        ml_degree(lc, trials=3)


def test_ml_degree_majority_vote(monkeypatch, hw_ideal):
    lc = compute_lc(hw_ideal)
    fake = iter([2, 5, 2])
    monkeypatch.setattr(
        algstat.likelihood, "quotient_dimension", lambda gb: next(fake)
    )
    assert ml_degree(lc, trials=3) == 2


def test_ml_degree_tie_takes_smallest(monkeypatch, hw_ideal):
    lc = compute_lc(hw_ideal)
    fake = iter([4, 1, 1, 4])
    monkeypatch.setattr(
        algstat.likelihood, "quotient_dimension", lambda gb: next(fake)
    )
    assert ml_degree(lc, trials=4) == 1


# -------------------------------------------------------------- symmetries


def test_lc_swap_equivariance(p1_matrix):
    # relabeling the two states maps the correspondence to itself
    lc = compute_lc_toric(p1_matrix)
    swap = {"p_0": "p_1", "p_1": "p_0", "u_0": "u_1", "u_1": "u_0"}
    swapped = Ideal(
        lc.ring,
        [map_to_ring(g, lc.ring, rename=swap) for g in lc.generators],
    )
    assert ideal_equal(lc.ideal(), swapped)


def test_lc_is_saturation_fixed(rnc2_matrix):
    lc = compute_lc_toric(rnc2_matrix)
    ring = lc.ring
    n1 = ring.nvars // 2
    p_gens = list(ring.gens())[:n1]
    again = saturate_by_product(lc.ideal(), p_gens)
    assert ideal_equal(lc.ideal(), again)
