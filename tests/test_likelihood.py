"""Tests for likelihood correspondences and maximum-likelihood degrees."""

import hashlib
import random
from collections import Counter
from fractions import Fraction
from math import prod

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
    integer_kernel,
    krull_dimension,
    lc_ring,
    map_to_ring,
    minors,
    ml_degree,
    parse_polynomial,
    print_polynomial,
    rational_normal_scroll,
    saturate,
    saturate_by_product,
    toric_ideal,
    toric_model,
)
from algstat.likelihood import _modal_count

HW_LC_GENERATORS = [
    "4*p_2*u_0 - p_1*u_1 + 2*p_2*u_1 - 2*p_1*u_2",
    "2*p_1*u_0 - 2*p_0*u_1 + p_1*u_1 - 4*p_0*u_2",
    "p_1^2 - 4*p_0*p_2",
]


# Binary graphical models on x0..x3 past corpus size: (edges, number of
# generators, SHA-256 of the format_ideal text of the correspondence).
# Each digest was taken once from the construction as the toric ideal
# plus the 2x2 minors of A [p u], saturated at sum p, which took about
# 1.5 s on the star and 26 s on the 4-chain (2-vCPU host, Python 3.11).
LARGE_GRAPHS = {
    "binary star": (
        [("x0", "x1"), ("x0", "x2"), ("x0", "x3")],
        75,
        "1a49344376d17d37648f0ef1d262a6aa32ea3fb3da07615a21e675556b5f23a9",
    ),
    "binary 4-chain": (
        [("x0", "x1"), ("x1", "x2"), ("x2", "x3")],
        124,
        "ab71639d29c1e65895ad839a591fbfc6c376ad1df20e46b267ee558bf80f02d8",
    ),
}


def _binary_graph(edges):
    return ModelGraph([DiscreteRandomVariable(2, name=f"x{i}") for i in range(4)], edges)


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
@example(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3], [1, 2, 3, 4]]))  # linearly dependent rows
@example(IntMatrix([[1, 2, 3, 4]]))  # homogenized to the twisted cubic
def test_lc_toric_is_saturated_at_every_coordinate(a):
    # the graph construction, with no saturation, is already saturated at
    # (sum p)(prod p), and it is the ideal of the minors-and-saturations
    # reference
    lc = compute_lc_toric(a, saturation="hyperplane")
    ring = lc.ring
    p = list(ring.gens())[: ring.nvars // 2]
    again = saturate_by_product(lc.ideal(), [sum(p[1:], p[0])] + p)
    assert ideal_equal(lc.ideal(), again)
    assert lc.generators == compute_lc_toric(a, saturation="full").generators


def _toric_relations_by_minors(a, ix, ring, u):
    """I_A plus the 2x2 minors of A * [p u], by polynomial matrix arithmetic."""
    p = ring.gens()[: a.ncols]
    gens = [map_to_ring(g, ring) for g in ix.generators]
    if a.nrows > 1:
        rows = [[sum((c * x for c, x in zip(row, col) if c), ring.zero()) for col in (p, u)]
                for row in a.entries]
        gens.extend(minors(2, rows).generators)
    return gens


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_toric_matrices())
@example(IntMatrix([[0, 1, 1, 2]]))  # one row: no minors
@example(IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3], [1, 2, 3, 4]]))  # linearly dependent rows
@example(IntMatrix([[1, 2, 0], [2, 4, 0], [0, 0, 3]]))  # proportional rows: a zero minor
@example(IntMatrix([[0, 0], [1, 3]]))  # a zero row
def test_toric_relations_are_the_minors_of_a_times_p_u(a):
    # built from integers, generator for generator, in the same order and
    # with the same zero minors dropped
    ring = lc_ring(a.ncols - 1)
    gens = ring.gens()
    p0, p1 = gens[:2]
    ix = Ideal(ring, [p0 * p1 - p0**2])
    u = gens[a.ncols :]
    assert algstat.likelihood._toric_relations(a, ix, ring, u) == _toric_relations_by_minors(a, ix, ring, u)


def test_toric_relations_of_the_corpus_are_the_minors(corpus):
    for name, a in corpus + [("scroll", rational_normal_scroll([2, 2, 3]))]:
        model = toric_model(a)
        n = model.ncols - 1
        ring = lc_ring(n)
        ix = toric_ideal(model)
        u = ring.gens()[n + 1 :]
        built = algstat.likelihood._toric_relations(model.matrix, ix, ring, u)
        assert built == _toric_relations_by_minors(model.matrix, ix, ring, u), name


def test_full_chain_from_known_bases_matches_the_chain_from_generators(corpus):
    # each saturation's output carries its reduced basis, and the next
    # saturation starts from it; starting from the generators instead
    # must give the same basis, element for element
    for name, a in corpus:
        model = toric_model(a)
        n = model.ncols - 1
        ring = lc_ring(n)
        gens = ring.gens()
        j = Ideal(ring, algstat.likelihood._toric_relations(
            model.matrix, toric_ideal(model), ring, gens[n + 1 :]))
        p = list(gens[: n + 1])
        seeded = plain = j
        for f in [sum(p[1:], p[0])] + p:
            seeded = saturate(seeded, f)
            plain = saturate(Ideal(ring, plain.generators), f)
            assert seeded._gb is not None, name
            assert seeded.generators == plain.generators, name
        assert tuple(g.primitive_part() for g in seeded.generators) == (
            compute_lc_toric(a, saturation="full").generators
        ), name


@pytest.mark.parametrize("name", sorted(LARGE_GRAPHS))
def test_large_graph_correspondences_are_pinned(name):
    edges, count, digest = LARGE_GRAPHS[name]
    lc = compute_lc_toric(_binary_graph(edges))
    assert len(lc) == count
    assert hashlib.sha256(format_ideal(lc.ideal()).encode()).hexdigest() == digest


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


def test_one_state_has_no_correspondence_and_no_ml_degree():
    # lc_ring rejects a one-column matrix, and the model check a
    # one-variable ideal; the fiber builders reject both for ml_degree
    one_column = IntMatrix([[1]])
    one_variable = Ideal(PolyRing(("p_0",), GREVLEX), [])
    for call in (compute_lc_toric, ml_degree):
        with pytest.raises(ValueError, match="two states"):
            call(one_column)
    for call in (compute_lc_general, ml_degree):
        with pytest.raises(ValueError, match="two states"):
            call(one_variable)


def test_lc_general_rejects_unit_ideal():
    r = PolyRing(("x", "y"), GREVLEX)
    with pytest.raises(ValueError):
        compute_lc_general(Ideal(r, [parse_polynomial("x - x + 1", r)]))


def _conic_in(names):
    r = PolyRing(names, GREVLEX)
    x, y, z = r.gens()
    return Ideal(r, [x * z - y * y])


@pytest.mark.parametrize(
    "names", [("t", "a", "b"), ("lam_0", "lam_1", "t"), ("t_0", "t_1", "t1_0")]
)
def test_lc_general_takes_any_names_but_the_data(names):
    # the multipliers and the saturation variable get fresh names; the
    # last ring holds the first two names tried for the conic's two
    # multipliers
    reference = compute_lc_general(_conic_in(("p_0", "p_1", "p_2")))
    lc = compute_lc_general(_conic_in(names))
    assert lc.ring.variables == names + ("u_0", "u_1", "u_2")
    rename = dict(zip(reference.ring.variables, lc.ring.variables))
    assert lc.generators == tuple(map_to_ring(g, lc.ring, rename) for g in reference)


def test_lc_general_rejects_the_data_names():
    with pytest.raises(InputError, match="'u_0'"):
        compute_lc_general(_conic_in(("u_0", "u_1", "u_2")))
    with pytest.raises(InputError, match="'u_1'"):
        compute_lc_general(Ideal(PolyRing(("q", "u_1"), GREVLEX), []))


@pytest.mark.parametrize(
    "names", [("t", "a", "b"), ("lam_0", "lam_1", "t"), ("u_0", "u_1", "u_2")]
)
def test_ml_degree_takes_any_names(names):
    assert ml_degree(_conic_in(names)) == 2


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


def _at(g, point):
    """The value of g at a rational point given by one value per ring variable."""
    return sum(c * prod(x**e for x, e in zip(point, m) if e) for m, c in g.terms)


def _rational(rng, lo=1):
    return Fraction(rng.randint(lo, 9), rng.randint(1, 9))


def _toric_data(a, p, rng):
    """u = mu p + v with A v = 0: data whose MLE on the toric model X_A is p."""
    kernel = integer_kernel(a)
    mu = _rational(rng)
    coeffs = [rng.randint(-5, 5) for _ in range(kernel.nrows)]
    return [mu * p[j] + sum(c * kernel[k, j] for k, c in enumerate(coeffs)) for j in range(a.ncols)]


def _lagrange_data(ideal, p, rng):
    """u_i = p_i (mu + sum_j lam_j df_j/dp_i) at a point p of the model ideal's zeros."""
    n = ideal.ring.nvars
    mu = _rational(rng)
    lam = [_rational(rng, -9) for _ in ideal.generators]
    grads = [[g.differentiate(i) for i in range(n)] for g in ideal.generators]
    return [
        p[i] * (mu + sum(l * _at(d[i], p) for l, d in zip(lam, grads))) for i in range(n)
    ]


def test_correspondences_vanish_at_points_built_without_groebner_bases(corpus, hw_ideal):
    # Points (p, u) on the correspondence come from the model alone, with
    # no Groebner basis: p from a parametrization, on the torus, and u of
    # either kind.  For toric input u = mu p + v with A v = 0; for ideal
    # input u_i = p_i (mu + sum_j lam_j df_j/dp_i), where Euler's relation
    # makes sum u / sum p = mu, so p is critical for u.  Both construction
    # paths must vanish at both kinds of point, which catches an ideal too
    # large; its dimension n + 2 catches one too small.  On the large
    # graphs only the toric path runs; their dimension is read off the
    # basis the correspondence keeps, so no basis is recomputed for it.
    rng = random.Random(101)
    conic = IntMatrix([[1, 1, 1], [0, 1, 2]])
    models = [(name, a, toric_ideal(a), [1] * a.ncols, True) for name, a in corpus]
    models.append(("scaled conic", conic, hw_ideal, [1, 2, 1], True))
    for name, (edges, _, _) in LARGE_GRAPHS.items():
        a = toric_model(_binary_graph(edges)).matrix
        models.append((name, a, toric_ideal(a), [1] * a.ncols, False))
    for name, a, ideal, scaling, lagrange in models:
        points = []
        for _ in range(3):
            theta = [_rational(rng) for _ in range(a.nrows)]
            p = [c * prod(t ** a[i, j] for i, t in enumerate(theta)) for j, c in enumerate(scaling)]
            assert not any(_at(g, p) for g in ideal.generators)
            points += [p + _toric_data(a, p, rng), p + _lagrange_data(ideal, p, rng)]
        lcs = [compute_lc_general(ideal)] if lagrange else []
        if scaling == [1] * a.ncols:
            lcs.append(compute_lc_toric(a))
        for lc in lcs:
            for point in points:
                assert not any(_at(g, point) for g in lc.generators), (name, lc.mode)
            assert krull_dimension(lc.ideal().groebner()) == a.ncols + 1, (name, lc.mode)


def test_correspondences_keep_their_reduced_basis(corpus, hw_ideal, monkeypatch):
    # both constructions, and the "full" reference, end with the reduced
    # basis in hand; the LikelihoodIdeal keeps it, so groebner() on its
    # ideal() runs no buchberger, and it is the basis buchberger computes
    # from the generators
    lcs = [compute_lc_general(hw_ideal)]
    for _, a in corpus:
        lcs += [compute_lc_toric(a), compute_lc_toric(a, "full")]
        lcs.append(compute_lc_general(toric_ideal(a)))
    calls = []
    original = algstat.groebner.buchberger

    def spy(ideal, *args):
        calls.append(ideal)
        return original(ideal, *args)

    monkeypatch.setattr(algstat.groebner, "buchberger", spy)
    for lc in lcs:
        ideal = lc.ideal()
        assert ideal.generators == lc.generators and ideal.ring == lc.ring
        gb = ideal.groebner()
        assert calls == [], lc
        assert gb.basis == original(Ideal(lc.ring, lc.generators)).basis, lc
    # a LikelihoodIdeal made without a basis caches none
    assert LikelihoodIdeal(lc.ring, lc.generators, lc.mode).ideal()._gb is None


def test_correspondences_are_ideals_that_hand_over_their_kept_basis(corpus, hw_ideal, monkeypatch):
    # a LikelihoodIdeal is an Ideal, its own ideal(), and groebner()
    # returns the basis its construction ended with, with no buchberger
    lcs = [compute_lc_toric(a) for _, a in corpus] + [compute_lc_general(hw_ideal)]
    bases = [algstat.groebner.buchberger(Ideal(lc.ring, lc.generators)) for lc in lcs]

    def fail(*args):
        raise AssertionError("buchberger ran on a kept basis")

    monkeypatch.setattr(algstat.groebner, "buchberger", fail)
    for lc, expected in zip(lcs, bases):
        assert isinstance(lc, Ideal) and lc.ideal() is lc
        gb = lc.groebner()
        assert gb is lc.groebner() and gb.basis == expected.basis, lc
        assert gb.ring is lc.ring and gb.generators == lc.generators and gb.order == GREVLEX
        assert tuple(g.primitive_part() for g in gb.basis) == lc.generators, lc


def test_lagrange_construction_takes_a_correspondence_as_a_model_ideal(rnc2_matrix):
    # a correspondence is an Ideal in Q[p, u], so the Lagrange path reads
    # it as a model and refuses its variables u_0..u_n as data names
    lc = compute_lc(rnc2_matrix)
    with pytest.raises(InputError, match="data name"):
        compute_lc_general(lc)


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


def _no_fibers(model_input):
    raise AssertionError("a fiber was built before the arguments were checked")


def test_ml_degree_trials_and_range_validation(monkeypatch, hw_ideal):
    with pytest.raises(ValueError):
        ml_degree(hw_ideal, trials=0)
    with pytest.raises(InputError):
        ml_degree(hw_ideal, u_range=(0, 5))
    with pytest.raises(InputError):
        ml_degree(hw_ideal, u_range=(7, 3))
    with pytest.raises(InputError):
        ml_degree(hw_ideal, u_range=(1, "big"))
    with pytest.raises(TypeError):
        ml_degree("not a model")
    # a trial count or seed that is not an int (a bool included) is refused
    # before any fiber is built
    with monkeypatch.context() as patch:
        patch.setattr(algstat.likelihood, "_fibers", _no_fibers)
        for bad in (2.5, True, "3", None):
            with pytest.raises(InputError, match="trials"):
                ml_degree(hw_ideal, trials=bad)
        for bad in (1.5, False, "0"):
            with pytest.raises(InputError, match="seed"):
                ml_degree(hw_ideal, seed=bad)
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


def _full_vote(counts):
    """The vote over every trial: the modal count, the smallest on a tie."""
    if len(counts) > 1 and len(set(counts)) == len(counts):
        raise UnstableCountError(f"all counts differ: {counts}")
    freq = Counter(counts)
    best = max(freq.values())
    return min(v for v, c in freq.items() if c == best)


def _counting_spy(counts):
    ran = []

    def count(t):
        ran.append(t)
        return counts[t]

    return count, ran


@settings(derandomize=True, deadline=None, max_examples=400)
@given(st.integers(1, 7).flatmap(lambda n: st.lists(st.integers(0, 5), min_size=n, max_size=n)))
@example([2, 5, 2])
@example([4, 1, 1, 4])
@example([1, 2, 3])
@example([3, 3, 0, 0, 0])
def test_modal_count_equals_the_full_vote(counts):
    count, ran = _counting_spy(counts)
    try:
        expected = _full_vote(counts)
    except UnstableCountError:
        with pytest.raises(UnstableCountError):
            _modal_count(len(counts), count)
        assert ran == list(range(len(counts)))
    else:
        assert _modal_count(len(counts), count) == expected
        assert ran == list(range(len(ran)))


@pytest.mark.parametrize("counts, runs", [
    ([3, 3, 0], 2),
    ([2, 5, 2], 3),
    ([4, 1, 1, 4], 4),
    ([7], 1),
])
def test_modal_count_runs_only_the_trials_that_can_matter(counts, runs):
    count, ran = _counting_spy(counts)
    assert _modal_count(len(counts), count) == _full_vote(counts)
    assert ran == list(range(runs))


def test_ml_degree_stops_once_two_trials_agree(monkeypatch, hw_ideal):
    lc = compute_lc(hw_ideal)
    calls = []
    quotient_dimension = algstat.likelihood.quotient_dimension

    def spy(gb):
        calls.append(gb)
        return quotient_dimension(gb)

    monkeypatch.setattr(algstat.likelihood, "quotient_dimension", spy)
    assert ml_degree(lc) == 1
    assert len(calls) == 2


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
