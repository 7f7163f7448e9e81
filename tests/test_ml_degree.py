"""ML degrees from the data fiber: agreement with the correspondence's fiber, and oracles."""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from algstat import (
    GREVLEX,
    DiscreteRandomVariable,
    Ideal,
    IntMatrix,
    LikelihoodIdeal,
    ModelGraph,
    MonomialOrder,
    PolyMatrix,
    PolyRing,
    SplitMix64,
    compute_lc,
    format_ideal,
    ideal_equal,
    intersect,
    map_to_ring,
    minors,
    ml_degree,
    mul_int_poly,
    rational_normal_scroll,
    run,
    saturate_by_product,
    toric_ideal,
    toric_model,
)
from algstat.groebner import _eliminate_auxiliary
from algstat.likelihood import _fibers, _lagrange_relations

SEEDS = (0, 3, 11)


def _ring(n):
    return PolyRing(tuple(f"p_{i}" for i in range(n + 1)), GREVLEX)


def _hypersurface(n, build):
    """The ideal of one polynomial, built from p_0..p_n with Python operators."""
    r = _ring(n)
    return Ideal(r, [build(*r.gens())])


def _product(a, b):
    """The Segre product [A (x) 1; 1 (x) B] of two models, B's ones row dropped."""
    rows = [[a[i, j] for j in range(a.ncols) for _ in range(b.ncols)] for i in range(a.nrows)]
    rows += [[b[i, k] for _ in range(a.ncols) for k in range(b.ncols)] for i in range(1, b.nrows)]
    return IntMatrix(rows)


def _assert_matches_correspondence(model):
    """The fiber-first count equals the count on the full correspondence's fiber."""
    lc = compute_lc(model)
    for seed in SEEDS:
        assert ml_degree(model, seed=seed) == ml_degree(lc, seed=seed), seed


# ------------------------------------------------- against the correspondence


def test_toric_matches_correspondence(corpus):
    for _, a in corpus:
        _assert_matches_correspondence(a)


def test_scroll_matches_correspondence():
    _assert_matches_correspondence(rational_normal_scroll((2, 2, 3)))


def test_graph_matches_correspondence():
    # two independent variables, with 2 and 3 states
    g = ModelGraph([DiscreteRandomVariable(2, name="a"), DiscreteRandomVariable(3, name="b")])
    _assert_matches_correspondence(g)
    assert ml_degree(g) == 1


@pytest.mark.parametrize("name", ["segre-line", "plane", "conic", "independence-2x2"])
def test_toric_ideal_matches_correspondence(corpus, name):
    ix = toric_ideal(dict(corpus)[name])
    for gens in (ix.generators, ix.generators[::-1]):
        _assert_matches_correspondence(Ideal(ix.ring, gens))


@pytest.mark.parametrize("build, expected", [
    (lambda p0, p1, p2: 4 * p0 * p2 - p1 ** 2, 1),
    (lambda p0, p1, p2: (p1 - p2) ** 2 * p2 - (p0 - p2) ** 2 * (p0 + p2), 6),
    (lambda p0, p1, p2: (p1 - p2) ** 3 - (p0 - p2) ** 2 * p2, 6),
    (lambda p0, p1, p2: (p0 * p2 - p1 ** 2) * (p0 - 2 * p1 + 3 * p2), 4),
    (lambda p0, p1, p2: p0, 0),
    (lambda p0, p1, p2: (p0 - p1) ** 2, 0),
    # components inside a coordinate hyperplane: the fiber route counts
    # over the model ideal itself, not over its saturation
    (lambda p0, p1, p2: p0 * (4 * p0 * p2 - p1 ** 2), 1),
    (lambda p0, p1, p2: p0 ** 2 * (4 * p0 * p2 - p1 ** 2), 1),
    (lambda p0, p1, p2: p1 * (p0 * p2 - p1 ** 2) * (p0 - 2 * p1 + 3 * p2), 4),
], ids=["scaled-conic", "nodal-cubic", "cuspidal-cubic", "reducible", "off-torus", "double-line",
        "conic-and-line", "conic-and-double-line", "reducible-and-line"])
def test_hypersurface_matches_correspondence(build, expected):
    model = _hypersurface(2, build)
    _assert_matches_correspondence(model)
    assert ml_degree(model) == expected


def test_empty_ideal_matches_correspondence():
    model = Ideal(_ring(2), [])
    _assert_matches_correspondence(model)
    assert ml_degree(model) == 1


@st.composite
def _matrices_with_ones_row(draw):
    rows = draw(st.integers(0, 2))
    cols = draw(st.integers(2, 5))
    entries = st.lists(st.integers(0, 3), min_size=cols, max_size=cols)
    return IntMatrix([[1] * cols] + draw(st.lists(entries, min_size=rows, max_size=rows)))


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_matrices_with_ones_row(), st.integers(0, 2 ** 31))
def test_random_toric_matches_correspondence(a, seed):
    assert ml_degree(a, seed=seed) == ml_degree(compute_lc(a), seed=seed)


# ------------------------------------------- fibers that need no saturation


def _is_saturated(fiber):
    """Whether saturating at every coordinate leaves the fiber as it is."""
    return ideal_equal(fiber, saturate_by_product(fiber, fiber.ring.gens()))


def _seeded_data(seed, n1):
    rng = SplitMix64(seed)
    return [rng.next_int(1, 1000) for _ in range(n1)]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_matrices_with_ones_row(), st.integers(0, 2 ** 31))
def test_toric_fiber_is_saturated(a, seed):
    # positive data keeps every point of the fiber off the coordinate
    # hyperplanes, so the toric route counts its fiber as it stands
    n1, fiber = _fibers(a)
    assert _is_saturated(fiber(_seeded_data(seed, n1)))


def test_lagrange_fiber_is_saturated(corpus):
    for _, a in corpus:
        n1, fiber = _fibers(toric_ideal(a))
        for seed in SEEDS:
            assert _is_saturated(fiber(_seeded_data(seed, n1)))


def test_toric_fiber_with_a_zero_datum_is_not_saturated(rnc2_matrix):
    # with u* = (0, 0, 5) the point (0, 0, 1) of the conic lies on the
    # fiber, and saturating at p_0 removes it
    _, fiber = _fibers(rnc2_matrix)
    assert not _is_saturated(fiber([0, 0, 5]))


def test_precomputed_fiber_is_saturated(rnc2_matrix):
    # a correspondence with an extra component on p_0 = 0: only the
    # saturation of the precomputed route at the coordinates drops it
    lc = compute_lc(rnc2_matrix)
    p = lc.ring.gens()
    extra = intersect(lc.ideal(), Ideal(lc.ring, [p[0], p[1] - p[2]]))
    padded = LikelihoodIdeal(lc.ring, extra.generators, "toric")
    for seed in SEEDS:
        assert ml_degree(padded, seed=seed) == 2, seed


# ------------------------------------- fibers against their old constructions


def _independence(r, c):
    return ModelGraph([DiscreteRandomVariable(r, name="a"), DiscreteRandomVariable(c, name="b")])


def _toric_fiber_by_minors(model, data):
    """I_A plus the 2x2 minors of A * [p | u*] plus the chart sum p - 1."""
    a = toric_model(model).matrix
    ix = toric_ideal(model)
    ring = ix.ring
    p = ring.gens()
    gens = list(ix.generators) + [ring.sum_of_gens() - 1]
    if a.nrows > 1:
        m = PolyMatrix([[p[j], ring.constant(data[j])] for j in range(a.ncols)], ring)
        gens += minors(2, mul_int_poly(a, m)).generators
    return Ideal(ring, gens)


def _assert_toric_fiber_by_minors(model):
    n1, fiber = _fibers(model)
    for seed in SEEDS:
        data = _seeded_data(seed, n1)
        new = fiber(data)
        assert new.groebner().basis == _toric_fiber_by_minors(model, data).groebner().basis, seed


def test_toric_fiber_is_the_fiber_of_the_minors(corpus):
    # s * (a . p) - a . u* for each row a of A, s = sum u*, generate the
    # minors and the chart, and the minors and the chart generate them
    models = [a for _, a in corpus]
    models += [rational_normal_scroll((2, 2, 3)), _independence(2, 3), _independence(3, 3)]
    for model in models:
        _assert_toric_fiber_by_minors(model)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(_matrices_with_ones_row())
def test_random_toric_fiber_is_the_fiber_of_the_minors(a):
    _assert_toric_fiber_by_minors(a)


def _gradient_relations(model, ring, lam, u):
    """u_i - p_i * sum_j lam_j df_j/dp_i with f_0 = sum p, by Polynomial arithmetic."""
    p = [ring.gen(name) for name in model.ring.variables]
    fs = [sum(p[1:], p[0])] + [map_to_ring(g, ring) for g in model.generators]
    out = []
    for name, p_i, u_i in zip(model.ring.variables, p, u):
        grad = ring.zero()
        for lam_j, f in zip(lam, fs):
            grad = grad + lam_j * f.differentiate(name)
        out.append(u_i - p_i * grad)
    return out


def _lagrange_fiber_with_lambda_0(model, data):
    """The fiber with r + 1 multipliers, lam_0 among them, eliminated."""
    p_ring = PolyRing(model.ring.variables, GREVLEX)

    def build(lam, p):
        ring = p[0].ring
        gens = [map_to_ring(g, ring) for g in model.generators]
        return gens + _gradient_relations(model, ring, lam, data) + [sum(p[1:], p[0]) - 1]

    return _eliminate_auxiliary(p_ring, len(model.generators) + 1, build)


def _lagrange_models(corpus):
    """The corpus toric ideals in both generator orders, and hypersurfaces."""
    out = []
    for _, a in corpus:
        ix = toric_ideal(a)
        out += [Ideal(ix.ring, ix.generators), Ideal(ix.ring, ix.generators[::-1])]
    for build in (
        lambda p0, p1, p2: 4 * p0 * p2 - p1 ** 2,
        lambda p0, p1, p2: 9 * p0 * p2 - 7 * p1 ** 2,
        lambda p0, p1, p2: (p1 - p2) ** 2 * p2 - (p0 - p2) ** 2 * (p0 + p2),
        lambda p0, p1, p2: (p1 - p2) ** 3 - (p0 - p2) ** 2 * p2,
        lambda p0, p1, p2: (p0 - p1) ** 2,
        lambda p0, p1, p2: p0,
    ):
        out.append(_hypersurface(2, build))
    out.append(Ideal(_ring(2), []))
    return out


def test_lagrange_fiber_fixes_lambda_0(corpus):
    # summing the relations gives sum u* - lam_0 modulo the model ideal
    # and the chart (Euler's relation), so lam_0 = sum u* loses nothing
    for model in _lagrange_models(corpus):
        n1, fiber = _fibers(model)
        for seed in SEEDS:
            data = _seeded_data(seed, n1)
            expected = _lagrange_fiber_with_lambda_0(model, data).groebner().basis
            assert fiber(data).groebner().basis == expected, (model, seed)


def test_lagrange_relations_match_the_gradient_formula(corpus):
    # the correspondence's relations, with lam_0 and u as variables, and a
    # fiber's, with lam_0 = sum u* and u = u* as integers
    for model in _lagrange_models(corpus):
        r = len(model.generators)
        names = model.ring.variables
        ring = PolyRing(
            tuple(f"t_{j}" for j in range(r + 1)) + names + tuple(f"u_{i}" for i in range(len(names))),
            MonomialOrder.block(r + 1),
        )
        gens = ring.gens()
        lam, u = gens[: r + 1], gens[r + 1 + len(names) :]
        assert _lagrange_relations(model, ring, lam[0], lam[1:], u) == _gradient_relations(
            model, ring, lam, u
        ), model
        data = _seeded_data(5, len(names))
        s = ring.constant(sum(data))
        assert _lagrange_relations(model, ring, sum(data), lam[1:], data) == _gradient_relations(
            model, ring, (s,) + lam[1:], data
        ), model


# ---------------------------------------------------------------- oracles


def test_twisted_cubic_ideal_in_every_generator_order(rnc3_matrix):
    # the Lagrange correspondence of this ideal takes seconds to minutes,
    # depending on the order; its fiber does not
    ix = toric_ideal(rnc3_matrix)
    for order in itertools.permutations(ix.generators):
        assert ml_degree(Ideal(ix.ring, order)) == 3


@pytest.mark.parametrize("left, right, expected", [
    ("conic", "segre-line", 2),
    ("twisted-cubic", "segre-line", 3),
    ("conic", "conic", 4),
])
def test_ml_degrees_multiply_on_products(corpus, left, right, expected):
    models = dict(corpus)
    a, b = models[left], models[right]
    assert ml_degree(a) * ml_degree(b) == expected
    assert ml_degree(_product(a, b)) == expected


@pytest.mark.parametrize("n, build, expected", [
    (2, lambda p0, p1, p2: 9 * p0 * p2 - 7 * p1 ** 2, 2),
    (2, lambda p0, p1, p2: 4 * p0 * p2 - p1 ** 2, 1),
    (3, lambda p0, p1, p2, p3: 6 * p0 * p3 - 35 * p1 * p2, 2),
    (3, lambda p0, p1, p2, p3: p0 * p3 - p1 * p2, 1),
])
def test_scaled_hypersurfaces(n, build, expected):
    # a generic scaling has ML degree equal to the degree; these two
    # unscaled-looking models lie on the principal A-determinant
    assert ml_degree(_hypersurface(n, build)) == expected


def _is_chordal(n, edges):
    """Chordality by maximum-cardinality search (Tarjan and Yannakakis, 1984).

    The search visits the vertices in the reverse of a perfect elimination
    order whenever the graph has one, and a graph is chordal exactly when
    it has one: each vertex's neighbours visited before it form a clique.
    """
    adj = [set() for _ in range(n)]
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    order, weight = [], [0] * n
    for _ in range(n):
        v = max((u for u in range(n) if u not in order), key=lambda u: weight[u])
        for u in adj[v]:
            weight[u] += 1
        order.append(v)
    for i, v in enumerate(order):
        before = adj[v].intersection(order[:i])
        if any(b not in adj[a] for a, b in itertools.combinations(before, 2)):
            return False
    return True


def _graphs_up_to_isomorphism(n):
    """One edge list per isomorphism class of graphs on n labelled vertices."""
    pairs = list(itertools.combinations(range(n), 2))
    classes = {}
    for k in range(len(pairs) + 1):
        for edges in itertools.combinations(pairs, k):
            key = min(
                tuple(sorted(tuple(sorted((p[a], p[b]))) for a, b in edges))
                for p in itertools.permutations(range(n))
            )
            classes.setdefault(key, edges)
    return list(classes.values())


def test_chordal_graphs_have_ml_degree_one():
    # Geiger, Meek and Sturmfels, "On the toric algebra of graphical
    # models" (2006): a graphical model has ML degree 1 exactly when its
    # graph is chordal.  All 11 graphs on four binary vertices; the
    # 4-cycle's value in this engine is not checked against a published
    # one, so only that it exceeds 1.
    graphs = _graphs_up_to_isomorphism(4)
    assert len(graphs) == 11
    names = "abcd"
    chordal = 0
    for edges in graphs:
        g = ModelGraph(
            [DiscreteRandomVariable(2, name=v) for v in names],
            [(names[a], names[b]) for a, b in edges],
        )
        if _is_chordal(4, edges):
            chordal += 1
            assert ml_degree(g) == 1, edges
        else:
            assert ml_degree(g) > 1, edges
    assert chordal == 10
    assert not _is_chordal(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert _is_chordal(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2), (0, 3)])


@pytest.mark.parametrize("name, expected", [("binary-3-chain", "1"), ("twisted-cubic", "3")])
def test_cli_ml_degree_of_ideal(capsys, corpus, name, expected):
    text = format_ideal(toric_ideal(dict(corpus)[name]))
    code = run(["ml-degree", "--ideal", ";".join(text.splitlines()), "--inline"])
    assert code == 0
    assert capsys.readouterr().out == f"{expected}\n"
