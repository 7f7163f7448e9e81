"""Tests for toric models: vanishing ideals, polytopes, log-linear matrices."""

import random

import pytest

from algstat import (
    GREVLEX,
    LEX,
    DiscreteRandomVariable,
    Ideal,
    IntMatrix,
    ModelGraph,
    MonomialOrder,
    NotBinomialIdealError,
    PolyRing,
    ToricModel,
    ideal_contains,
    ideal_equal,
    integer_kernel,
    lattice_span_equal,
    make_loglinear_matrix,
    map_to_ring,
    maximal_cliques,
    parse_polynomial,
    print_polynomial,
    rational_normal_scroll,
    saturate_by_product,
    toric_ideal,
    toric_model,
    toric_polytope,
)


def _ideal(ring, *texts):
    return Ideal(ring, [parse_polynomial(t, ring) for t in texts])


# ------------------------------------------------------------ toric_model


def test_toric_model_accepts_homogeneous_matrix(rnc2_matrix):
    m = toric_model(rnc2_matrix)
    assert not m.homogenized
    assert m.matrix == rnc2_matrix
    assert m.ring().variables == ("p_0", "p_1", "p_2")


def test_toric_model_homogenizes_when_needed():
    m = toric_model(IntMatrix([[0, 1, 2]]))
    assert m.homogenized
    assert m.matrix == IntMatrix([[1, 1, 1], [0, 1, 2]])


def test_toric_model_ones_in_span_without_ones_row():
    # rows sum to the constant vector (3, 3), so no extra row is added
    m = toric_model(IntMatrix([[1, 2], [2, 1]]))
    assert not m.homogenized
    assert m.matrix == IntMatrix([[1, 2], [2, 1]])


def test_toric_model_rejects_negative_entries():
    with pytest.raises(ValueError):
        toric_model(IntMatrix([[1, -1]]))


def test_toric_model_from_graph(chain3_matrix):
    g = ModelGraph(
        [DiscreteRandomVariable(2, name=n) for n in "abc"],
        [("a", "b"), ("b", "c")],
    )
    m = toric_model(g)
    assert m.provenance == "graph"
    assert m.matrix == chain3_matrix


def test_toric_model_passthrough():
    m = toric_model(IntMatrix([[1, 1], [0, 1]]))
    assert toric_model(m) is m


# ------------------------------------------------------------ toric_ideal


def test_toric_ideal_twisted_cubic(rnc3_matrix):
    i = toric_ideal(rnc3_matrix)
    r = i.ring
    expect = _ideal(
        r,
        "p_1^2 - p_0*p_2",
        "p_1*p_2 - p_0*p_3",
        "p_2^2 - p_1*p_3",
    )
    assert ideal_equal(i, expect)


def test_toric_ideal_conic(rnc2_matrix):
    i = toric_ideal(rnc2_matrix)
    assert [print_polynomial(g) for g in i.generators] == ["p_1^2 - p_0*p_2"]


def test_toric_ideal_of_full_space_is_zero(p2_matrix):
    i = toric_ideal(p2_matrix)
    assert i.generators == ()
    assert i.ring.nvars == 3


def test_toric_ideal_independence(indep22_matrix):
    i = toric_ideal(indep22_matrix)
    assert [print_polynomial(g) for g in i.generators] == ["p_1*p_2 - p_0*p_3"]


def test_toric_ideal_binary_chain(chain3_matrix):
    i = toric_ideal(chain3_matrix)
    expect = _ideal(i.ring, "p_1*p_4 - p_0*p_5", "p_3*p_6 - p_2*p_7")
    assert ideal_equal(i, expect)


def test_toric_ideal_generators_are_homogeneous_binomials(corpus):
    for _, matrix in corpus:
        i = toric_ideal(matrix)
        for g in i.generators:
            assert g.is_homogeneous()
            assert len(g.terms) == 2
            coeffs = sorted(c for _, c in g.terms)
            assert coeffs == [-1, 1]
            assert g.leading_coefficient() == 1


def test_toric_ideal_generators_vanish_on_monomial_curve(corpus):
    # each binomial p^a - p^b must satisfy A a = A b
    for _, matrix in corpus:
        i = toric_ideal(matrix)
        for g in i.generators:
            (ma, _), (mb, _) = g.terms
            for row in matrix.entries:
                sa = sum(r * e for r, e in zip(row, ma))
                sb = sum(r * e for r, e in zip(row, mb))
                assert sa == sb


def test_toric_ideal_is_saturated(corpus):
    for _, matrix in corpus:
        i = toric_ideal(matrix)
        again = saturate_by_product(i, list(i.ring.gens()))
        assert ideal_equal(i, again)


def test_toric_ideal_random_matrices():
    rng = random.Random(71)
    for _ in range(10):
        nr = rng.randint(1, 3)
        nc = rng.randint(2, 5)
        matrix = IntMatrix([[rng.randint(0, 3) for _ in range(nc)]
                            for _ in range(nr)])
        i = toric_ideal(matrix)
        model = toric_model(matrix)
        a = model.matrix
        for g in i.generators:
            (ma, _), (mb, _) = g.terms
            for row in a.entries:
                assert sum(r * e for r, e in zip(row, ma)) == \
                    sum(r * e for r, e in zip(row, mb))


def _toric_ideal_in(matrix, ring):
    """toric_ideal's generators put in ring by map_to_ring and made primitive."""
    return [map_to_ring(g, ring).primitive_part() for g in toric_ideal(matrix).generators]


def _toric_output_rule(matrix, ring):
    """toric_ideal's output, written out: the kernel binomials when their
    ideal is already saturated at the coordinates, else the saturation's
    reduced grevlex basis, either one put in ring and made primitive.
    Also returns whether the kernel binomials were kept."""
    work = PolyRing(ring.variables, GREVLEX)
    binomials = [
        work.poly([(tuple(max(e, 0) for e in row), 1), (tuple(max(-e, 0) for e in row), -1)])
        for row in integer_kernel(toric_model(matrix).matrix).entries
    ]
    sat = saturate_by_product(Ideal(work, binomials), work.gens())
    kept = ideal_equal(Ideal(work, binomials), sat)
    gens = binomials if kept else sat.groebner().basis
    return [map_to_ring(g, ring).primitive_part() for g in gens], kept


ORDERS = [LEX, GREVLEX, MonomialOrder.block(1)]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
def test_toric_ideal_output_rule_under_every_order(order):
    # 0/1 matrices: their lattice ideals are often saturated but not
    # reduced in the ring's order, which separates the two halves
    rng = random.Random(71)
    kept = 0
    for _ in range(40):
        nr = rng.randint(2, 3)
        nc = rng.randint(5, 8)
        matrix = IntMatrix([[rng.randint(0, 1) for _ in range(nc)] for _ in range(nr)])
        ring = PolyRing([f"p_{i}" for i in range(toric_model(matrix).ncols)], order)
        expect, saturated = _toric_output_rule(matrix, ring)
        assert _toric_ideal_in(matrix, ring) == expect, matrix
        kept += saturated
    assert 0 < kept < 40  # both halves of the rule ran


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.name)
def test_toric_ideal_keeps_kernel_binomials_only_when_saturated(order, rnc3_matrix,
                                                                chain3_matrix):
    # the twisted cubic's two kernel binomials miss a quadric
    ring = PolyRing([f"p_{i}" for i in range(4)], order)
    expect, kept = _toric_output_rule(rnc3_matrix, ring)
    assert not kept and len(expect) == 3
    assert _toric_ideal_in(rnc3_matrix, ring) == expect
    # the binary 3-chain's kernel binomials generate its toric ideal
    ring = PolyRing([f"p_{i}" for i in range(8)], order)
    expect, kept = _toric_output_rule(chain3_matrix, ring)
    assert kept and len(expect) == integer_kernel(chain3_matrix).nrows
    assert _toric_ideal_in(chain3_matrix, ring) == expect


# ---------------------------------------------------------- toric_polytope


def test_toric_polytope_twisted_cubic(rnc3_matrix):
    out = toric_polytope(toric_ideal(rnc3_matrix))
    assert lattice_span_equal(out, IntMatrix([[1, 1, 1, 1], [-2, -1, 0, 1]]))


def test_toric_polytope_accepts_scaled_binomials():
    r = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    i = _ideal(r, "4*p_0*p_2 - p_1^2")
    out = toric_polytope(i)
    assert lattice_span_equal(out, IntMatrix([[1, 1, 1], [0, 1, 2]]))


def test_toric_polytope_zero_ideal_gives_full_lattice():
    r = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    out = toric_polytope(Ideal(r, []))
    assert lattice_span_equal(out, IntMatrix.identity(3))


def test_toric_polytope_rejects_non_binomial():
    r = PolyRing(("p_0", "p_1", "p_2"), GREVLEX)
    i = _ideal(r, "p_0 + p_1 + p_2")
    with pytest.raises(NotBinomialIdealError):
        toric_polytope(i)


def test_toric_polytope_round_trip(corpus):
    # the recovered row space is the kernel of the kernel of the input
    for _, matrix in corpus:
        model = toric_model(matrix)
        out = toric_polytope(toric_ideal(matrix))
        expect = integer_kernel(integer_kernel(model.matrix))
        assert lattice_span_equal(out, expect)


def test_toric_polytope_then_ideal_round_trip(rnc3_matrix):
    i = toric_ideal(rnc3_matrix)
    out = toric_polytope(i)
    # make the rows nonnegative by adding multiples of the ones vector,
    # which lies in the span; the vanishing ideal only depends on the span
    ones = (1,) * out.ncols
    rows = [ones]
    for k in range(out.nrows):
        row = out.row(k)
        lift = max(0, -min(row))
        rows.append(tuple(e + lift for e in row))
    shifted = IntMatrix(rows)
    assert lattice_span_equal(shifted, IntMatrix(((ones,) + out.entries)))
    again = toric_ideal(shifted)
    assert ideal_equal(i, again)


# ------------------------------------------------------ loglinear matrices


def _binary(name):
    return DiscreteRandomVariable(2, name=name)


def test_loglinear_matrix_binary_chain(chain3_matrix):
    a, b, c = _binary("a"), _binary("b"), _binary("c")
    m = make_loglinear_matrix([(a, b), (b, c)], [a, b, c])
    assert m == chain3_matrix


def test_loglinear_matrix_from_cliques_matches_direct(chain3_matrix):
    g = ModelGraph(
        [_binary("a"), _binary("b"), _binary("c")],
        [("a", "b"), ("b", "c")],
    )
    m = make_loglinear_matrix(maximal_cliques(g), g.vertices)
    assert m == chain3_matrix


def test_loglinear_matrix_single_variable():
    a = DiscreteRandomVariable(3, name="a")
    m = make_loglinear_matrix([(a,)], [a])
    assert m == IntMatrix.identity(3)


def test_loglinear_matrix_independence(indep22_matrix):
    a, b = _binary("a"), _binary("b")
    m = make_loglinear_matrix([(a,), (b,)], [a, b])
    assert m == indep22_matrix


def test_loglinear_matrix_columns_are_indicator_vectors():
    a, b = DiscreteRandomVariable(2, name="a"), DiscreteRandomVariable(3, name="b")
    m = make_loglinear_matrix([(a, b)], [a, b])
    # one generator over all six cells: the matrix is a permutation-free identity
    assert m == IntMatrix.identity(6)


def test_loglinear_matrix_row_group_sums():
    a, b, c = _binary("a"), _binary("b"), _binary("c")
    m = make_loglinear_matrix([(a, b), (b, c)], [a, b, c])
    # each cell lies in exactly one (a,b) level and one (b,c) level
    for j in range(m.ncols):
        col = m.column(j)
        assert sum(col[:4]) == 1
        assert sum(col[4:]) == 1
    # each (a,b) level collects the cells of the free variable c
    for i in range(4):
        assert sum(m.row(i)) == 2


def test_loglinear_matrix_validation():
    a, b = _binary("a"), _binary("b")
    with pytest.raises(ValueError):
        make_loglinear_matrix([(a,)], [a, _binary("a")])
    with pytest.raises(ValueError):
        make_loglinear_matrix([(a, b)], [a])
    with pytest.raises(ValueError):
        make_loglinear_matrix([(a, a)], [a, b])
    with pytest.raises(ValueError):
        make_loglinear_matrix([], [a])
    with pytest.raises(ValueError):
        make_loglinear_matrix([(a,)], [])


# ----------------------------------------------------------------- scrolls


def test_scroll_single_block():
    assert rational_normal_scroll((4,)) == IntMatrix([[1, 1, 1, 1], [0, 1, 2, 3]])
    assert rational_normal_scroll((1,)) == IntMatrix([[1], [0]])


def test_scroll_single_block_spans_like_affine_form():
    s = rational_normal_scroll((4,))
    assert lattice_span_equal(s, IntMatrix([[1, 1, 1, 1], [1, 2, 3, 4]]))


def test_scroll_multi_block_shape():
    s = rational_normal_scroll((2, 2, 3))
    assert s.nrows == 4
    assert s.ncols == 7
    assert s.entries == (
        (1, 1, 1, 1, 1, 1, 1),
        (0, 0, 1, 1, 0, 0, 0),
        (0, 0, 0, 0, 1, 1, 1),
        (0, 1, 0, 1, 0, 1, 2),
    )


def test_scroll_ideal_is_rational_normal_curve():
    # a single block of length d+1 is the degree-d monomial curve
    for d in (2, 3, 4):
        s = rational_normal_scroll((d + 1,))
        i = toric_ideal(s)
        r = i.ring
        p = r.gens()
        expect = []
        for a in range(d - 1):
            for b in range(a + 1, d):
                expect.append(p[a] * p[b + 1] - p[a + 1] * p[b])
        assert ideal_equal(i, Ideal(r, expect))


def test_scroll_blocks_validation():
    with pytest.raises(ValueError):
        rational_normal_scroll(())
    with pytest.raises(ValueError):
        rational_normal_scroll((0,))
    with pytest.raises(ValueError):
        rational_normal_scroll((2, -1))


def test_scroll_ideal_contains_inner_minors():
    # the 2x2 minors of the block-concatenated parameter matrix vanish
    i = toric_ideal(rational_normal_scroll((2, 2)))
    r = i.ring
    assert ideal_contains(i, parse_polynomial("p_0*p_3 - p_1*p_2", r))
