"""Toric models: integer matrices presenting monomial parametrizations.

A toric model is a nonnegative integer matrix A whose columns index
the states of a discrete model; the model is the closure of the image
of the monomial map given by the columns.  Its vanishing ideal is the
toric ideal: the lattice ideal of ker A, saturated at the coordinate
hyperplanes.  Projective geometry needs the all-ones vector in the row
span, so construction homogenizes (prepends a ones row) when it is
missing and records that it did.

Constructors here produce the matrices of the standard families:
log-linear/hierarchical models from generating subsets, graphical
models from maximal cliques, and rational normal scrolls.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import NotBinomialIdealError
from .exactmath import IntMatrix, hnf, integer_kernel
from .groebner import Ideal, saturate_by_product
from .models import DiscreteRandomVariable, ModelGraph, maximal_cliques
from .ring import GREVLEX, PolyRing, Polynomial

__all__ = [
    "ToricModel",
    "toric_model",
    "toric_ideal",
    "toric_polytope",
    "make_loglinear_matrix",
    "rational_normal_scroll",
]


class ToricModel:
    """An integer matrix with the ones vector in its row span."""

    __slots__ = ("matrix", "provenance", "homogenized")

    def __init__(self, matrix: IntMatrix, provenance: str = "matrix", homogenized: bool = False):
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "provenance", provenance)
        object.__setattr__(self, "homogenized", homogenized)

    def __setattr__(self, name, value):
        raise AttributeError("ToricModel is immutable")

    @property
    def ncols(self) -> int:
        return self.matrix.ncols

    def ring(self) -> PolyRing:
        return PolyRing(tuple(f"p_{i}" for i in range(self.ncols)), GREVLEX)

    def __repr__(self):
        tag = ", homogenized" if self.homogenized else ""
        return f"ToricModel({self.matrix.nrows}x{self.matrix.ncols}, {self.provenance}{tag})"


def _rank(m: IntMatrix) -> int:
    h, _ = hnf(m)
    return sum(1 for row in h.entries if any(row))


def _ones_in_row_span(m: IntMatrix) -> bool:
    ones = (1,) * m.ncols
    stacked = IntMatrix(m.entries + (ones,), cols=m.ncols)
    return _rank(stacked) == _rank(m)


def toric_model(source, provenance: str | None = None) -> ToricModel:
    """Build a ToricModel from an integer matrix or a ModelGraph.

    Matrices missing the ones vector in their rational row span are
    homogenized by prepending a ones row (flagged on the result).
    """
    if isinstance(source, ModelGraph):
        cliques = maximal_cliques(source)
        matrix = make_loglinear_matrix(cliques, list(source.vertices))
        return ToricModel(matrix, provenance or "graph", homogenized=False)
    if isinstance(source, ToricModel):
        return source
    if not isinstance(source, IntMatrix):
        source = IntMatrix(source)
    if source.nrows == 0 or source.ncols == 0:
        raise ValueError("toric models need a nonempty matrix")
    if any(e < 0 for row in source.entries for e in row):
        raise ValueError("toric model matrices must be nonnegative")
    if _ones_in_row_span(source):
        return ToricModel(source, provenance or "matrix", homogenized=False)
    ones = (1,) * source.ncols
    return ToricModel(
        IntMatrix((ones,) + source.entries, cols=source.ncols),
        provenance or "matrix",
        homogenized=True,
    )


def _binomial_from_kernel_row(ring: PolyRing, row) -> Polynomial:
    plus = tuple(e if e > 0 else 0 for e in row)
    minus = tuple(-e if e < 0 else 0 for e in row)
    return ring.poly([(plus, 1), (minus, -1)])


def toric_ideal(source, ring: PolyRing | None = None) -> Ideal:
    """The toric ideal of the model presented by ``source``.

    Computed as the lattice ideal of an integer kernel basis of A,
    saturated at all coordinates, in grevlex on the ring's variables:
    the order in which saturate starts from a known basis.  When the
    saturation adds nothing, the kernel binomials themselves are the
    generators; otherwise the saturation's reduced grevlex basis is.
    Either is then put in ``ring``, an optional ring with one variable
    per column (default Q[p_0..p_n], grevlex).

    The saturation's generators are the lattice ideal's reduced basis G
    exactly when it adds nothing: a trivial step returns G as it stands,
    and a nontrivial one gives a strictly larger ideal, whose reduced
    basis is not G.  So comparing with G needs no membership test.
    """
    model = toric_model(source)
    a = model.matrix
    if ring is None:
        ring = model.ring()
    elif ring.nvars != a.ncols:
        raise ValueError(f"ring has {ring.nvars} variables for {a.ncols} columns")
    kernel = integer_kernel(a)
    if kernel.nrows == 0:
        return Ideal(ring, ())
    work = PolyRing(ring.variables, GREVLEX)
    lattice = Ideal(work, [_binomial_from_kernel_row(work, r) for r in kernel.entries])
    gb = lattice.groebner()  # the saturation starts from it
    sat = saturate_by_product(lattice, work.gens())
    gens = lattice.generators if sat.generators == gb.basis else sat.generators
    # the same variables in the same places, so only the order changes
    return Ideal(ring, [ring.poly(g.terms).primitive_part() for g in gens])


def toric_polytope(ideal: Ideal) -> IntMatrix:
    """Lattice of exponents of the monomial parametrization cut out by a binomial ideal.

    Every generator must be a binomial c1*p^a + c2*p^b (nonzero c1,
    c2); only the exponent differences a - b matter.  Returns an
    HNF-reduced basis, as rows, of the lattice orthogonal to all the
    differences.  The zero ideal yields the identity (the full lattice).
    """
    n = ideal.ring.nvars
    diffs = []
    for g in ideal.generators:
        if len(g.terms) != 2:
            raise NotBinomialIdealError(
                f"generator {g} is not a binomial; not a toric/binomial ideal"
            )
        (ma, _), (mb, _) = g.terms
        diffs.append(tuple(x - y for x, y in zip(ma, mb)))
    if not diffs:
        return IntMatrix.identity(n)
    return integer_kernel(IntMatrix(diffs, cols=n))


def make_loglinear_matrix(generators, variables) -> IntMatrix:
    """The 0/1 design matrix of a log-linear (hierarchical) model.

    Columns are the joint states of ``variables`` in lexicographic
    order with the last variable varying fastest.  Rows come in one
    group per generator, indexed by the joint states of that
    generator's variables (in variable order, last fastest); an entry
    is 1 iff the column's restriction matches the row's state.
    """
    variables = list(variables)
    if not variables:
        raise ValueError("log-linear models need at least one variable")
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise ValueError("variable names must be distinct")
    index = {v.name: i for i, v in enumerate(variables)}
    gen_indices = []
    for gen in generators:
        members = list(gen)
        if not members:
            raise ValueError("empty generator")
        idxs = []
        for member in members:
            name = member.name if isinstance(member, DiscreteRandomVariable) else str(member)
            if name not in index:
                raise ValueError(f"generator member {name!r} is not among the variables")
            idxs.append(index[name])
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate variable inside a generator")
        gen_indices.append(sorted(idxs))
    if not gen_indices:
        raise ValueError("log-linear models need at least one generator")

    arities = [v.arity for v in variables]
    columns = list(_joint_states(arities))
    rows = []
    for idxs in gen_indices:
        sub_arities = [arities[i] for i in idxs]
        for state in _joint_states(sub_arities):
            rows.append(
                tuple(
                    1 if all(col[i] == s for i, s in zip(idxs, state)) else 0
                    for col in columns
                )
            )
    return IntMatrix(rows, cols=len(columns))


def _joint_states(arities):
    if not arities:
        yield ()
        return
    head, tail = arities[0], arities[1:]
    for s in range(1, head + 1):
        for rest in _joint_states(tail):
            yield (s,) + rest


def rational_normal_scroll(blocks) -> IntMatrix:
    """The matrix of a rational normal scroll with the given block lengths.

    ``blocks`` = (a_0, .., a_k) produces a (k+2) x (a_0+..+a_k) matrix:
    a ones row, an indicator row for each block past the first, and a
    within-block position row 0..a_i-1.  A single block of length d+1
    is the rational normal curve of degree d.
    """
    blocks = [int(b) for b in blocks]
    if not blocks or any(b < 1 for b in blocks):
        raise ValueError("blocks must be positive lengths")
    total = sum(blocks)
    k = len(blocks) - 1
    rows = [[1] * total]
    offset = 0
    offsets = []
    for b in blocks:
        offsets.append(offset)
        offset += b
    for i in range(1, k + 1):
        row = [0] * total
        for j in range(blocks[i]):
            row[offsets[i] + j] = 1
        rows.append(row)
    height = []
    for b in blocks:
        height.extend(range(b))
    rows.append(height)
    return IntMatrix(rows, cols=total)
