"""Likelihood correspondences and maximum-likelihood degrees.

For a projective model of a discrete distribution with coordinates
p_0..p_n and data u_0..u_n, the likelihood correspondence is the
closure of the set of pairs (p, u) where p is a critical point of the
likelihood  prod p_i^{u_i} / (sum p_i)^{sum u_i}  on the model.  Its
ideal lives in Q[p, u] and is computed here two ways:

* a fast path for toric models, as a graph: the toric ideal plus
  A u = lam A p, with the one multiplier lam eliminated, and no
  saturation (that ideal already misses every coordinate hyperplane;
  the "full" reference mode forms the 2x2 minors of A * [p u] instead,
  saturates at sum p and at every p_i, and gives the same ideal);
* a general path for arbitrary homogeneous ideals: Lagrange
  multipliers lambda_j in an elimination block (fresh auxiliary
  variables, see ``groebner``), the critical equations
  u_i = p_i * sum_j lambda_j d f_j / d p_i, saturation, then
  elimination of the multipliers.

The ML degree is the number of critical points for generic data.
``ml_degree`` puts seeded random integer data u* into the construction
before any Groebner work, so it never builds a correspondence: it
counts the fiber over u* in Q[p] on the chart sum p = 1 and takes the
modal count across trials.  The toric fiber is I_A plus the toric
path's relations at u = u* and lam = sum u*, the linear equations
A p = A u* / sum u*, built from integers; the Lagrange fiber has its
multiplier of sum p fixed at sum u*, by Euler's relation.
Neither needs a saturation, as u* >= 1 already keeps every point off
the coordinate hyperplanes (see ``ml_degree``); only a precomputed
``LikelihoodIdeal`` has its own generators substituted and the result
saturated at the coordinates.
"""

from __future__ import annotations

import itertools
from collections import Counter

from .errors import DegenerateFiberError, InputError, UnstableCountError
from .exactmath import IntMatrix
from .groebner import (
    GroebnerBasis,
    Ideal,
    PolyMatrix,
    _eliminate_auxiliary,
    intersect,
    krull_dimension,
    minors,
    quotient_dimension,
    saturate,
    saturate_by_product,
)
from .models import ModelGraph, derive_seed, SplitMix64
from .ring import GREVLEX, Polynomial, PolyRing, map_to_ring
from .toric import ToricModel, toric_ideal, toric_model

__all__ = [
    "LikelihoodIdeal",
    "lc_ring",
    "compute_lc",
    "compute_lc_toric",
    "compute_lc_general",
    "ml_degree",
]

class LikelihoodIdeal:
    """The likelihood correspondence ideal in Q[p_0..p_n, u_0..u_n].

    ``mode`` records which construction produced it ("toric" or
    "lagrange").  Either way the ideal is saturated at (sum p)(prod p):
    the Lagrange path saturates at each factor; the toric path
    eliminates one multiplier from a prime ideal that misses that
    product, which gives the same ideal with no saturation (see
    ``compute_lc_toric``).

    The generators are the primitive integer forms of the ideal's
    reduced grevlex basis.  Both constructions end with that basis in
    hand and pass it as ``basis``, which is kept: ``ideal()`` returns an
    Ideal over the generators with the basis cached, so its
    ``groebner()``, and the ``ideal_contains``, ``ideal_equal`` or
    ``krull_dimension`` work on it, recompute nothing.  Without
    ``basis`` nothing is cached.
    """

    __slots__ = ("ring", "generators", "mode", "_gb")

    def __init__(self, ring: PolyRing, generators, mode: str, basis=None):
        self.ring = ring
        self.generators = tuple(generators)
        self.mode = mode
        self._gb = None
        if basis is not None:
            self._gb = GroebnerBasis(Ideal(ring, self.generators), basis, GREVLEX)

    def ideal(self) -> Ideal:
        """The correspondence as an Ideal over the generators, its basis cached when kept."""
        if self._gb is None:
            return Ideal(self.ring, self.generators)
        return self._gb.ideal

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)

    def __repr__(self):
        return f"LikelihoodIdeal<{len(self.generators)} generators, mode={self.mode}>"


def lc_ring(n: int) -> PolyRing:
    """Q[p_0..p_n, u_0..u_n] with grevlex, p block before u block."""
    if n < 1:
        raise ValueError("need at least two states (n >= 1)")
    names = tuple(f"p_{i}" for i in range(n + 1)) + tuple(f"u_{i}" for i in range(n + 1))
    return PolyRing(names, GREVLEX)


def _toric_relations(a: IntMatrix, ix: Ideal, ring: PolyRing, u) -> list:
    """I_A plus the 2x2 minors of A * [p u] (none if A has one row).

    ``ring`` starts with p_0..p_n and holds the data variables ``u``.
    The minor of rows a and b, (a . p)(b . u) - (a . u)(b . p), is the
    sum of (a_i b_j - a_j b_i) p_i u_j over i and j, built from integers
    in one ``ring.poly`` call.  Row pairs go in combinations order, and
    zero minors are dropped.
    """
    gens = [map_to_ring(g, ring) for g in ix.generators]
    cols = range(a.ncols)
    # the exponent vector of p_i * u_j
    mono = [[x.terms[0][0][:i] + (1,) + x.terms[0][0][i + 1 :] for x in u] for i in cols]
    for ra, rb in itertools.combinations(a.entries, 2):
        terms = [
            (mono[i][j], c) for i in cols for j in cols if (c := ra[i] * rb[j] - ra[j] * rb[i])
        ]
        if terms:
            gens.append(ring.poly(terms))
    return gens


def _terms(x, ring: PolyRing):
    """The terms of x, a polynomial of ``ring`` or an integer."""
    return x.terms if isinstance(x, Polynomial) else (((0,) * ring.nvars, x),)


def _row_relations(a: IntMatrix, ring: PolyRing, lam, u) -> list:
    """a . u - lam * (a . p), one per row a of A: the equations A u = lam A p.

    ``ring`` holds p_0..p_n by name.  ``lam`` and the data ``u`` are each
    a variable of ``ring`` or an integer: variables for the
    correspondence, sum u* and u* for the fiber over u* (see
    ``ml_degree``).  Each relation is built from integers in one
    ``ring.poly`` call.
    """
    lam_p = []  # the terms of -lam * p_j, for each column j
    for j in range(a.ncols):
        k = ring.var_index(f"p_{j}")
        lam_p.append([(m[:k] + (m[k] + 1,) + m[k + 1 :], -c) for m, c in _terms(lam, ring)])
    u_terms = [_terms(x, ring) for x in u]
    out = []
    for row in a.entries:
        rel = []
        for x, ut, lt in zip(row, u_terms, lam_p):
            if x:
                rel.extend((m, x * c) for m, c in ut)
                rel.extend((m, x * c) for m, c in lt)
        out.append(ring.poly(rel))
    return out


def compute_lc_toric(model, saturation: str = "hyperplane") -> LikelihoodIdeal:
    """Likelihood correspondence of a toric model.

    The default mode ("hyperplane") builds it as a graph: u - lam p
    lies in ker A, a vector bundle over X_A (Huh and Sturmfels,
    "Likelihood Geometry", 2014).  The one multiplier lam is eliminated
    from
        J = I_A + (a . u - lam * (a . p) for each row a of A),
    with no minors and no saturation.  The elimination ideal
    K = J & Q[p, u] is the correspondence
    (I_A + the 2x2 minors of A * [p u]) : (sum p)^inf:

    * J is prime.  Rank A of the relations generate them all over Q and
      solve for rank A of the u's, so Q[lam, p, u] / J is
      (Q[p] / I_A)[lam, the other u's], a polynomial ring over a domain.
      So K is prime.
    * sum p is not in K, as p = u = (1, ..., 1), lam = 1 lies on J.  So
      K : (sum p)^inf = K.
    * The minors lie in K: modulo J, (a . p)(b . u) - (b . p)(a . u) is
      lam * ((a . p)(b . p) - (b . p)(a . p)) = 0.
    * A's row span holds the ones vector: w A = 1 for a rational w, and
      sum_a w_a (a . u - lam * (a . p)) = sum u - lam * sum p lies in J,
      so lam = sum u / sum p modulo J once sum p is inverted.  Putting
      that for lam maps Q[lam, p, u] into Q[p, u][1 / sum p], fixes K,
      and sends the relation of row a to
        sum_b w_b ((b . p)(a . u) - (a . p)(b . u)) / sum p,
      a combination of the minors.  So it sends J into
      (I_A + minors)[1 / sum p], and K lies in (I_A + minors) : (sum p)^inf.
    * That saturation lies in K : (sum p)^inf = K.

    So the two are equal, with no condition on the generator count or
    the rank of A.  K also misses prod p (the same point lies on it),
    so it is already saturated at (sum p)(prod p).

    ``saturation="full"`` is the reference built the other way: I_A plus
    the minors (none if A has one row), saturated at sum p and then at
    every p_i.  It gives the same ideal.  There each p_i saturation
    starts from the cached basis of the one before, and p_i is a
    nonzerodivisor modulo it, so saturate proves it trivial with one
    signature step and runs no elimination.
    """
    if saturation not in ("full", "hyperplane"):
        raise InputError("saturation mode must be 'full' or 'hyperplane'")
    model = toric_model(model)
    a = model.matrix
    n = a.ncols - 1
    ring = lc_ring(n)
    ix = toric_ideal(model)
    if saturation == "full":
        gens = ring.gens()
        j = Ideal(ring, _toric_relations(a, ix, ring, gens[n + 1 :]))
        p_gens = list(gens[: n + 1])
        lc = saturate_by_product(j, [sum(p_gens[1:], p_gens[0])] + p_gens)
    else:

        def build(lam, pu):
            return _row_relations(a, lam[0].ring, lam[0], pu[n + 1 :])

        lc = _eliminate_auxiliary(ring, 1, build, ix.generators)
    # both carry the reduced basis in Q[p, u] under grevlex as their cached basis
    basis = lc.groebner().basis
    return LikelihoodIdeal(ring, (g.primitive_part() for g in basis), "toric", basis)


def _is_unit(basis) -> bool:
    """Whether a reduced Groebner basis spans the unit ideal."""
    return any(g.is_constant() for g in basis)


def _saturate_by_ideal(ideal: Ideal, multiplier: Ideal) -> Ideal:
    """I : J^infinity — intersect the saturations at J's generators (J != 0)."""
    parts = [saturate(ideal, f) for f in multiplier.generators]
    out = parts[0]
    for part in parts[1:]:
        out = intersect(out, part)
    return out


def _check_model_ideal(ideal: Ideal) -> None:
    """Reject what has no Lagrange system: one state, inhomogeneity, the unit ideal."""
    if ideal.ring.nvars < 2:
        raise ValueError("need at least two states")
    for g in ideal.generators:
        if not g.is_homogeneous():
            raise ValueError(f"generator {g} is not homogeneous")
    if _is_unit(ideal.groebner().basis):
        raise ValueError("the unit ideal has no likelihood correspondence")


def _lagrange_relations(ideal: Ideal, ring: PolyRing, lam0, lam, u) -> list:
    """u_i - p_i * (lam0 + sum_j lam_j df_j/dp_i), one per model variable p_i.

    These are the Lagrange equations with f_0 = sum p, whose multiplier
    is lam0, and f_1..f_r the generators of ``ideal``, whose multipliers
    ``lam`` are variables of ``ring``.  ``ring`` holds the model's
    variables by name.  ``lam0`` and the data ``u`` are each a variable
    of ``ring`` or an integer: variables for the correspondence, sum u*
    and u* for the fiber over u* (see ``ml_degree``).

    Each relation is built from the generators' terms in one
    ``ring.poly`` call: for a term c*m of f_j, p_i * d(c*m)/dp_i is
    (c*m_i)*m, and the factor lam_j shifts its exponents.
    """
    pos = [ring.var_index(name) for name in ideal.ring.variables]
    scaled = []  # (exponents in ring with lam_j's, c, the term's own exponents)
    for lam_j, f in zip(lam, ideal.generators):
        shift = lam_j.leading_monomial()
        for m, c in f.terms:
            e = list(shift)
            for k, x in zip(pos, m):
                e[k] += x
            scaled.append((tuple(e), c, m))
    out = []
    for i, (k, u_i) in enumerate(zip(pos, u)):
        rel = list(_terms(u_i, ring))
        rel.extend((m0[:k] + (m0[k] + 1,) + m0[k + 1 :], -c0) for m0, c0 in _terms(lam0, ring))
        rel.extend((e, -c * m[i]) for e, c, m in scaled if m[i])
        out.append(ring.poly(rel))
    return out


def compute_lc_general(ideal: Ideal, saturate_singular: bool = False) -> LikelihoodIdeal:
    """Likelihood correspondence of any homogeneous proper ideal in Q[p].

    Lagrange construction: with f_0 = sum p_i and f_1..f_r the
    generators, impose u_i = p_i * sum_j lambda_j df_j/dp_i, saturate
    at (prod p)(sum p), then eliminate the lambda block.  The
    multipliers get fresh names; the data are u_0..u_n, so the model
    may use any variable names but those (InputError).

    ``saturate_singular`` additionally saturates the model ideal in Q[p]
    at the codimension-sized minors of the Jacobian of its generators,
    before the graph relations are attached.  That drops only the
    components of the model ideal lying inside the Jacobian's degeneracy
    locus; a prime ideal, however singular its variety, is unchanged.
    If that drops every component, as on a non-reduced ideal such as a
    double line, it raises ValueError: pass the radical instead.
    """
    _check_model_ideal(ideal)
    p_ring = ideal.ring
    n1 = p_ring.nvars
    u_names = tuple(f"u_{i}" for i in range(n1))
    for name in p_ring.variables:
        if name in u_names:
            raise InputError(f"model variable {name!r} is a data name u_0..{u_names[-1]}")
    # The relations u_i - p_i * grad present the Lagrange ideal as the graph
    # of a substitution u = h(lam, p) over the p-part, so saturating at
    # any polynomial in p alone commutes with attaching the graph:
    # J : g^inf = (I : g^inf) extended + graph relations.  All requested
    # multipliers live in the p-variables, so the saturations run in the
    # small ring and the graph relations are added afterwards.
    sat_p = saturate_by_product(ideal, [p_ring.sum_of_gens()] + list(p_ring.gens()))
    # a model outside the torus leaves the unit ideal here already: its
    # correspondence is (1), singular saturation or not
    if saturate_singular and ideal.generators and not _is_unit(sat_p.generators):
        codim = p_ring.nvars - krull_dimension(ideal.groebner())
        jac = PolyMatrix(
            [
                [g.differentiate(i) for i in range(p_ring.nvars)]
                for g in ideal.generators
            ],
            p_ring,
        )
        sing = minors(codim, jac)
        if not sing.generators:
            raise ValueError("the Jacobian has no nonzero minors of codimension size")
        sat_p = _saturate_by_ideal(sat_p, sing)
        if _is_unit(sat_p.generators):
            raise ValueError(
                "every component lies in the Jacobian's degeneracy locus; pass the radical"
            )

    ring = PolyRing(p_ring.variables + u_names, GREVLEX)

    def build(lam, pu):
        return _lagrange_relations(ideal, lam[0].ring, lam[0], lam[1:], pu[n1:])

    # the elimination carries the reduced basis in Q[p, u] under grevlex
    elim = _eliminate_auxiliary(ring, len(ideal.generators) + 1, build, sat_p.generators)
    basis = elim.groebner().basis
    return LikelihoodIdeal(ring, (g.primitive_part() for g in basis), "lagrange", basis)


def compute_lc(model_input, *, saturate_singular: bool = False) -> LikelihoodIdeal:
    """Dispatch on the input kind.

    Toric models and graphs go through the toric construction, the
    elimination of one multiplier; raw ideals through the Lagrange
    construction, which alone accepts ``saturate_singular``.
    """
    if isinstance(model_input, LikelihoodIdeal):
        return model_input
    if isinstance(model_input, (ToricModel, IntMatrix, ModelGraph)):
        if saturate_singular:
            raise InputError("singular-locus saturation only applies to ideal input")
        return compute_lc_toric(model_input)
    if isinstance(model_input, Ideal):
        return compute_lc_general(model_input, saturate_singular)
    raise TypeError(f"cannot compute a likelihood correspondence from {type(model_input).__name__}")


def _fibers(model_input):
    """The number of states and a map from data to the fiber's ideal in Q[p].

    The fiber holds the critical points for the data on the chart
    sum p = 1, off the coordinate hyperplanes; each route builds the
    ideal that its exactness argument in ``ml_degree`` needs.  Whatever
    every trial shares (the toric ideal, the model checks) is done
    here, once.  The Lagrange route's fiber is the model ideal plus the
    relations of ``_lagrange_relations``, with the multipliers
    lam_1..lam_r eliminated; they get fresh names, so the model may use
    any variable names, u_0..u_n included.
    """
    if isinstance(model_input, LikelihoodIdeal):
        lc = model_input
        n1 = lc.ring.nvars // 2
        p_ring = PolyRing(lc.ring.variables[:n1], GREVLEX)
        u_names = lc.ring.variables[n1:]
        chart = p_ring.sum_of_gens() - 1

        def fiber(data):
            bindings = dict(zip(u_names, data))
            gens = [g.substitute(bindings) for g in lc.generators] + [chart]
            return saturate_by_product(Ideal(p_ring, gens), p_ring.gens())

    elif isinstance(model_input, (ToricModel, IntMatrix, ModelGraph)):
        model = toric_model(model_input)
        a = model.matrix
        n1 = a.ncols
        if n1 < 2:
            raise ValueError("need at least two states")
        ix = toric_ideal(model)

        def fiber(data):
            return Ideal(ix.ring, ix.generators + tuple(_row_relations(a, ix.ring, sum(data), data)))

    elif isinstance(model_input, Ideal):
        _check_model_ideal(model_input)
        n1 = model_input.ring.nvars
        p_ring = PolyRing(model_input.ring.variables, GREVLEX)
        gens = model_input.generators

        def fiber(data):
            def build(lam, p):
                return _lagrange_relations(model_input, p[0].ring, sum(data), lam, data)

            return _eliminate_auxiliary(p_ring, len(gens), build, gens)

    else:
        raise TypeError(f"cannot compute an ML degree from {type(model_input).__name__}")
    return n1, fiber


def _fiber_count(fiber: Ideal, data) -> int:
    """The length of a fiber ideal, which must be zero-dimensional."""
    try:
        return quotient_dimension(fiber.groebner())
    except ValueError:
        raise DegenerateFiberError(
            f"fiber over data {tuple(data)} is not zero-dimensional"
        ) from None


def _modal_count(trials: int, count) -> int:
    """The most common of count(0), ..., count(trials - 1), the smallest on a tie.

    Trials run in order, and stop once no remaining trial can change the
    result: when the top frequency f exceeds the R trials left plus the
    runner-up's frequency g (0 if none).  Then no count, seen or unseen,
    can reach f, so the top count wins the full vote; and a stop with
    R >= 1 has f >= 2, so the counts could not all have differed.  More
    than one trial with every count distinct raises UnstableCountError.
    """
    counts = []
    for t in range(trials):
        counts.append(count(t))
        freq = Counter(counts)
        top, runner_up = (sorted(freq.values(), reverse=True) + [0])[:2]
        if top > trials - len(counts) + runner_up:
            break
    if trials > 1 and top == 1:
        raise UnstableCountError(f"unstable generic count: trials gave {counts}")
    return min(v for v, c in freq.items() if c == top)


def ml_degree(model_input, trials: int = 3, seed: int = 0, u_range=(1, 1000)) -> int:
    """Maximum-likelihood degree: the number of critical points for generic data.

    Each trial draws seeded random integer data u* in u_range, puts it
    into the construction before any Groebner work, and counts standard
    monomials of the (necessarily zero-dimensional) fiber ideal in Q[p].
    No correspondence is built.  Every route cuts its fiber to the chart
    sum p = 1, and each is exact:

    * toric input: I_A plus e_i = c_i - s * (a_i . p) for each row a_i
      of A, where s = sum u* and c = A u*: the toric path's relations at
      u = u* and lam = s, the equations A p = A u* / s.  They generate
      I_A plus the 2x2 minors of A * [p | u*] plus the chart.  With w
      rational and w A = 1 (A's row span holds the ones vector), and
      s != 0 as u* >= 1:
        s * minor_ij = e_j c_i - e_i c_j,  s * (1 - sum p) = sum_i w_i e_i;
        e_i = c_i * (1 - sum p) - sum_j w_j minor_ij.
      The correspondence is J : (sum p)^inf for J = I_A + the minors of
      A * [p | u] (see ``compute_lc_toric``); the two generate one ideal
      once (sum p)(prod p) is inverted, and substituting u* is a ring
      map, so their fibers agree off the coordinate hyperplanes.  The
      fiber has no point on them.  At a point p of the fiber, the
      support of p is the column set of a face F of conv(A), and
      A p = A u* / s lies in the span of F.  As u* >= 1, A u* is a
      positive combination of every column, so it misses each proper
      face's supporting hyperplane: F is all of conv(A) and every p_i
      is nonzero.  So every p_i is a unit modulo the fiber, and
      saturating there would change nothing.
    * ideal input: the Lagrange relations
      u*_i = p_i * (lam_0 + sum_j lam_j df_j/dp_i) over the model ideal
      itself, with lam_0 = sum u* and lam_1..lam_r eliminated.  By
      Euler's relation for the homogeneous f_j, the relations sum to
        sum u* - lam_0 * sum p - sum_j lam_j deg(f_j) f_j,
      which is sum u* * (1 - sum p) modulo the model ideal when
      lam_0 = sum u*: the ideal holds the chart.  Fixing lam_0 loses
      nothing: with lam_0 a variable and the chart added, the sum is
      sum u* - lam_0, so lam_0 - sum u* lies in that ideal, and
      substituting it gives the same elimination.  With u*_i >= 1
      every p_i divides a nonzero constant, so it is a unit, and the
      chart makes sum p one; modulo the relations the model ideal and
      its saturation at (sum p)(prod p) agree, and so do their
      eliminations, whose p_i stay units (a g * p_i^k in the
      elimination puts g in it).  The ideal cuts out the critical
      points for u*, as the correspondence's fiber does for generic u*.
    * a precomputed ``LikelihoodIdeal``: u* is substituted into its
      generators, and the result saturated at the coordinates.  It is
      a closure, so its fiber can hold points on the coordinate
      hyperplanes; this route alone saturates.

    The modal count across trials is returned, the smallest on a tie;
    ``trials`` is the most trials that run, and the vote stops as soon as
    its most common count is decided (see ``_modal_count``).  All-distinct
    counts raise UnstableCountError, and a non-finite fiber
    DegenerateFiberError; a trial that never runs raises nothing, so that
    error comes only from a trial that ran.
    """
    for name, value in (("trials", trials), ("seed", seed)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"{name} must be an integer")
    if trials < 1:
        raise ValueError("need at least one trial")
    lo, hi = u_range
    if not (isinstance(lo, int) and isinstance(hi, int)) or lo < 1 or hi < lo:
        raise InputError(f"data range (u_range, --range) must be integers 1 <= LO <= HI, got {lo!r}:{hi!r}")
    if hi - lo + 1 > 1 << 64:
        raise InputError(f"data range {lo}:{hi} holds more than 2^64 integers")
    n1, fiber = _fibers(model_input)

    def count(t):
        rng = SplitMix64(derive_seed(seed, t))
        data = [rng.next_int(lo, hi) for _ in range(n1)]
        return _fiber_count(fiber(data), data)

    return _modal_count(trials, count)
