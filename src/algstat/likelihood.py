"""Likelihood correspondences and maximum-likelihood degrees.

For a projective model of a discrete distribution with coordinates
p_0..p_n and data u_0..u_n, the likelihood correspondence is the
closure of the set of pairs (p, u) where p is a critical point of the
likelihood  prod p_i^{u_i} / (sum p_i)^{sum u_i}  on the model.  Its
ideal lives in Q[p, u] and is computed here two ways:

* a fast path for toric models: the toric ideal plus the 2x2 minors of
  A * [p u], saturated once, at sum p_i (that saturation already misses
  every coordinate hyperplane; the "full" reference mode also saturates
  at every p_i and gives the same ideal);
* a general path for arbitrary homogeneous ideals: Lagrange
  multipliers lambda_j in an elimination block (fresh auxiliary
  variables, see ``groebner``), the critical equations
  u_i = p_i * sum_j lambda_j d f_j / d p_i, saturation, then
  elimination of the multipliers.

The ML degree is the number of critical points for generic data.
``ml_degree`` puts seeded random integer data u* into the same
relations before any Groebner work, so it never builds a
correspondence: it counts the fiber over u* in Q[p] on the chart
sum p = 1 and takes the modal count across trials.  The toric and the
Lagrange fibers need no saturation, as u* >= 1 already keeps every
point off the coordinate hyperplanes (see ``ml_degree``); only a
precomputed ``LikelihoodIdeal`` has its own generators substituted and
the result saturated at the coordinates.
"""

from __future__ import annotations

from collections import Counter

from .errors import DegenerateFiberError, InputError, UnstableCountError
from .exactmath import IntMatrix
from .groebner import (
    Ideal,
    PolyMatrix,
    _eliminate_auxiliary,
    intersect,
    is_zero_dimensional,
    krull_dimension,
    minors,
    mul_int_poly,
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
    the Lagrange path saturates at each factor, the toric path once at
    sum p, which already gives the same ideal (see ``compute_lc_toric``).
    """

    __slots__ = ("ring", "generators", "mode")

    def __init__(self, ring: PolyRing, generators, mode: str):
        self.ring = ring
        self.generators = tuple(generators)
        self.mode = mode

    def ideal(self) -> Ideal:
        return Ideal(self.ring, self.generators)

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

    ``ring`` starts with p_0..p_n.  ``u`` is the data column: ring
    variables for the correspondence, or integers for the fiber over
    one data vector, where the minors are linear in p.
    """
    p = ring.gens()[: a.ncols]
    u = [x if isinstance(x, Polynomial) else ring.constant(x) for x in u]
    gens = [map_to_ring(g, ring) for g in ix.generators]
    if a.nrows > 1:
        m = PolyMatrix([[p[i], u[i]] for i in range(a.ncols)], ring)
        gens.extend(minors(2, mul_int_poly(a, m)).generators)
    return gens


def compute_lc_toric(model, saturation: str = "hyperplane") -> LikelihoodIdeal:
    """Likelihood correspondence of a toric model.

    The toric ideal I_A plus the 2x2 minors of A * [p u] (none if A has
    one row), saturated once, at sum p.  That is already the saturation
    at (sum p)(prod p): A's row span holds the ones vector, so where
    sum p != 0 the minors say A u = (sum u / sum p) A p, linear in u with
    solutions of dimension n + 2 - rank A over every point of X_A.  The
    saturation at sum p is thus prime (a vector bundle over an integral
    base) and misses prod p (p = u = (1, ..., 1) lies on it), so the p_i
    saturations would leave it as it is.  ``saturation="full"`` is the
    reference that runs them anyway, at sum p and then at every p_i; it
    gives the same ideal.  There each p_i saturation starts from the
    cached basis of the one before, and p_i is a nonzerodivisor modulo
    it, so saturate proves it trivial with one signature step and runs
    no elimination.
    """
    if saturation not in ("full", "hyperplane"):
        raise InputError("saturation mode must be 'full' or 'hyperplane'")
    model = toric_model(model)
    a = model.matrix
    n = a.ncols - 1
    if n < 1:
        raise ValueError("need at least two states")
    ring = lc_ring(n)
    gens = ring.gens()
    j = Ideal(ring, _toric_relations(a, toric_ideal(model), ring, gens[n + 1 :]))
    p_gens = list(gens[: n + 1])
    p_sum = sum(p_gens[1:], p_gens[0])
    if saturation == "full":
        sat = saturate_by_product(j, [p_sum] + p_gens)
    else:
        sat = saturate(j, p_sum)
    # both return saturate's reduced basis in Q[p, u] under grevlex
    out = tuple(g.primitive_part() for g in sat.generators)
    return LikelihoodIdeal(ring, out, "toric")


def _is_unit(basis) -> bool:
    """Whether a reduced Groebner basis spans the unit ideal."""
    return any(g.is_constant() for g in basis)


def _saturate_by_ideal(ideal: Ideal, multiplier: Ideal) -> Ideal:
    """I : J^infinity — intersect the saturations at J's generators."""
    gens = multiplier.generators
    if not gens:
        raise ValueError("cannot saturate at the zero ideal")
    parts = [saturate(ideal, f) for f in gens]
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


def _lagrange_relations(ideal: Ideal, base: Ideal, lam, p, u) -> list:
    """base plus u_i - p_i * sum_j lam_j df_j/dp_i, with f_0 = sum p.

    ``lam`` (one multiplier per f_j) and ``p`` (the model's variables)
    are generators of one ring.  ``base`` is an ideal in Q[p] with the
    zeros of the model ideal: its saturation for the correspondence,
    the model ideal itself for a fiber.  ``u`` is the data: variables
    of that ring for the correspondence, or integers for the fiber over
    one data vector.
    """
    ring = p[0].ring
    fs = [sum(p[1:], p[0])] + [map_to_ring(g, ring) for g in ideal.generators]
    out = [map_to_ring(g, ring) for g in base.generators]
    for name, p_i, u_i in zip(ideal.ring.variables, p, u):
        grad = ring.zero()
        for lam_j, f in zip(lam, fs):
            df = f.differentiate(name)
            if df.terms:
                grad = grad + lam_j * df
        out.append(u_i - p_i * grad)
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
        return _lagrange_relations(ideal, sat_p, lam, pu[:n1], pu[n1:])

    # the elimination is the reduced basis in Q[p, u] under grevlex
    elim = _eliminate_auxiliary(ring, len(ideal.generators) + 1, build)
    out = tuple(g.primitive_part() for g in elim.generators)
    return LikelihoodIdeal(ring, out, "lagrange")


def compute_lc(model_input, *, saturate_singular: bool = False) -> LikelihoodIdeal:
    """Dispatch on the input kind.

    Toric models and graphs go through the toric construction, with its
    one saturation at sum p; raw ideals through the Lagrange
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
    here, once.  The Lagrange route's multipliers get fresh names, so
    the model may use any variable names, u_0..u_n included.
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
        chart = ix.ring.sum_of_gens() - 1

        def fiber(data):
            return Ideal(ix.ring, _toric_relations(a, ix, ix.ring, data) + [chart])

    elif isinstance(model_input, Ideal):
        _check_model_ideal(model_input)
        n1 = model_input.ring.nvars
        p_ring = PolyRing(model_input.ring.variables, GREVLEX)

        def fiber(data):
            # the chart goes in before the multipliers are eliminated, so
            # the fiber in p is finite; lam need not be unique over it
            def build(lam, p):
                relations = _lagrange_relations(model_input, model_input, lam, p, data)
                return relations + [sum(p[1:], p[0]) - 1]

            return _eliminate_auxiliary(p_ring, len(model_input.generators) + 1, build)

    else:
        raise TypeError(f"cannot compute an ML degree from {type(model_input).__name__}")
    return n1, fiber


def _fiber_count(fiber: Ideal, data) -> int:
    """The length of a fiber ideal, which must be zero-dimensional."""
    gb = fiber.groebner()
    if not is_zero_dimensional(gb):
        raise DegenerateFiberError(f"fiber over data {tuple(data)} is not zero-dimensional")
    return quotient_dimension(gb)


def ml_degree(model_input, trials: int = 3, seed: int = 0, u_range=(1, 1000)) -> int:
    """Maximum-likelihood degree: the number of critical points for generic data.

    Each trial draws seeded random integer data u* in u_range, puts it
    into the construction before any Groebner work, and counts standard
    monomials of the (necessarily zero-dimensional) fiber ideal in Q[p].
    No correspondence is built.  Every route cuts its fiber to the chart
    sum p = 1, and each is exact:

    * toric input: I_A plus the 2x2 minors of A * [p | u*], which are
      linear in p, plus the chart, unsaturated.  The correspondence is
      J : (sum p)^inf for J = I_A + the minors of A * [p | u]; the two
      generate one ideal once (sum p)(prod p) is inverted, and
      substituting u* is a ring map, so their fibers agree off the
      coordinate hyperplanes.  The fiber has no point on them.  At a
      point p of X_A on the chart, the support of p is the column set
      of a face F of conv(A), and the minors make A u* proportional to
      A p, which is nonzero (A has a ones row) and lies in the span of
      F.  As u* >= 1, A u* is a positive combination of every column,
      so it misses each proper face's supporting hyperplane: F is all
      of conv(A) and every p_i is nonzero.  So every p_i is a unit
      modulo the fiber, and saturating there would change nothing.
    * ideal input: the Lagrange relations u*_i = p_i * grad_i over the
      model ideal itself, plus the chart, with the multipliers
      eliminated.  With u*_i >= 1 every p_i divides a nonzero constant,
      so it is a unit, and the chart makes sum p one; modulo the
      relations the model ideal and its saturation at (sum p)(prod p)
      agree, and so do their eliminations, whose p_i stay units (a
      g * p_i^k in the elimination puts g in it).  The ideal cuts out
      the critical points for u*, as the correspondence's fiber does
      for generic u*.
    * a precomputed ``LikelihoodIdeal``: u* is substituted into its
      generators, and the result saturated at the coordinates.  It is
      a closure, so its fiber can hold points on the coordinate
      hyperplanes; this route alone saturates.

    The modal count across trials is returned; all-distinct counts raise
    UnstableCountError, a non-finite fiber DegenerateFiberError.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    lo, hi = u_range
    if not (isinstance(lo, int) and isinstance(hi, int)) or lo < 1 or hi < lo:
        raise InputError("u_range must be integers 1 <= lo <= hi")
    if hi - lo + 1 > 1 << 64:
        raise InputError(f"u_range [{lo}, {hi}] holds more than 2^64 integers")
    n1, fiber = _fibers(model_input)
    counts = []
    for t in range(trials):
        rng = SplitMix64(derive_seed(seed, t))
        data = [rng.next_int(lo, hi) for _ in range(n1)]
        counts.append(_fiber_count(fiber(data), data))
    if trials > 1 and len(set(counts)) == trials:
        raise UnstableCountError(f"unstable generic count: trials gave {counts}")
    freq = Counter(counts)
    best = max(freq.values())
    return min(v for v, c in freq.items() if c == best)
