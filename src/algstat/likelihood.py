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
  multipliers lambda_j in an elimination block, the critical equations
  u_i = p_i * sum_j lambda_j d f_j / d p_i, saturation, then
  elimination of the multipliers.

The ML degree is the number of critical points for generic data.
``ml_degree`` puts seeded random integer data u* into the same
relations before any Groebner work, so it never builds a
correspondence: it counts the fiber over u* in Q[p] on the chart
sum p = 1, off the coordinate hyperplanes, and takes the modal count
across trials.  Only a precomputed ``LikelihoodIdeal`` has its own
generators substituted.
"""

from __future__ import annotations

from collections import Counter

from .errors import DegenerateFiberError, InputError, UnstableCountError
from .exactmath import IntMatrix
from .groebner import (
    Ideal,
    PolyMatrix,
    eliminate,
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
from .ring import GREVLEX, MonomialOrder, Polynomial, PolyRing, map_to_ring
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
    gives the same ideal.
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


def _lagrange_setup(ideal: Ideal, with_data: bool):
    """Check a model ideal and build what every Lagrange system over it shares.

    Returns the ideal's Groebner basis; the work ring
    Q[lam_0..lam_r, p] (then u_0..u_n, if ``with_data``) under
    block(r + 1); and sat_p, the ideal saturated at (sum p)(prod p) in
    Q[p].
    """
    p_ring = ideal.ring
    p_names = p_ring.variables
    n = len(p_names) - 1
    if n < 1:
        raise ValueError("need at least two states")
    for g in ideal.generators:
        if not g.is_homogeneous():
            raise ValueError(f"generator {g} is not homogeneous")
    gb = ideal.groebner()
    if _is_unit(gb.basis):
        raise ValueError("the unit ideal has no likelihood correspondence")

    r = len(ideal.generators)
    lam_names = tuple(f"lam_{j}" for j in range(r + 1))
    u_names = tuple(f"u_{i}" for i in range(n + 1))
    for name in p_names:
        if name in lam_names or name in u_names or name == "t":
            raise InputError(f"model variable name {name!r} collides with a reserved name")
    names = lam_names + p_names + (u_names if with_data else ())
    work = PolyRing(names, MonomialOrder.block(r + 1))

    # The relations u_i - p_i * grad present the work ideal as the graph
    # of a substitution u = h(lam, p) over the p-part, so saturating at
    # any polynomial in p alone commutes with attaching the graph:
    # J : g^inf = (I : g^inf) extended + graph relations.  All requested
    # multipliers live in the p-variables, so the saturations run in the
    # small ring and the graph relations are added afterwards.
    sat_p = saturate_by_product(ideal, [p_ring.sum_of_gens()] + list(p_ring.gens()))
    return gb, work, sat_p


def _lagrange_relations(ideal: Ideal, sat_p: Ideal, work: PolyRing, u) -> list:
    """sat_p plus u_i - p_i * sum_j lam_j df_j/dp_i, with f_0 = sum p.

    ``work`` is a ring from ``_lagrange_setup``.  ``u`` is the data:
    its u variables for the correspondence, or integers for the fiber
    over one data vector.
    """
    r = len(ideal.generators)
    gens = work.gens()
    lam = gens[: r + 1]
    p = gens[r + 1 : r + 1 + ideal.ring.nvars]
    p_sum = sum(p[1:], p[0])
    fs = [p_sum] + [map_to_ring(g, work) for g in ideal.generators]
    out = [map_to_ring(g, work) for g in sat_p.generators]
    for i, (p_i, u_i) in enumerate(zip(p, u)):
        grad = work.zero()
        for j, f in enumerate(fs):
            df = f.differentiate(r + 1 + i)
            if df.terms:
                grad = grad + lam[j] * df
        out.append(u_i - p_i * grad)
    return out


def compute_lc_general(ideal: Ideal, saturate_singular: bool = False) -> LikelihoodIdeal:
    """Likelihood correspondence of any homogeneous proper ideal in Q[p].

    Lagrange construction: with f_0 = sum p_i and f_1..f_r the
    generators, impose u_i = p_i * sum_j lambda_j df_j/dp_i, saturate
    at (prod p)(sum p), then eliminate the lambda block.

    ``saturate_singular`` additionally saturates the model ideal in Q[p]
    at the codimension-sized minors of the Jacobian of its generators,
    before the graph relations are attached.  That drops only the
    components of the model ideal lying inside the Jacobian's degeneracy
    locus; a prime ideal, however singular its variety, is unchanged.
    If that drops every component, as on a non-reduced ideal such as a
    double line, it raises ValueError: pass the radical instead.
    """
    gb, work, sat_p = _lagrange_setup(ideal, with_data=True)
    p_ring = ideal.ring
    # a model outside the torus leaves the unit ideal here already: its
    # correspondence is (1), singular saturation or not
    if saturate_singular and ideal.generators and not _is_unit(sat_p.generators):
        codim = p_ring.nvars - krull_dimension(gb)
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

    k = len(ideal.generators) + 1
    u = work.gens()[k + p_ring.nvars :]
    # eliminate returns the reduced basis in Q[p, u] under grevlex
    elim = eliminate(Ideal(work, _lagrange_relations(ideal, sat_p, work, u)), k)
    out = tuple(g.primitive_part() for g in elim.generators)
    return LikelihoodIdeal(elim.ring, out, "lagrange")


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

    Whatever every trial shares (the toric ideal, the small-ring
    saturation) is computed here, once.
    """
    if isinstance(model_input, LikelihoodIdeal):
        lc = model_input
        n1 = lc.ring.nvars // 2
        p_ring = PolyRing(lc.ring.variables[:n1], GREVLEX)
        u_names = lc.ring.variables[n1:]

        def fiber(data):
            bindings = dict(zip(u_names, data))
            return Ideal(p_ring, [g.substitute(bindings) for g in lc.generators])

    elif isinstance(model_input, (ToricModel, IntMatrix, ModelGraph)):
        model = toric_model(model_input)
        a = model.matrix
        n1 = a.ncols
        if n1 < 2:
            raise ValueError("need at least two states")
        ix = toric_ideal(model)

        def fiber(data):
            return Ideal(ix.ring, _toric_relations(a, ix, ix.ring, data))

    elif isinstance(model_input, Ideal):
        _, work, sat_p = _lagrange_setup(model_input, with_data=False)
        n1 = model_input.ring.nvars
        k = len(model_input.generators) + 1
        p = work.gens()[k:]
        chart = sum(p[1:], p[0]) - 1

        def fiber(data):
            # the chart goes in before the multipliers are eliminated, so
            # the fiber in p is finite; lam need not be unique over it
            gens = _lagrange_relations(model_input, sat_p, work, data) + [chart]
            return eliminate(Ideal(work, gens), k)

    else:
        raise TypeError(f"cannot compute an ML degree from {type(model_input).__name__}")
    return n1, fiber


def _fiber_count(fiber: Ideal, data) -> int:
    """Length of a fiber on the chart sum p = 1, off the coordinate hyperplanes."""
    ring = fiber.ring
    chart = ring.sum_of_gens() - 1
    sat = saturate_by_product(Ideal(ring, fiber.generators + (chart,)), ring.gens())
    gb = sat.groebner()
    if not is_zero_dimensional(gb):
        raise DegenerateFiberError(f"fiber over data {tuple(data)} is not zero-dimensional")
    return quotient_dimension(gb)


def ml_degree(model_input, trials: int = 3, seed: int = 0, u_range=(1, 1000)) -> int:
    """Maximum-likelihood degree: the number of critical points for generic data.

    Each trial draws seeded random integer data u* in u_range, puts it
    into the construction before any Groebner work, adds the chart
    sum p = 1, saturates at the coordinates, and counts standard
    monomials of the (necessarily zero-dimensional) fiber ideal in Q[p].
    No correspondence is built, and each route is exact:

    * toric input: the fiber of I_A plus the 2x2 minors of A * [p | u*],
      which are linear in p.  The correspondence is J : (sum p)^inf for
      J = I_A + the minors of A * [p | u], and both generate one ideal
      once (sum p)(prod p) is inverted; substituting u* is a ring map,
      and on the chart off the coordinate hyperplanes that product is a
      unit, so the two fibers agree for every u*.
    * ideal input: the Lagrange relations u*_i = p_i * grad_i over the
      model saturated at (sum p)(prod p), with the multipliers
      eliminated.  With u*_i >= 1 every p_i divides a nonzero constant,
      so it is a unit, and the chart removes sum p = 0: the ideal cuts
      out the critical points for u*, as the correspondence's fiber
      does for generic u*.
    * a precomputed ``LikelihoodIdeal``: u* is substituted into its
      generators.

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
