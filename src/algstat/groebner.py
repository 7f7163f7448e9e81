"""Groebner bases and ideal arithmetic.

The engine has two loops that share one reduction kernel, one reducer
index and one interreduction, so either gives the same reduced basis.
Every ideal takes an incremental signature loop (Faugere's F5, 2002, in
the framework of Gao, Volny and Wang, Math. Comp. 2016), which skips
the pairs that would reduce to zero on a regular sequence, unless an
input has both a constant term and a term of degree one: the
ML-degree fibers, whose relations over integer data are affine in p.
Those take Buchberger's algorithm with normal-pair selection (a
degree-ordered queue) and the standard pair filters (product and chain
criteria, applied Gebauer-Moeller style), since signatures were
measured there and lost (see buchberger).  The correspondence's
Lagrange eliminations, homogeneous and lattice ideals and the
saturations, whose t*f - 1 has no term of degree one, take the
signature loop.  Every reduction, the public `normal_form` included,
runs in one fraction-free kernel over integer terms; `normal_form`
divides the kernel's remainder by the scale it accumulated.  The kernel
keeps the part of the dividend still to be reduced as lazily shifted
reducer multiples merged in a heap (Johnson, "Sparse polynomial
arithmetic", 1974; Monagan and Pearce, "Polynomial division using
dynamic arrays, heaps, and packed exponent vectors", 2007): a reduction
step adds one stream to the heap, and each term of a reducer multiple
is made once, when it becomes the leading term.

A kernel term is (key, exponents, coefficient) with the first two packed
into one int each (Monagan and Pearce, "Sparse polynomial division using
a heap", 2011).  Each exponent has a 64-bit field whose top bit is a
borrow guard, so a monomial product is one addition and a divisibility
test one subtraction and one mask, and a leading exponent above
ring.MAX_EXPONENT sets a guard bit and raises GuardrailError.  The key
int is the order's sort key in mixed radix; sort keys are additive, so a
shifted term's key is a sum too.  Terms are packed where polynomials
enter the kernel and unpacked where bases and remainders leave it.  The
pair criteria read the same packed leading monomials: an lcm is a
per-field max in a few word operations, two leading monomials are
coprime exactly when their lcm equals their product, and a queued lcm
is unpacked once, for its place in the pair queue.  A signature step
tests a pair's packed signature against the F5 and zero-signature
criteria before it unpacks anything, so the pairs those drop, most of
them, cost an lcm and a few divisibility tests.

Each leading term is reduced by the first reducer in list order whose
leading term divides it.  The reducers sit in one index (_Reducers) that
keeps, per variable, a bitset of the reducers whose leading term lacks
that variable.  A reducer can divide a term only if its leading term's
support lies in the term's, so the AND of those bitsets over the
variables the term lacks gives the candidates, computed at each lookup.
Only candidates get the divisibility test, lowest list position first,
so the reducer chosen is the one a scan of the whole list would choose.
The index only grows at its end: in buchberger, in either loop, it is
the basis itself, reducers in the order found, interreduced once when
the loop ends; for an elimination, only its elements free of the
auxiliary variables are interreduced (see buchberger).  The pair loop
names its pairs by positions in it, and a signature step reads the
leading monomials of the basis it started from at the positions below
its own first element.  In a signature step the
step's elements carry their signatures, and each reduces a term only
where the division stays regular (see _divide); when the step ends they
are cleared, and the elements reduce as basis elements.

The reduced basis handed back is monic over Q, sorted ascending by
leading term, and therefore canonical for the ideal and order.

A known basis is not computed twice, and no part of one that is not
returned is finished.  An elimination finishes only the elements of the
block-order basis that are free of the auxiliary variables, which are
already the elimination ideal's basis, and under grevlex returns them as
the result's cached basis; the block ideal's full reduced basis is never
formed, nor cached on it.  A likelihood correspondence is an Ideal
that keeps the basis its construction ends with (see
likelihood.LikelihoodIdeal).  Each of these results is built the one
way an ideal over a reduced basis is built (Ideal._of_basis).  A
saturation of a grevlex ideal I whose basis G is cached first reduces f
by G.  A zero remainder means f is in I, and the saturation is the unit
ideal.  Otherwise one signature step runs for G + (f) (see saturate).  If
it makes no reduction to zero, then I : f = I (Gao, Volny and Wang, 2016),
the saturation is I, and G is returned as it stands: no auxiliary
variable, no block order, no elimination.  Most saturations on the toric
path are of this kind: the multiplier is already a nonzerodivisor.
Otherwise it runs Buchberger on G + (t*f - 1) without forming S-pairs
within G (Gebauer and Moeller, 1988), which is one signature step.  That
is exact because block(1) restricted to t-free monomials is grevlex: G
stays a Groebner basis after t is added, so each pair within it has a
standard representation.  The result is the same reduced basis.

Also here: elimination via block orders, saturation and intersection
by the auxiliary-variable trick (t*f - 1), minors of a matrix of
polynomials given by its rows, and the standard-monomial counting used
to read off fiber cardinalities.  Auxiliary variables get fresh names,
so a ring may use any variable names.
"""

from __future__ import annotations

import functools
import itertools
import re
import struct
from fractions import Fraction
from heapq import heappop, heappush
from math import gcd, lcm, prod
from operator import mul

from .errors import GuardrailError, ParseError
from .ring import (
    GREVLEX,
    LEX,
    MAX_EXPONENT,
    MonomialOrder,
    PolyRing,
    Polynomial,
    _restrict_order,
    map_to_ring,
    parse_polynomial,
    print_polynomial,
)

__all__ = [
    "Ideal",
    "GroebnerBasis",
    "normal_form",
    "s_polynomial",
    "buchberger",
    "ideal_contains",
    "ideal_equal",
    "eliminate",
    "saturate",
    "saturate_by_product",
    "intersect",
    "krull_dimension",
    "minors",
    "is_zero_dimensional",
    "quotient_dimension",
    "parse_ideal_text",
    "format_ideal",
]

STANDARD_MONOMIAL_CAP = 1_000_000


class Ideal:
    """A finitely generated ideal: a ring plus a tuple of nonzero generators."""

    __slots__ = ("ring", "generators", "_gb", "_known")

    def __init__(self, ring: PolyRing, generators):
        gens = []
        for g in generators:
            if not isinstance(g, Polynomial):
                raise TypeError("ideal generators must be polynomials")
            if g.ring != ring:
                raise ValueError("generator lives in a different ring")
            if g.terms:
                gens.append(g)
        self.ring = ring
        self.generators = tuple(gens)
        self._gb = None
        # the first _known generators are a Groebner basis in the ring's
        # order; buchberger forms no S-pairs among them
        self._known = 0

    def groebner(self) -> "GroebnerBasis":
        """The reduced Groebner basis in the ideal's ring order (cached)."""
        if self._gb is None:
            self._gb = buchberger(self)
        return self._gb

    @staticmethod
    def _of_basis(ring: PolyRing, basis, reducers=None) -> "Ideal":
        """The ideal generated by ``basis``, a reduced Groebner basis in
        ring's order, with that basis cached and, if given, its kernel
        index ``reducers``."""
        ideal = Ideal(ring, basis)
        ideal._gb = GroebnerBasis(ideal, ideal.generators)
        ideal._gb._reducers = reducers
        return ideal

    def __repr__(self):
        gens = ", ".join(print_polynomial(g) for g in self.generators) or "0"
        return f"Ideal({gens})"


class GroebnerBasis:
    """A reduced Groebner basis: monic elements, ascending leading terms.

    It keeps the ideal's ring and generators rather than the Ideal, whose
    cache holds the basis, so a basis and its ideal form no reference
    cycle and are freed as soon as the last reference goes.  Its order
    is its ring's, the one its reducer index packs.
    """

    __slots__ = ("ring", "generators", "basis", "_reducers")

    def __init__(self, ideal: Ideal, basis):
        self.ring = ideal.ring
        self.generators = ideal.generators
        self.basis = tuple(basis)
        # the basis as a kernel reducer index: buchberger hands over the
        # one it reduced the basis with, else _index builds it
        self._reducers = None

    @property
    def ideal(self) -> Ideal:
        """The ideal this basis generates, given by its generators, with this basis cached."""
        ideal = Ideal(self.ring, self.generators)
        ideal._gb = self
        return ideal

    @property
    def order(self) -> MonomialOrder:
        return self.ring.order

    def _index(self) -> "_Reducers":
        """The basis as a kernel reducer index, in basis order (cached)."""
        if self._reducers is None:
            self._reducers = _divisors(self.basis, _packing(self.order, self.ring.nvars))
        return self._reducers

    def __iter__(self):
        return iter(self.basis)

    def __len__(self):
        return len(self.basis)

    def leading_monomials(self):
        return tuple(g.leading_monomial() for g in self.basis)

    def __repr__(self):
        return f"GroebnerBasis<{len(self.basis)} elements, {self.order.name}>"


# ---------------------------------------------------------------------------
# fraction-free engine internals: polynomials as descending lists of
# (key, exponents, int coefficient), primitive with positive lead.  Both
# key and exponents are packed ints (see _Packing), so the merge loops
# compare ints, multiplying by a monomial adds two ints to each term and
# a divisibility test is one subtraction and one mask.

_FIELD = 64  # bits per packed exponent; the top one is its field's guard


class _Packing:
    """Packed monomials for one order on n variables.

    exps(m) packs the exponent vector m into one int, exponent i in bits
    64*i .. 64*i + 63.  Every exponent up to ring.MAX_EXPONENT leaves the
    field's top bit clear; that bit is the borrow guard, and ``guard`` has
    all of them set.  So lt divides lm exactly when ``(lm - lt) & guard``
    is 0: the lowest field where lt's exponent is larger borrows and sets
    its guard bit.  A product of two in-range monomials fills a field to
    at most 2**64 - 2, so it never carries into the next field, and its
    guard bit tells that an exponent left the range.

    key(m) is ``order.sort_key(m)`` packed in mixed radix, the first entry
    most significant.  Each entry of a sort key is linear in the
    exponents, so key(m) is the dot product of m with ``weights``, the
    packed keys of the unit vectors, and key ints add as sort keys do.
    The radix exceeds every difference of two key entries of exponents
    below 2**64, so key ints compare exactly as the sort-key tuples do.
    It is a power of two, so a weight is a sum of shifted entries, one
    per nonzero entry of its unit's sort key, a few per variable: no
    power of the radix is computed, and n variables cost n sort keys.

    ``(m + ones) & guard`` is the support of a packed monomial m whose
    guard bits are clear: ``ones`` fills the 63 low bits of every field,
    so a field's sum reaches its guard bit exactly when its exponent is
    nonzero.  Supports are packed like monomials, so one variable set
    lies in another exactly when ``s & ~t`` is 0.

    lcm(a, b) is the per-field max of two such monomials, also free of
    borrows: ``(a | guard) - b`` keeps a field's guard bit exactly when
    its exponent in a is at least the one in b, and that bit, spread over
    the field's 63 low bits, picks a's exponent over b's.  The lcm equals
    ``a + b`` exactly when a and b are coprime.
    """

    __slots__ = ("guard", "ones", "weights", "_struct")

    def __init__(self, order: MonomialOrder, n: int):
        self.guard = sum(1 << (_FIELD * i + _FIELD - 1) for i in range(n))
        self.ones = self.guard - (self.guard >> (_FIELD - 1))
        self._struct = struct.Struct(f"<{n}Q")
        units = [order.sort_key(tuple(int(i == j) for j in range(n))) for i in range(n)]
        width = len(units[0]) if units else 0
        span = max((sum(abs(u[j]) for u in units) for j in range(width)), default=0)
        bits = _FIELD + span.bit_length()  # the radix is 2**bits
        self.weights = tuple(
            sum(d << bits * (width - 1 - j) for j, d in enumerate(u) if d) for u in units
        )

    def exps(self, m) -> int:
        return int.from_bytes(self._struct.pack(*m), "little")

    def key(self, m) -> int:
        return sum(map(mul, m, self.weights))

    def lcm(self, a: int, b: int) -> int:
        ge = ((a | self.guard) - b) & self.guard  # guard bits where a >= b
        return b ^ ((a ^ b) & (ge - (ge >> (_FIELD - 1))))

    def unpack(self, packed: int):
        """The exponent tuple of a packed monomial."""
        return self._struct.unpack(packed.to_bytes(self._struct.size, "little"))


@functools.lru_cache(maxsize=64)
def _packing(order: MonomialOrder, n: int) -> _Packing:
    return _Packing(order, n)


class _Reducers:
    """Kernel reducers in scan order, indexed by their leading terms' supports.

    ``items`` holds (lt, lc, terms) per reducer, and ``sigs`` its
    signature key while the signature step that found it runs, else None
    (see _divide).  Every reducer's terms have passed through
    _normalize_content, so its leading coefficient lc is positive, and
    _divide's multiplier lc / gcd(lc, c) of a dividend is too.
    ``miss[i]`` is a bitset over list positions whose bit r is set when
    reducer r's leading term does not involve variable i.  A reducer
    divides a term only if its leading term's support lies in the term's,
    so the candidates for a term of support s are the AND of ``miss[i]``
    over the variables s lacks, computed at each lookup.  Reducers are
    only appended, so a position and its bit never move; an append sets
    the new reducer's bits.  Bit order is list order, so walking a
    candidate bitset from its lowest bit keeps the first match in list
    order.
    """

    __slots__ = ("guard", "ones", "items", "sigs", "miss")

    def __init__(self, pack: _Packing, term_lists=()):
        self.guard = pack.guard
        self.ones = pack.ones
        self.items = []
        self.sigs = []
        self.miss = [0] * len(pack.weights)
        for t in term_lists:
            if t:
                self.append(t)

    def __len__(self):
        return len(self.items)

    def copy(self) -> "_Reducers":
        """The same reducers in an index whose appends leave this one as it is."""
        new = _Reducers.__new__(_Reducers)
        new.guard, new.ones = self.guard, self.ones
        new.items, new.sigs, new.miss = self.items[:], self.sigs[:], self.miss[:]
        return new

    def _absent(self, s: int) -> bytes:
        """One byte per variable: 1 where support s lacks it, else 0."""
        flags = (self.guard ^ s) >> (_FIELD - 1)  # variable i's flag in bit 64*i
        return flags.to_bytes(len(self.miss) * (_FIELD // 8), "little")[:: _FIELD // 8]

    def append(self, terms, sig=None):
        """Put the nonzero term list ``terms`` last, at list position len(self).

        ``sig`` is the key int of its signature in a signature step (see
        _signature_step), or None for a reducer that always reduces.
        """
        lt = terms[0][1]
        bit = 1 << len(self.items)
        miss = self.miss
        for i in itertools.compress(range(len(miss)), self._absent((lt + self.ones) & self.guard)):
            miss[i] |= bit
        self.items.append((lt, terms[0][2], terms))
        self.sigs.append(sig)

    def candidates(self, s: int) -> int:
        """Bitset of the reducers whose leading term's support lies in support s."""
        cand = (1 << len(self.items)) - 1
        for m in itertools.compress(self.miss, self._absent(s)):
            cand &= m
        return cand

    def divides(self, m: int, below: int) -> bool:
        """Whether the leading term of a reducer at a position below ``below``
        divides the packed monomial m; later reducers are ignored."""
        cand = self.candidates((m + self.ones) & self.guard) & ((1 << below) - 1)
        items, guard = self.items, self.guard
        while cand:
            low = cand & -cand
            if not (m - items[low.bit_length() - 1][0]) & guard:
                return True
            cand ^= low
        return False


def _normalize_content(terms):
    if not terms:
        return terms
    g = 0
    for t in terms:
        g = gcd(g, t[2])
        if g == 1:
            break
    if terms[0][2] < 0:
        g = -g
    if g != 1:
        terms = [(k, m, c // g) for k, m, c in terms]
    return terms


def _int_terms(poly: Polynomial, pack: _Packing):
    """Packed terms of poly times the lcm of its denominators, and that lcm."""
    d = lcm(*(c.denominator for _, c in poly.terms))
    key, exps = pack.key, pack.exps
    return [(key(m), exps(m), c.numerator * (d // c.denominator)) for m, c in poly.terms], d


def _primitive_terms(poly: Polynomial, pack: _Packing):
    return _normalize_content(_int_terms(poly, pack)[0])


def _shifted(terms, shift, kshift):
    """Multiply by the packed monomial ``shift`` whose key int is ``kshift``."""
    if not shift:
        return list(terms)
    return [(k + kshift, m + shift, c) for k, m, c in terms]


def _combine(f, a, g, b):
    """a*f + b*g for descending keyed term lists (a, b integer scalars)."""
    out = []
    append = out.append
    i = j = 0
    nf, ng = len(f), len(g)
    while i < nf and j < ng:
        kf, mf, cf = f[i]
        kg, mg, cg = g[j]
        if kf > kg:
            append((kf, mf, a * cf))
            i += 1
        elif kg > kf:
            append((kg, mg, b * cg))
            j += 1
        else:
            v = a * cf + b * cg
            if v:
                append((kf, mf, v))
            i += 1
            j += 1
    out.extend((k, m, a * c) for k, m, c in f[i:])
    out.extend((k, m, b * c) for k, m, c in g[j:])
    return out


def _divide(p, reducers: _Reducers, bound=None):
    """Fraction-free full division of packed term list p: the one reduction loop.

    Each leading remaining term is reduced by the first reducer in list
    order whose leading term divides it; lt divides it when their
    difference has no guard bit set (see _Packing).  Only the candidates
    the support index gives (see _Reducers) are tested, lowest list
    position first, so the reducer found is the one a scan of the whole
    list would find.  Returns (rem, scale) with scale a positive integer
    and rem/scale the exact remainder of p.  A leading term with a guard
    bit set has an exponent above ring.MAX_EXPONENT, which no Polynomial
    may hold, and raises GuardrailError.

    ``bound``, the key int of a signature, makes the division regular
    (see _signature_step): a reducer with a signature may then reduce a
    term only if the multiple's signature, shift times its own, is
    smaller than the bound.  Reducers without one always may.

    The part of p not yet reduced or moved to rem is a sum of streams
    merged lazily in a max-heap (Johnson, "Sparse polynomial arithmetic",
    1974; Monagan and Pearce, "Polynomial division using dynamic arrays,
    heaps, and packed exponent vectors", 2007).  A stream is p itself or
    the tail of a reducer multiple: a term list read from a position,
    shifted by a packed monomial and its key int, times one integer.  The
    heap holds the negated key of each live stream's next term, and the
    streams whose next term has that key are chained under it, so one
    heap entry stands for every stream at a key.  The leading term sums
    the chain at the top key and advances each of its streams; a sum that
    cancels is skipped.  A reduction step starts one stream at the
    reducer's second term, and rescaling by a multiplies each live
    stream's coefficient, so each term of a reducer multiple is made
    once, when it reaches the top.  The streams sum exactly (integer
    arithmetic) to the polynomial that one list, rebuilt after every
    step, would hold.  So each step sees the same leading term, picks the
    same reducer and the same scalars a, b, and rem and scale are those
    of term-by-term division of one merged list.
    """
    rem: list = []
    scale = 1
    if not p:
        return rem, scale
    guard, ones, items = reducers.guard, reducers.ones, reducers.items
    candidates, sigs = reducers.candidates, reducers.sigs
    streams = [[p, 0, 0, 0, 1]]  # [terms, position, exponent shift, -key shift, coefficient]
    heap = [-p[0][0]]  # negated keys, each once
    chains = {heap[0]: [0]}  # negated key -> ids of the streams whose next term has it
    while heap:
        nk = heappop(heap)
        lc = 0
        for sid in chains.pop(nk):
            s = streams[sid]
            terms, i, ms, nks, c = s
            t = terms[i]
            lc += t[2] * c
            i += 1
            if i < len(terms):
                s[1] = i
                k = nks - terms[i][0]
                chain = chains.setdefault(k, [])
                if not chain:
                    heappush(heap, k)
                chain.append(sid)
        if not lc:
            continue
        lm = t[1] + ms
        if lm & guard:
            raise GuardrailError(f"an exponent exceeds MAX_EXPONENT = {MAX_EXPONENT}")
        cand = candidates((lm + ones) & guard)
        while cand:
            low = cand & -cand
            r = low.bit_length() - 1
            lt, ltc, gterms = items[r]
            shift = lm - lt
            if not shift & guard and (
                bound is None or sigs[r] is None or sigs[r] - nk - gterms[0][0] < bound
            ):
                break
            cand ^= low
        else:
            # a term equal to its stream's own tuple is kept, not copied
            rem.append(t if lc == t[2] and lm == t[1] else (-nk, lm, lc))
            continue
        g0 = gcd(lc, ltc)
        a = ltc // g0
        b = lc // g0
        if a != 1:
            scale *= a
            if rem:
                rem = [(kk, m, c * a) for kk, m, c in rem]
            for chain in chains.values():
                for sid in chain:
                    streams[sid][4] *= a
        if len(gterms) > 1:
            nks = gterms[0][0] + nk
            k = nks - gterms[1][0]
            chain = chains.setdefault(k, [])
            if not chain:
                heappush(heap, k)
            chain.append(len(streams))
            streams.append([gterms, 1, shift, nks, -b])
    return rem, scale


def _reduce_full(p, reducers: _Reducers):
    """Primitive full normal form of p: a nonzero rational multiple of the remainder."""
    return _normalize_content(_divide(p, reducers)[0])


def _divisors(polys, pack: _Packing) -> _Reducers:
    return _Reducers(pack, [_primitive_terms(g, pack) for g in polys])


def _spair_terms(f, g, lcm_exps, lcm_key):
    """Fraction-free S-polynomial of f and g; their leading monomials' lcm
    is lcm_exps packed, with key int lcm_key."""
    (kf, lf, cf), (kg, lg, cg) = f[0], g[0]
    g0 = gcd(cf, cg)
    return _combine(
        _shifted(f, lcm_exps - lf, lcm_key - kf),
        cg // g0,
        _shifted(g, lcm_exps - lg, lcm_key - kg),
        -(cf // g0),
    )


def _interreduce(term_lists, pack: _Packing) -> _Reducers:
    """Minimalize, then tail-reduce once (the leading terms are final).

    Returns the index of the canonical lists, ascending by leading term.
    Each element's tail is divided by the whole index: no term below a
    head is divisible by it, so that is division by all the others, the
    ones before it already reduced.
    """
    guard = pack.guard
    items = sorted((t for t in term_lists if t), key=lambda t: t[0][0])
    minimal = []
    for t in items:
        lt = t[0][1]
        if all((lt - m[0][1]) & guard for m in minimal):
            minimal.append(t)
    index = _Reducers(pack, minimal)
    for i, t in enumerate(minimal):
        rem, scale = _divide(t[1:], index)
        head = t[0] if scale == 1 else (t[0][0], t[0][1], t[0][2] * scale)
        reduced = _normalize_content([head] + rem)
        index.items[i] = (reduced[0][1], reduced[0][2], reduced)
    return index


def buchberger(ideal: Ideal, k: int = 0) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal in its ring's order.

    Deterministic and canonical: independent of generator order.  Two
    loops compute a basis.  Each grows one append-only reducer index,
    ``basis``, seeded with the known prefix (below), and buchberger
    interreduces it once when the loop ends (_interreduce), so the
    returned basis is the same reduced one, ascending by leading term,
    whichever ran.

    With k > 0 the ring's order must be block(k), and only the part of
    the basis that ``eliminate`` returns is finished: the index elements
    whose leading monomial is free of the first k variables are
    interreduced and turned into polynomials, and the rest are dropped.
    Under block(k) such an element has no term with those variables,
    and by the elimination theorem (Cox, Little and O'Shea, Ideals,
    Varieties, and Algorithms, ch. 3 sec. 1) these elements already
    form a Groebner basis of the elimination ideal.  The result is the
    same as the auxiliary-free elements of the full reduced basis, in
    the same order: a monomial free of the first k variables is divisible
    only by monomials free of them, and under block(k) it lies below
    every monomial that has one of them.  So _interreduce keeps the same
    minimal leading terms, every element after them in ascending order
    has an auxiliary variable, and each tail term is reduced by the same
    reducer with the same scales.  The result is the reduced basis of
    the ideal those elements generate in the ring, and is returned as
    that ideal's basis, never as the input's: it is not cached on it.

    * When an input outside the known prefix has both a constant term
      and a term of degree one, the pair loop runs (_pair_loop):
      Buchberger's pairs with the product and chain criteria.  The
      ML-degree fibers take it: the toric fiber's linear forms
      s * (a . p) - a . u*, and the Lagrange fiber's relations
      u*_i - p_i * (sum u* + ...), whose multiplier of sum p is fixed.
    * Otherwise the signature loop runs (_signature_loop): incremental,
      signature-based, so it skips the pairs that would reduce to zero
      on a regular sequence.  The correspondence's Lagrange
      eliminations (u is a variable there, so no constant term),
      homogeneous and lattice ideals and the saturations (t*f - 1, with
      no term of degree one when f has no constant term) take it.

    The rule exists because the signature loop was measured on every
    call.  On the Lagrange eliminations the pair loop's criteria keep
    many pairs that reduce to zero, and the signature loop reduces none
    of them.  On the ML-degree fibers it makes more reductions than the
    pair loop and takes longer.  On the saturations it pays on the toric
    benchmark and on the binary star, and loses on the binary 4-chain,
    whose toric relations are no regular sequence: taken one at a time,
    their intermediate ideals reach elements far larger than any in the
    final basis.  Sending inputs that outnumber the variables to the
    pair loop fixed the 4-chain but lost on the benchmark and on the
    star, whose relations outnumber their variables as much: the rule
    has no such clause.  The test reads only the inputs' terms of degree
    zero and one.

    When the ideal's leading generators are known to be a Groebner basis
    already (``saturate`` hands its GroebnerBasis to _eliminate_auxiliary
    as the base, which marks them so), they are registered as
    reducers without forming S-pairs among them: each such pair has a
    standard representation over them, so it counts as treated, and the
    Gebauer-Moeller criteria need no more (Gebauer and Moeller, "On an
    installation of Buchberger's algorithm", 1988).  Only pairs that
    involve the other generators and what they add are formed; the
    signature loop starts its first step from them.
    """
    ring = ideal.ring
    order = ring.order
    if k and order != MonomialOrder.block(k):
        raise ValueError(f"the part free of {k} variables needs block({k}), not {order.name}")
    pack = _packing(order, ring.nvars)
    known = ideal._known
    gens = ideal.generators[known:]
    inputs = [_primitive_terms(g, pack) for g in gens]
    inputs.sort(key=lambda t: (t[0][0], t))
    basis = _divisors(ideal.generators[:known], pack)
    # a constant term comes last
    affine = any(
        not any(g.terms[-1][0]) and any(sum(m) == 1 for m, _ in g.terms) for g in gens
    )
    loop = _pair_loop if affine else _signature_loop
    loop(inputs, basis, pack)
    aux = (1 << _FIELD * k) - 1  # the packed fields of the first k variables
    reduced = _interreduce([t for lt, _, t in basis.items if not lt & aux], pack)
    unpack = pack.unpack
    out = []
    for _, lc, t in reduced.items:
        out.append(
            Polynomial._raw(ring, tuple((unpack(m), Fraction(c, lc)) for _, m, c in t))
        )
    gb = GroebnerBasis(Ideal(ring, out) if k else ideal, out)
    gb._reducers = reduced
    return gb


def _pair_loop(inputs, basis: _Reducers, pack: _Packing):
    """Buchberger's pair loop: grow basis to a Groebner basis of basis + inputs.

    The basis grows as one append-only reducer index (_Reducers), in the
    order its elements are found, so a reduction here uses the first
    divisor found, and an S-pair names its elements by list position.
    Pairs go by degree, then by the key of their lcm (normal selection),
    and the product and chain criteria drop pairs Gebauer-Moeller style.
    Pairs among basis's own elements, the known prefix, are not formed.
    """
    guard = pack.guard
    items = basis.items
    pending: dict = {}  # (i, j) -> packed lcm of their leading monomials
    heap: list = []

    def add_poly(terms):
        new = len(items)
        lm = terms[0][1]
        cand = [pack.lcm(lt, lm) for lt, _, _ in items]
        basis.append(terms)
        # chain criterion over queued pairs
        for pair, l in list(pending.items()):
            i, j = pair
            if not (l - lm) & guard and cand[i] != l and cand[j] != l:
                del pending[pair]

        groups: dict = {}
        for g, l in enumerate(cand):
            groups.setdefault(l, []).append(g)
        for l, members in groups.items():
            if any(l2 != l and not (l - l2) & guard for l2 in groups):
                continue  # a pair whose lcm properly divides l covers these
            if any(items[g][0] + lm == l for g in members):
                continue  # product criterion: coprime leading monomials
            rep = min(members)
            pending[(rep, new)] = l
            e = pack.unpack(l)
            heappush(heap, (sum(e), pack.key(e), rep, new))

    for t in inputs:
        r = _reduce_full(t, basis)
        if r:
            add_poly(r)

    while heap:
        _, kl, i, j = heappop(heap)
        l = pending.pop((i, j), None)
        if l is None:
            continue
        r = _reduce_full(_spair_terms(items[i][2], items[j][2], l, kl), basis)
        if r:
            add_poly(r)


def _signature_loop(inputs, basis: _Reducers, pack: _Packing):
    """Incremental signature loop: grow basis to a Groebner basis of basis + inputs.

    basis, a Groebner basis (the known prefix, perhaps empty), takes the
    inputs one at a time.  Each input is reduced by the basis so far; if
    it does not reduce to zero, one signature step (_signature_step)
    appends what it adds.  The basis is not interreduced between inputs:
    a step needs only that it is a Groebner basis of the ideal so far,
    and the appended union is one.
    """
    for f in inputs:
        f = _reduce_full(f, basis)
        if f:
            _signature_step(f, basis, pack)


def _signature_step(f, basis: _Reducers, pack: _Packing, stop=False) -> bool:
    """Grow the Groebner basis B, given as its reducer index, to one of B + (f).

    This is the GVW framework (Gao, Volny and Wang, "A new framework for
    computing Groebner bases", Math. Comp. 2016) in position-over-term
    order, one generator at a time as in F5 (Faugere, 2002).  Every
    element e of the step is a multiple of f, modulo the ideal of B,
    with a leading monomial sig(e): its signature, a monomial with its
    key int.  f itself has signature 1.  Elements of B have none and
    reduce everything; a step element reduces a term, top or tail, only
    if shift * sig < the signature of what is reduced (regular reduction,
    the ``bound`` of _divide).  The step's elements are appended to
    basis with their signature keys, and when the step ends those keys
    are cleared: the elements are then part of B, for the next step and
    for the interreduction.  B need not be reduced or minimal.

    J-pairs go by increasing signature T, and at most one pair with a
    given T is reduced: the one whose multiple has the smallest leading
    monomial.  A pair is the multiple of the side whose sig - lm key
    difference is larger, since a multiple keeps its side's difference;
    equal differences make no regular pair.  A pair is dropped when T is
    divisible by a known syzygy signature: a leading monomial of B (the
    F5 criterion, read from basis below the step's first position) or
    the signature of a reduction to zero.  Both tests run when the pair
    is made, before its lcm is keyed and before it is queued; a pair
    with an element b of B tries lm(b) first, which divides T exactly
    when gcd(lm b, lm g) divides sig(g).  When a pair is popped, the zero
    test runs again, for the zeros found since it was made, and the pair
    is skipped when it is covered: some step element g has sig(g) | T
    and (T / sig(g)) lm(g) < the multiple's leading monomial.  When no
    pair is left, B and the step's elements are a Groebner basis of
    B + (f).

    A nonzero remainder is never singular top-reducible, so it needs no
    test for that.  The multiple's leading monomial is the pair's lcm,
    which the pair's other side divides at a smaller signature (or with
    none, in B), so regular reduction removes it and the remainder's
    leading monomial lm(r) lies below it.  A step element g with
    (lm(r) / lm(g)) sig(g) = T would then have sig(g) | T and
    (T / sig(g)) lm(g) = lm(r), below the multiple's leading monomial:
    g would have covered the pair.

    Testing when a pair is made reduces the same pairs, in the same
    order, as testing only when it is popped.  The F5 verdict depends on
    T and on B's leading monomials alone, which the step does not
    change, so all the pairs at one T share it, and the one kept per T
    is the same.  Zero signatures only accumulate, so a pair dropped
    when made would have been dropped when popped.

    A syzygy signature is the leading monomial of some u with u*f in the
    ideal of B, that is of an element of B : f.  The principal syzygy
    e'u - eu' of two step elements, with u*f = e and u'*f = e' modulo B,
    lies in B's ideal itself, so its signature, where the two products
    do not cancel, is a leading monomial of B: the F5 criterion already
    holds it, and so it is not kept.  Returns whether the step made no
    reduction to zero; with ``stop`` it ends at the first one, whose
    signature B's leading monomials do not divide: u is then not in B's
    ideal (see saturate), and basis holds a partial step.
    """
    guard = pack.guard
    items, sigs = basis.items, basis.sigs
    nb = len(items)
    zeros = []  # packed signatures of the reductions to zero
    sexps = {}  # position of a step element -> its packed signature
    pending: dict = {}  # signature key -> (top key, signature, position, shift, shift key)
    heap: list = []

    def add(terms, se, sk):
        new = len(items)
        lm = terms[0][1]
        ratio = sk - terms[0][0]  # sig / lm, as a key difference
        basis.append(terms, sk)
        sexps[new] = se
        for q in range(new):
            lq, _, qterms = items[q]
            l = pack.lcm(lq, lm)
            if l == lq + lm:
                continue  # coprime: T is a principal syzygy's, or B's, so F5 holds it
            # the J-pair is the multiple of the side with the larger signature:
            # a multiple's sig key - lm key is its side's, so compare those
            i = new
            if q >= nb:
                rq = sigs[q] - qterms[0][0]
                if rq == ratio:
                    continue  # not a regular pair
                if rq > ratio:
                    i = q
            shift = l - items[i][0]
            t = shift + sexps[i]
            if q < nb and not (t - lq) & guard or basis.divides(t, nb):
                continue  # F5 criterion: lm(q) itself, else any lm of B
            if any(not (t - z) & guard for z in zeros):
                continue  # the signature of a reduction to zero divides T
            kl = pack.key(pack.unpack(l))
            kshift = kl - items[i][2][0][0]
            tk = kshift + sigs[i]
            old = pending.get(tk)
            if old is not None and old[0] <= kl:
                continue
            if old is None:
                heappush(heap, tk)
            pending[tk] = (kl, t, i, shift, kshift)

    add(f, 0, 0)
    while heap:
        tk = heappop(heap)
        top, t, i, shift, kshift = pending.pop(tk)
        if any(not (t - z) & guard for z in zeros):
            continue  # a syzygy signature found since the pair was made
        if any(
            not (t - se) & guard and tk - sigs[g] + items[g][2][0][0] < top
            for g, se in sexps.items()
        ):
            continue  # covered
        r = _normalize_content(_divide(_shifted(items[i][2], shift, kshift), basis, tk)[0])
        if not r:
            zeros.append(t)
            if stop:
                break
            continue
        add(r, t, tk)
    sigs[nb:] = [None] * (len(items) - nb)
    return not zeros


# ---------------------------------------------------------------------------
# public field-exact operations


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Remainder of f on division by the listed polynomials.

    Deterministic: at each step the leading remaining term is reduced
    by the first divisor in list order; irreducible terms move to the
    remainder.  f - normal_form(f, G) lies in the ideal generated by G.
    A GroebnerBasis is scanned in basis order.
    """
    ring = f.ring
    pack = _packing(ring.order, ring.nvars)
    if isinstance(basis, GroebnerBasis):
        if basis.ring != ring:
            raise ValueError("Groebner basis lives in a different ring")
        reducers = basis._index()
    else:
        basis = list(basis)
        if any(g.ring != ring for g in basis):
            raise ValueError("divisor lives in a different ring")
        reducers = _divisors(basis, pack)
    if not reducers or not f.terms:
        return f
    p, denom = _int_terms(f, pack)
    rem, scale = _divide(p, reducers)
    scale *= denom
    unpack = pack.unpack
    return Polynomial._raw(ring, tuple((unpack(m), Fraction(c, scale)) for _, m, c in rem))


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """The S-polynomial of two nonzero polynomials in a shared ring."""
    if f.ring != g.ring:
        raise ValueError("polynomials live in different rings")
    if not f.terms or not g.terms:
        raise ValueError("S-polynomials need nonzero polynomials")
    lf, lg = f.leading_monomial(), g.leading_monomial()
    lcm_m = tuple(max(a, b) for a, b in zip(lf, lg))
    ring = f.ring
    mf = Polynomial._raw(
        ring, ((tuple(a - b for a, b in zip(lcm_m, lf)), 1 / f.leading_coefficient()),)
    )
    mg = Polynomial._raw(
        ring, ((tuple(a - b for a, b in zip(lcm_m, lg)), 1 / g.leading_coefficient()),)
    )
    return mf * f - mg * g


def ideal_contains(ideal: Ideal, f: Polynomial) -> bool:
    if f.ring != ideal.ring:
        raise ValueError("polynomial lives in a different ring")
    return not normal_form(f, ideal.groebner()).terms


def ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Mutual containment via reduction against the other side's basis."""
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    return a is b or (_ideal_leq(a, b) and _ideal_leq(b, a))


def _ideal_leq(a: Ideal, b: Ideal) -> bool:
    gb_b = b.groebner()
    return not any(normal_form(g, gb_b).terms for g in a.generators)


# ---------------------------------------------------------------------------
# elimination and saturation


def eliminate(ideal: Ideal, k: int) -> Ideal:
    """Intersect with the subring omitting the first k variables.

    Computed with a block(k) order, whose tail is grevlex: buchberger
    finishes only the basis elements free of the first k variables,
    which are the elimination ideal's basis (see buchberger), and only
    they are converted.  The result lives in the restricted ring, whose
    order is the input ring's order on the remaining variables.  Its
    generators always generate the elimination ideal, but they form that
    ring's reduced basis only when its order is grevlex, as when the
    input ring is grevlex or block(k).  block(k) restricted to monomials
    free of the first k variables is grevlex, so then each element's
    terms are already in the subring's order, and the result is built
    there as it stands and carries them as its cached Groebner basis:
    its ``groebner()`` costs nothing and a later ``saturate`` can start
    from it.  Under lex, say, they are re-sorted, and need not be monic
    or reduced.  An input already in the block(k) ring is used as it
    stands, with any cached basis or known generators it has.  The
    input's full basis is never computed, so none is cached on it.
    """
    ring = ideal.ring
    n = ring.nvars
    if k < 0 or k >= n:
        raise ValueError(f"cannot eliminate {k} of {n} variables")
    if k == 0:
        return ideal
    block_ring = PolyRing(ring.variables, MonomialOrder.block(k))
    if ring != block_ring:
        ideal = Ideal(block_ring, [map_to_ring(g, block_ring) for g in ideal.generators])
    if ideal._gb is None:
        basis = buchberger(ideal, k).basis
    else:  # a full basis cached on a block(k) input
        basis = [g for g in ideal._gb.basis if not any(g.terms[0][0][:k])]
    sub = PolyRing(ring.variables[k:], _restrict_order(ring.order, range(k, n)))
    if sub.order != GREVLEX:
        return Ideal(sub, [sub.poly([(m[k:], c) for m, c in g.terms]) for g in basis])
    gens = [Polynomial._raw(sub, tuple((m[k:], c) for m, c in g.terms)) for g in basis]
    return Ideal._of_basis(sub, gens)


def _eliminate_auxiliary(ring: PolyRing, k: int, build, base=()) -> Ideal:
    """Add k auxiliary variables to ring, build an ideal, eliminate them again.

    The auxiliary variables are named t_0..t_{k-1}, or t1_0.., t2_0..,
    and so on, the first of these lists that shares no name with the
    ring.  They go in front of the ring's variables under block(k), and
    build(aux, variables), given the extension ring's generators in
    those two groups, returns the generators that involve them.  The
    ideal is those and ``base``, polynomials in ring's variables, mapped
    into the extension ring.  Its elimination ideal is returned in ``ring``.  With
    k = 0 the extension ring is ``ring`` and the ideal is returned as
    built.

    A ``base`` that is a GroebnerBasis, in ``ring``'s order and grevlex
    when k > 0, is a known prefix: ``buchberger`` does not pair it with
    itself.  block(k) restricted to monomials free of the auxiliary
    variables is grevlex, so it is still a Groebner basis there.
    """
    taken = set(ring.variables)
    for i in itertools.count():
        names = tuple(f"t{i or ''}_{j}" for j in range(k))
        if taken.isdisjoint(names):
            break
    ext = PolyRing(names + ring.variables, MonomialOrder.block(k) if k else ring.order)
    gens = ext.gens()
    ideal = Ideal(ext, [map_to_ring(g, ext) for g in base] + build(gens[:k], gens[k:]))
    if isinstance(base, GroebnerBasis):
        ideal._known = len(base)
    elim = eliminate(ideal, k)
    if elim.ring == ring:
        return elim
    return Ideal(ring, [map_to_ring(g, ring) for g in elim.generators])


def saturate(ideal: Ideal, f: Polynomial) -> Ideal:
    """The saturation I : f^infinity: eliminate t from I + (t*f - 1).

    t is a fresh auxiliary variable, so the ring may use any names.  When
    the ring is grevlex and I's reduced basis G is already known (I came
    from ``eliminate`` or ``groebner()`` was called on it), two things
    change.

    First, two kinds of saturation need no auxiliary variable and no
    elimination.  Let r be the remainder of f on division by G.  If r is
    zero, f lies in I, so I : f holds 1 and the result is the unit ideal,
    returned with (1) as its cached basis, as the elimination would give
    it.  A saturation that changes nothing is proved so by one signature
    step (_colon_is_trivial).  If r is nonzero, one step of the
    signature loop (_signature_step) runs for G + (r) in the ring's own
    order.  Each reduction to zero in it has a signature
    that no leading monomial of G divides, and that signature is the
    leading monomial of some u with u*r, and so u*f, in I: an element of
    I : f outside I.  When the step ends, the leading monomials of G and
    those signatures generate the leading ideal of I : f (Gao, Volny and
    Wang, "A new framework for computing Groebner bases", Math. Comp.
    2016; Gao, Guan and Volny, "A new incremental algorithm for computing
    Groebner bases", ISSAC 2010, where I : f is a by-product of this
    step).  So if the step made no reduction to zero, I : f has the
    leading ideal of I and contains I, so it is I, and so is I : f^k for
    every k: the result is G itself.  The step stops at its first
    reduction to zero, since the saturation is then larger than I, and
    the elimination below runs.

    Second, the elimination starts from G + (t*f - 1), and Buchberger
    forms no S-pair within G.  This is exact: block(1) restricted to
    t-free monomials is grevlex, so G stays a Groebner basis of I*Q[t, x],
    and every pair within it has a standard representation over it.  The
    one input t*f - 1 takes the signature loop (see buchberger), as one
    signature step over G.  It is a nonzerodivisor modulo G (its
    constant term is a unit), so a leading monomial of G divides every
    syzygy signature of that step, the F5 criterion skips each such
    pair, and the step reduces nothing to zero.

    Without a cached G, or under any other order, where G would not be a
    basis for block(1), I is saturated from its generators.  Under
    grevlex that is the same work in the same loop: buchberger sorts
    t*f - 1, whose leading monomial holds t, after I's generators, so
    the signature loop builds a basis of I and then runs the one step.
    Computing I's reduced basis first, to try the two shortcuts above on
    it, made the toric benchmark slower.  The result is the same reduced
    basis in every case.
    """
    ring = ideal.ring
    if f.ring != ring:
        raise ValueError("polynomial lives in a different ring")
    if not f.terms:
        raise ValueError("cannot saturate by the zero polynomial")
    gb = ideal._gb if ring.order == GREVLEX else None
    if gb is not None:
        reducers = gb._index()
        r = _reduce_full(_primitive_terms(f, _packing(GREVLEX, ring.nvars)), reducers)
        if not r:
            return Ideal._of_basis(ring, [ring.one()])
        if _colon_is_trivial(gb, r):
            return Ideal._of_basis(ring, gb.basis, reducers)

    def build(aux, _):
        t = aux[0]
        return [t * map_to_ring(f, t.ring) - 1]

    return _eliminate_auxiliary(ring, 1, build, ideal.generators if gb is None else gb)


def _colon_is_trivial(gb: GroebnerBasis, r) -> bool:
    """Whether one signature step proves I : f = I for I with reduced basis gb.

    r is the remainder of f on gb's reducer index, nonzero (f is not in
    I).  False when the step finds an element of I : f outside I.  The
    argument (see saturate) holds for any r and order, a constant term
    included: the fibers of a precomputed LikelihoodIdeal in ml_degree
    make such remainders, and proving their p_i saturations trivial is
    faster than eliminating t.  The step appends to a copy of the
    basis's index, so the index itself, which normal_form scans, stays
    as it is.
    """
    return _signature_step(r, gb._index().copy(), _packing(gb.order, gb.ring.nvars), stop=True)


def saturate_by_product(ideal: Ideal, factors) -> Ideal:
    """I : (f1*...*fm)^infinity, by one saturation per factor.

    (I : f^infinity) : g^infinity = I : (f*g)^infinity (Cox, Little and
    O'Shea, Ideals, Varieties, and Algorithms, Ch. 4), so one pass over
    the factors, in any order, gives the saturation by their product.
    """
    for f in factors:
        ideal = saturate(ideal, f)
    return ideal


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """The intersection of two ideals in the same ring.

    Uses the auxiliary-variable trick: t*A + (1-t)*B restricted to the
    t-free subring, with t a fresh auxiliary variable.
    """
    if a.ring != b.ring:
        raise ValueError("ideals live in different rings")
    ring = a.ring
    if not a.generators or not b.generators:
        return Ideal(ring, ())

    def build(aux, _):
        t = aux[0]
        return [t * map_to_ring(g, t.ring) for g in a.generators] + [
            (1 - t) * map_to_ring(g, t.ring) for g in b.generators
        ]

    return _eliminate_auxiliary(ring, 1, build)


def krull_dimension(gb: GroebnerBasis) -> int:
    """Krull dimension of R/I, read off the leading monomials.

    The dimension equals the largest set of variables whose coordinate
    subspace avoids every leading monomial — the variable count minus
    a minimum hitting set of the leading supports.  The unit ideal
    yields -1 (empty spectrum).
    """
    basis = list(gb.basis)
    n = gb.ring.nvars
    if any(g.is_constant() for g in basis):
        return -1
    supports = {
        frozenset(i for i, e in enumerate(g.leading_monomial()) if e) for g in basis
    }
    minimal = [s for s in supports if not any(o < s for o in supports)]
    best = [n]

    def cover(unhit, chosen):
        if chosen >= best[0]:
            return
        if not unhit:
            best[0] = chosen
            return
        branch = min(unhit, key=len)
        for v in sorted(branch):
            cover([s for s in unhit if v not in s], chosen + 1)

    cover(minimal, 0)
    return n - best[0]


# ---------------------------------------------------------------------------
# minors


def _det(rows) -> Polynomial:
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    ring = rows[0][0].ring
    acc = ring.zero()
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * _det(minor)
        acc = acc - term if j % 2 else acc + term
    return acc


def minors(k: int, rows) -> Ideal:
    """The ideal of all k x k minors of a matrix given by its rows.

    The rows are sequences of polynomials over one ring, all of one
    length; ragged rows or mixed rings raise ValueError.  Row sets, then
    column sets, go in combinations order, and zero minors are dropped.
    """
    rows = [tuple(row) for row in rows]
    ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged rows in matrix")
    if k < 1:
        raise ValueError("minor size must be at least 1")
    if k > min(len(rows), ncols):
        raise ValueError(f"no {k}x{k} minors in a {len(rows)}x{ncols} matrix")
    ring = rows[0][0].ring
    if any(not isinstance(e, Polynomial) or e.ring != ring for row in rows for e in row):
        raise ValueError("all entries must be polynomials in one ring")
    return Ideal(ring, [
        _det([[rows[i][j] for j in cols] for i in picked])
        for picked in itertools.combinations(range(len(rows)), k)
        for cols in itertools.combinations(range(ncols), k)
    ])


# ---------------------------------------------------------------------------
# dimension-zero bookkeeping


def _pure_power_bounds(lts, n: int):
    """Per variable i, the least e with x_i^e in lts, else 0; None if lts holds 1."""
    bounds = [0] * n
    for m in lts:
        e = sum(m)
        if not e:
            return None
        if e == max(m):  # a pure power of the one variable it involves
            i = m.index(e)
            bounds[i] = min(bounds[i] or e, e)
    return bounds


def is_zero_dimensional(gb: GroebnerBasis) -> bool:
    """True iff the quotient by the ideal is a finite-dimensional vector space."""
    bounds = _pure_power_bounds(gb.leading_monomials(), gb.ring.nvars)
    return bounds is None or all(bounds)


def quotient_dimension(gb: GroebnerBasis) -> int:
    """Number of standard monomials of a zero-dimensional ideal."""
    lts = gb.leading_monomials()
    n = gb.ring.nvars
    bounds = _pure_power_bounds(lts, n)
    if bounds is None:
        return 0
    if not all(bounds):
        raise ValueError("ideal is not zero-dimensional")
    if prod(bounds) > STANDARD_MONOMIAL_CAP:
        raise GuardrailError(
            f"standard monomial box {prod(bounds)} exceeds cap {STANDARD_MONOMIAL_CAP}"
        )

    def count(level: int, active) -> int:
        if any(all(m[j] == 0 for j in range(level, n)) for m in active):
            return 0
        if level == n:
            return 1
        total = 0
        for e in range(bounds[level]):
            total += count(level + 1, [m for m in active if m[level] <= e])
        return total

    return count(0, lts)


# ---------------------------------------------------------------------------
# ideal text format
#
#   ring p_0..p_2 u_0 u_1      (ranges or single names)
#   order grevlex              (optional; lex or grevlex, default grevlex)
#   4*p_0*p_2 - p_1^2          (one polynomial per line)
#
# '#' starts a comment; blank lines are ignored.  The ring line names at
# most _MAX_TEXT_VARIABLES variables; a range's length is checked before
# it is expanded, so p_0..p_400000 is refused at once.

_MAX_TEXT_VARIABLES = 1024
_VAR_SPLIT_RE = re.compile(r"([A-Za-z][A-Za-z0-9]*?)_?([0-9]+)\Z")


def _expand_var_token(token: str, lineno: int, room: int) -> list[str]:
    """The names a ring-line token stands for; ParseError past ``room`` of them."""
    lo = hi = 0
    if ".." in token:
        left, right = token.split("..", 1)
        ml = _VAR_SPLIT_RE.match(left)
        mr = _VAR_SPLIT_RE.match(right)
        if not ml or not mr or ml.group(1) != mr.group(1):
            raise ParseError(f"bad variable range {token!r}", lineno, 1)
        if any(m.group(2) != "0" and m.group(2)[0] == "0" for m in (ml, mr)):
            # a range expands to canonical spellings, so p_00..p_02 would make p_0..p_2
            raise ParseError(f"zero-padded index in variable range {token!r}", lineno, 1)
        try:
            lo, hi = int(ml.group(2)), int(mr.group(2))
        except ValueError:  # past sys.get_int_max_str_digits()
            digits = max(len(ml.group(2)), len(mr.group(2)))
            raise ParseError(f"variable range index of {digits} digits is too long", lineno, 1) from None
        if lo > hi:
            raise ParseError(f"descending variable range {token!r}", lineno, 1)
    if hi - lo >= room:  # before a range is expanded
        raise ParseError(f"the ring line names more than {_MAX_TEXT_VARIABLES} variables", lineno, 1)
    if ".." not in token:
        return [token]
    sep = "_" if "_" in left else ""
    return [f"{ml.group(1)}{sep}{i}" for i in range(lo, hi + 1)]


def parse_ideal_text(text: str) -> Ideal:
    """Parse the ideal text format into an Ideal in a fresh ring."""
    lines = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((lineno, line))
    if not lines:
        raise ParseError("ideal text is empty", 1, 1)
    lineno, header = lines[0]
    parts = header.split()
    if parts[0] != "ring" or len(parts) < 2:
        raise ParseError("ideal text must start with a 'ring' line", lineno, 1)
    names: list[str] = []
    for token in parts[1:]:
        names.extend(_expand_var_token(token, lineno, _MAX_TEXT_VARIABLES - len(names)))
    body = lines[1:]
    order = GREVLEX
    tokens = body[0][1].split() if body else []
    valid = len(tokens) == 2 and tokens[1] in ("lex", "grevlex")
    # in a ring with a variable named order, only a valid order line is one
    if tokens[:1] == ["order"] and (valid or "order" not in names):
        lineno = body[0][0]
        if not valid:
            raise ParseError("order line must be 'order lex' or 'order grevlex'", lineno, 1)
        order = LEX if tokens[1] == "lex" else GREVLEX
        body = body[1:]
    try:
        ring = PolyRing(names, order)
    except ValueError as exc:
        raise ParseError(str(exc), lineno, 1) from None
    gens = []
    for lineno, line in body:
        try:
            gens.append(parse_polynomial(line, ring))
        except ParseError as exc:
            raise ParseError(exc.reason, lineno, exc.column) from None
    return Ideal(ring, gens)


def _group_var_names(names) -> str:
    """The ring line: runs of names stem_i, stem_i+1, ... become one range.

    Only names whose index has its canonical spelling join a run, since
    a range expands to canonical spellings (p_00 must not print as p_0).
    """
    keys = []
    for name in names:
        m = _VAR_SPLIT_RE.match(name)
        canonical = m and "_" in name and (m.group(2) == "0" or m.group(2)[0] != "0")
        try:
            keys.append((m.group(1), int(m.group(2))) if canonical else None)
        except ValueError:  # an index past sys.get_int_max_str_digits() joins no run
            keys.append(None)
    tokens = []
    i = 0
    while i < len(names):
        j = i
        if keys[i]:
            stem, start = keys[i]
            while j + 1 < len(names) and keys[j + 1] == (stem, start + j + 1 - i):
                j += 1
        tokens.append(names[i] if j == i else f"{names[i]}..{names[j]}")
        i = j + 1
    return " ".join(tokens)


def format_ideal(ideal: Ideal) -> str:
    """Inverse of parse_ideal_text (for lex/grevlex rings)."""
    order = ideal.ring.order
    if order.kind == "block":
        raise ValueError("block orders have no text form")
    lines = [f"ring {_group_var_names(ideal.ring.variables)}", f"order {order.name}"]
    lines.extend(print_polynomial(g) for g in ideal.generators)
    return "\n".join(lines) + "\n"
