"""Discrete random variables and graphical model skeletons.

A discrete random variable has states 1..d and an exact rational
probability mass function.  Sampling is deterministic given a seed:
draws come from a SplitMix64 stream mapped to [0, 1) with 53 bits and
inverted through the CDF, so results are reproducible across platforms.

Model JSON (used by the CLI)::

    {"variables": [{"name": "a", "arity": 2, "pmf": ["1/2", "1/2"]}, ...],
     "edges": [["a", "b"], ...]}

``generators`` (a list of name lists) is accepted in place of
``edges`` to describe a log-linear model directly.  pmf entries may be
rational strings, decimal strings, or numbers, but not booleans;
decimals are read as exact fractions, and a zero denominator is an
error, as is a decimal whose exact fraction needs more digits than
``sys.get_int_max_str_digits()``.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction

from .errors import InputError

__all__ = [
    "SplitMix64",
    "DiscreteRandomVariable",
    "ModelGraph",
    "maximal_cliques",
    "parse_model_json",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """The SplitMix64 generator (standard constants), 64-bit state."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_unit(self) -> Fraction:
        """Exact uniform draw from {k/2^53 : 0 <= k < 2^53}."""
        return Fraction(self.next_u64() >> 11, 1 << 53)

    def next_int(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi], by rejection; spans above 2^64 are refused."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        if span > 1 << 64:
            raise ValueError(f"range [{lo}, {hi}] holds more than 2^64 integers")
        limit = (1 << 64) - ((1 << 64) % span)
        while True:
            z = self.next_u64()
            if z < limit:
                return lo + (z % span)


def derive_seed(seed: int, index: int) -> int:
    """A per-stream seed for (seed, index), itself a SplitMix64 output."""
    return SplitMix64((seed + (index + 1) * _GOLDEN) & _MASK64).next_u64()


# a decimal as Fraction reads it: integer digits, fraction digits, exponent
_DECIMAL_RE = re.compile(r"\s*[-+]?([\d_]*)(?:\.([\d_]*))?(?:[eE]([-+]?[\d_]+))?\s*\Z")


def _too_long(text: str, limit: int) -> bool:
    """Whether the exact value of a decimal needs more than ``limit`` digits.

    m digits scaled by 10^k make a numerator of up to m + k digits when
    k >= 0; when k < 0 the denominator 10^-k has 1 - k digits.  An
    exponent with more digits than ``limit`` is past it either way.
    """
    match = _DECIMAL_RE.match(text)
    if not match:
        return False
    whole, frac, exp = (g.replace("_", "") for g in match.groups(""))
    magnitude = exp.lstrip("+-").lstrip("0") or "0"
    if len(magnitude) > len(str(limit)):
        return True
    k = (-int(magnitude) if exp.startswith("-") else int(magnitude)) - len(frac)
    m = len(whole) + len(frac)
    return (m + k if k >= 0 else max(m, 1 - k)) > limit


def _as_fraction(value) -> Fraction:
    """Read one probability exactly: the one reader of rationals from user input.

    Fractions and ints pass; a float is read as the decimal it prints
    as, not the binary value underneath; a string must be a rational or
    a decimal.  Booleans and zero denominators are refused, and so is a
    decimal whose exact value needs more digits than
    ``sys.get_int_max_str_digits()``, before ``Fraction`` computes its
    power of ten.
    """
    if isinstance(value, (Fraction, int)) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, float):
        value = str(value)
    if isinstance(value, str):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if limit and _too_long(value, limit):
            raise ValueError(f"pmf entry {value!r} needs more than {limit} digits as an exact rational")
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"cannot read {value!r} as an exact rational")


class DiscreteRandomVariable:
    """A random variable with states 1..arity and an exact pmf."""

    __slots__ = ("name", "arity", "pmf")

    def __init__(self, arity: int, pmf=None, name: str = "x"):
        if not isinstance(arity, int) or isinstance(arity, bool) or arity < 1:
            raise ValueError("arity must be a positive integer")
        if pmf is None:
            probs = (Fraction(1, arity),) * arity
        else:
            if isinstance(pmf, dict):
                for s in pmf:
                    if not isinstance(s, int) or not 1 <= s <= arity:
                        raise ValueError(f"pmf state {s!r} outside 1..{arity}")
                probs = tuple(_as_fraction(pmf.get(s, 0)) for s in range(1, arity + 1))
            else:
                probs = tuple(_as_fraction(v) for v in pmf)
                if len(probs) != arity:
                    raise ValueError(f"pmf has {len(probs)} entries for arity {arity}")
        if any(p < 0 for p in probs):
            raise ValueError("pmf entries must be nonnegative")
        if sum(probs) != 1:
            raise ValueError(f"pmf sums to {sum(probs)}, not 1")
        object.__setattr__(self, "name", str(name))
        object.__setattr__(self, "arity", arity)
        object.__setattr__(self, "pmf", probs)

    def __setattr__(self, name, value):
        raise AttributeError("DiscreteRandomVariable is immutable")

    def states(self) -> list[int]:
        return list(range(1, self.arity + 1))

    def mean(self) -> Fraction:
        return sum((s * p for s, p in zip(self.states(), self.pmf)), Fraction(0))

    def sample(self, n: int, seed: int) -> list[int]:
        """n deterministic draws via inverse CDF over a SplitMix64 stream."""
        if n < 0:
            raise ValueError("sample size must be nonnegative")
        rng = SplitMix64(seed)
        cums = []
        acc = Fraction(0)
        for p in self.pmf:
            acc += p
            cums.append(acc)
        out = []
        for _ in range(n):
            r = rng.next_unit()
            for s, c in enumerate(cums, start=1):
                if r < c:
                    out.append(s)
                    break
            else:
                out.append(self.arity)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, DiscreteRandomVariable)
            and self.name == other.name
            and self.arity == other.arity
            and self.pmf == other.pmf
        )

    def __hash__(self):
        return hash((self.name, self.arity, self.pmf))

    def __repr__(self):
        return f"DiscreteRandomVariable({self.arity}, name={self.name!r})"


class ModelGraph:
    """An undirected graph on discrete random variables (no self-loops)."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges=()):
        verts = tuple(vertices)
        if not verts:
            raise ValueError("graph needs at least one vertex")
        for v in verts:
            if not isinstance(v, DiscreteRandomVariable):
                raise ValueError("graph vertices must be DiscreteRandomVariable")
        names = [v.name for v in verts]
        if len(set(names)) != len(names):
            raise ValueError("vertex names must be distinct")
        index = {n: i for i, n in enumerate(names)}
        pairs = set()
        for e in edges:
            a, b = e
            a = a.name if isinstance(a, DiscreteRandomVariable) else str(a)
            b = b.name if isinstance(b, DiscreteRandomVariable) else str(b)
            if a not in index or b not in index:
                missing = a if a not in index else b
                raise ValueError(f"edge endpoint {missing!r} is not a vertex")
            if a == b:
                raise ValueError(f"self-loop at {a!r}")
            pairs.add(frozenset((a, b)))
        object.__setattr__(self, "vertices", verts)
        object.__setattr__(self, "edges", frozenset(pairs))

    def __setattr__(self, name, value):
        raise AttributeError("ModelGraph is immutable")

    def vertex(self, name: str) -> DiscreteRandomVariable:
        for v in self.vertices:
            if v.name == name:
                return v
        raise ValueError(f"no vertex named {name!r}")

    def adjacency(self) -> list[set[int]]:
        index = {v.name: i for i, v in enumerate(self.vertices)}
        adj: list[set[int]] = [set() for _ in self.vertices]
        for e in self.edges:
            a, b = tuple(e)
            adj[index[a]].add(index[b])
            adj[index[b]].add(index[a])
        return adj

    def __repr__(self):
        return f"ModelGraph({len(self.vertices)} vertices, {len(self.edges)} edges)"


def maximal_cliques(graph: ModelGraph) -> list[tuple[DiscreteRandomVariable, ...]]:
    """All maximal cliques, Bron-Kerbosch with pivoting.

    Cliques come back as tuples in vertex order; the list is sorted by
    those index tuples, so output is deterministic.  Isolated vertices
    appear as singleton cliques.
    """
    adj = graph.adjacency()
    n = len(adj)
    found: list[tuple[int, ...]] = []

    def expand(r: list[int], p: set[int], x: set[int]):
        if not p and not x:
            found.append(tuple(sorted(r)))
            return
        pivot = max(p | x, key=lambda u: (len(p & adj[u]), -u))
        for v in sorted(p - adj[pivot]):
            expand(r + [v], p & adj[v], x & adj[v])
            p.remove(v)
            x.add(v)

    expand([], set(range(n)), set())
    found.sort()
    return [tuple(graph.vertices[i] for i in clique) for clique in found]


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{what} must be a list")
    return value


def parse_model_json(text: str):
    """Parse model JSON.

    Returns a ModelGraph when the input carries ``edges`` and a pair
    (variables, generators) when it carries ``generators``.
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict) or "variables" not in data:
        raise InputError("model JSON must be an object with a 'variables' list")
    variables = []
    for entry in _json_list(data["variables"], "'variables'"):
        if not isinstance(entry, dict) or "name" not in entry or "arity" not in entry:
            raise InputError("each variable needs 'name' and 'arity'")
        if not isinstance(entry["name"], str):
            raise InputError(f"variable name {entry['name']!r} is not a string")
        pmf = entry.get("pmf")
        if pmf is not None:
            _json_list(pmf, f"variable {entry['name']!r}: pmf")
        try:
            variables.append(
                DiscreteRandomVariable(entry["arity"], pmf, name=entry["name"])
            )
        except ValueError as exc:
            raise InputError(f"variable {entry.get('name')!r}: {exc}") from None
    has_edges = "edges" in data
    has_gens = "generators" in data
    if has_edges and has_gens:
        raise InputError("model JSON cannot carry both 'edges' and 'generators'")
    if has_gens:
        by_name = {v.name: v for v in variables}
        generators = []
        for gen in _json_list(data["generators"], "'generators'"):
            members = []
            for name in _json_list(gen, "each generator"):
                if not isinstance(name, str) or name not in by_name:
                    raise InputError(f"generator member {name!r} is not a variable")
                members.append(by_name[name])
            generators.append(members)
        return variables, generators
    edges = _json_list(data.get("edges", []), "'edges'")
    for edge in edges:
        if not isinstance(edge, list) or len(edge) != 2:
            raise InputError(f"edge {edge!r} must be a pair of variable names")
    try:
        return ModelGraph(variables, edges)
    except ValueError as exc:
        raise InputError(str(exc)) from None
