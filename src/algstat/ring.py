"""Sparse multivariate polynomials over exact rationals.

A polynomial is an immutable tuple of (exponent vector, coefficient)
pairs kept strictly descending in its ring's monomial order, with no
zero coefficients.  Exponent vectors are dense tuples of naturals;
coefficients are `fractions.Fraction`.

Monomial orders: ``lex``, ``grevlex`` (the default), and ``block(k)``
elimination orders that compare the first k exponents by grevlex and
break ties by grevlex on the rest.

Polynomial text grammar (accepted by :func:`parse_polynomial`)::

    expr     := ['-'] term { ('+'|'-') term }
    term     := factor { '*' factor }
    factor   := rational | var ['^' natural] | '(' expr ')'
    rational := integer [ '/' positive-integer ]
    var      := letter { letter | digit } [ '_' natural ]

Whitespace is insignificant.  ``p_0`` and ``p0`` are accepted as
spellings of the same variable.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from fractions import Fraction
from math import gcd
from operator import neg

from .errors import ParseError

__all__ = [
    "MonomialOrder",
    "LEX",
    "GREVLEX",
    "PolyRing",
    "Polynomial",
    "parse_polynomial",
    "print_polynomial",
    "map_to_ring",
]

Monomial = tuple[int, ...]

# Exponents are bounded to a machine word so dense vectors stay cheap.
MAX_EXPONENT = 2**63 - 1


class MonomialOrder:
    """A total order on exponent vectors of a fixed length."""

    __slots__ = ("kind", "block_size")

    def __init__(self, kind: str, block_size: int = 0):
        if kind not in ("lex", "grevlex", "block"):
            raise ValueError(f"unknown monomial order kind {kind!r}")
        if kind == "block" and block_size < 1:
            raise ValueError("block order needs a positive block size")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "block_size", block_size if kind == "block" else 0)

    def __setattr__(self, name, value):
        raise AttributeError("MonomialOrder is immutable")

    @classmethod
    def block(cls, k: int) -> "MonomialOrder":
        """Eliminate the first k variables: grevlex on them, then grevlex on the rest."""
        return cls("block", k)

    @property
    def name(self) -> str:
        if self.kind == "block":
            return f"block({self.block_size})"
        return self.kind

    def sort_key(self, exps: Monomial):
        """A flat tuple of ints that sorts ascending in this order (bigger key = bigger monomial).

        grevlex: ``(deg, -e_n, ..., -e_1)``; lex: the exponents; block(k):
        the grevlex key of the first k exponents followed by that of the
        rest.  Every entry is linear in the exponents, so the key is
        additive: ``sort_key(a + b)`` is the entrywise sum of ``sort_key(a)``
        and ``sort_key(b)``.  The Groebner kernel relies on this: it packs
        the key into one int as the dot product of the exponents with the
        packed keys of the unit vectors, and moves the keys of a multiplied
        polynomial by one addition instead of recomputing them.  This
        method is the one definition of each order; the kernel's ints
        re-encode it.
        """
        kind = self.kind
        if kind == "grevlex":
            return (sum(exps), *map(neg, reversed(exps)))
        if kind == "lex":
            return exps
        k = self.block_size
        head, tail = exps[:k], exps[k:]
        return (sum(head), *map(neg, reversed(head)), sum(tail), *map(neg, reversed(tail)))

    def compare(self, a: Monomial, b: Monomial) -> int:
        """-1, 0, or 1 as a <, =, > b.  Vectors must have equal length."""
        if len(a) != len(b):
            raise ValueError("exponent vectors have different lengths")
        ka, kb = self.sort_key(a), self.sort_key(b)
        return (ka > kb) - (ka < kb)

    def __eq__(self, other):
        return (
            isinstance(other, MonomialOrder)
            and self.kind == other.kind
            and self.block_size == other.block_size
        )

    def __hash__(self):
        return hash((self.kind, self.block_size))

    def __repr__(self):
        return f"MonomialOrder({self.name})"


LEX = MonomialOrder("lex")
GREVLEX = MonomialOrder("grevlex")


_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:_[0-9]+)?\Z")


class PolyRing:
    """A polynomial ring over Q: an ordered tuple of variable names plus a monomial order.

    Rings compare by value, so independently constructed rings with the
    same variables and order are interchangeable.
    """

    __slots__ = ("variables", "order", "_index")

    def __init__(self, variables, order: MonomialOrder | None = None):
        names = tuple(str(v) for v in variables)
        if not names:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(names)) != len(names):
            raise ValueError("duplicate variable names")
        for n in names:
            if not _NAME_RE.match(n):
                raise ValueError(f"invalid variable name {n!r}")
        if order is None:
            order = GREVLEX
        if order.kind == "block" and order.block_size >= len(names):
            raise ValueError("block size must be smaller than the number of variables")
        object.__setattr__(self, "variables", names)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_index", {n: i for i, n in enumerate(names)})

    def __setattr__(self, name, value):
        raise AttributeError("PolyRing is immutable")

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def var_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ValueError(f"unknown variable {name!r}") from None

    def gen(self, which) -> "Polynomial":
        i = which if isinstance(which, int) else self.var_index(which)
        exps = tuple(1 if j == i else 0 for j in range(self.nvars))
        return Polynomial._raw(self, ((exps, Fraction(1)),))

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.gen(i) for i in range(self.nvars))

    def zero(self) -> "Polynomial":
        return Polynomial._raw(self, ())

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        if not c:
            return self.zero()
        return Polynomial._raw(self, (((0,) * self.nvars, c),))

    def poly(self, terms) -> "Polynomial":
        """Build a polynomial from {exponents: coeff} or (exponents, coeff) pairs."""
        items = terms.items() if isinstance(terms, dict) else terms
        acc: dict[Monomial, Fraction] = {}
        n = self.nvars
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError(f"exponent vector of length {len(exps)}, expected {n}")
            if any(e < 0 or e > MAX_EXPONENT for e in exps):
                raise ValueError("exponents must be naturals within machine-word range")
            coeff = Fraction(coeff)
            if exps in acc:
                acc[exps] += coeff
            else:
                acc[exps] = coeff
        key = self.order.sort_key
        kept = sorted(
            ((m, c) for m, c in acc.items() if c),
            key=lambda t: key(t[0]),
            reverse=True,
        )
        return Polynomial._raw(self, tuple(kept))

    def sum_of_gens(self) -> "Polynomial":
        return self.poly([((0,) * i + (1,) + (0,) * (self.nvars - i - 1), 1) for i in range(self.nvars)])

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PolyRing)
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self):
        return hash((self.variables, self.order))

    def __repr__(self):
        return f"PolyRing({', '.join(self.variables)}; {self.order.name})"


class Polynomial:
    """Immutable sparse polynomial attached to a PolyRing."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms):
        canonical = ring.poly(terms)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", canonical.terms)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @classmethod
    def _raw(cls, ring: PolyRing, terms) -> "Polynomial":
        # Trusted constructor: terms already canonical (sorted, no zeros).
        self = object.__new__(cls)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "terms", tuple(terms))
        return self

    # -- predicates and accessors -------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or not any(self.terms[0][0])

    def is_homogeneous(self) -> bool:
        return len({sum(m) for m, _ in self.terms}) <= 1

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0][0]

    def leading_coefficient(self) -> Fraction:
        if not self.terms:
            raise ValueError("the zero polynomial has no leading term")
        return self.terms[0][1]

    def leading_term(self) -> "Polynomial":
        return Polynomial._raw(self.ring, (self.terms[0],))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(m) for m, _ in self.terms)

    def constant_coefficient(self) -> Fraction:
        zero = (0,) * self.ring.nvars
        for m, c in self.terms:
            if m == zero:
                return c
        return Fraction(0)

    # -- arithmetic -----------------------------------------------------

    def _check_ring(self, other: "Polynomial"):
        if self.ring != other.ring:
            raise ValueError("polynomials live in different rings")

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._check_ring(other)
        acc = dict(self.terms)
        for m, c in other.terms:
            v = acc.get(m)
            if v is None:
                acc[m] = c
            else:
                v += c
                if v:
                    acc[m] = v
                else:
                    del acc[m]
        return self.ring.poly(acc)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self.ring, tuple((m, -c) for m, c in self.terms))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            return other
        if isinstance(other, (int, Fraction)):
            return self.ring.constant(other)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if not c:
                return self.ring.zero()
            return Polynomial._raw(self.ring, tuple((m, cc * c) for m, cc in self.terms))
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_ring(other)
        acc: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                v = acc.get(m)
                acc[m] = c1 * c2 if v is None else v + c1 * c2
        return self.ring.poly(acc)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take a natural exponent")
        result = self.ring.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base if e > 1 else base
            e >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ring.constant(other)
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        # constants compare equal to their coefficient, so they hash like it
        if self.is_constant():
            return hash(self.constant_coefficient())
        return hash((self.ring, self.terms))

    # -- calculus and rewriting -----------------------------------------

    def differentiate(self, var) -> "Polynomial":
        """Partial derivative with respect to the named (or indexed) variable."""
        i = var if isinstance(var, int) else self.ring.var_index(var)
        out = []
        for m, c in self.terms:
            e = m[i]
            if e:
                out.append((m[:i] + (e - 1,) + m[i + 1 :], c * e))
        return self.ring.poly(out)

    def substitute(self, bindings: dict) -> "Polynomial":
        """Substitute variables by scalars or same-ring polynomials.

        All-scalar bindings restrict the result to the ring on the
        unbound variables; if every variable is bound the result is a
        constant in the original ring.  Any polynomial binding keeps
        the result in the original ring.
        """
        ring = self.ring
        resolved: dict[int, object] = {}
        any_poly = False
        for name, val in bindings.items():
            i = ring.var_index(name) if not isinstance(name, int) else name
            if isinstance(val, Polynomial):
                if val.ring != ring:
                    raise ValueError("polynomial binding lives in a different ring")
                any_poly = True
                resolved[i] = val
            else:
                resolved[i] = Fraction(val)
        if any_poly:
            poly_bindings = {
                i: (v if isinstance(v, Polynomial) else ring.constant(v))
                for i, v in resolved.items()
            }
            result = ring.zero()
            pow_cache: dict[tuple[int, int], Polynomial] = {}
            for m, c in self.terms:
                piece = ring.constant(c)
                rest = list(m)
                for i, b in poly_bindings.items():
                    e = m[i]
                    rest[i] = 0
                    if e:
                        key = (i, e)
                        if key not in pow_cache:
                            pow_cache[key] = b**e
                        piece = piece * pow_cache[key]
                piece = piece * Polynomial._raw(ring, ((tuple(rest), Fraction(1)),))
                result = result + piece
            return result
        unbound = [i for i in range(ring.nvars) if i not in resolved]
        if not unbound:
            total = Fraction(0)
            for m, c in self.terms:
                v = c
                for i, e in enumerate(m):
                    if e:
                        v *= resolved[i] ** e
                total += v
            return ring.constant(total)
        target = PolyRing(
            tuple(ring.variables[i] for i in unbound),
            _restrict_order(ring.order, unbound),
        )
        out = []
        for m, c in self.terms:
            v = c
            for i, s in resolved.items():
                e = m[i]
                if e:
                    v *= s**e
            if v:
                out.append((tuple(m[i] for i in unbound), v))
        return target.poly(out)

    # -- normal forms of the coefficient vector ---------------------------

    def primitive_part(self) -> "Polynomial":
        """Scale to integer coefficients with content 1 and positive lead."""
        if not self.terms:
            return self
        denom_lcm = 1
        for _, c in self.terms:
            d = c.denominator
            denom_lcm = denom_lcm // gcd(denom_lcm, d) * d
        nums = [c.numerator * (denom_lcm // c.denominator) for _, c in self.terms]
        g = 0
        for v in nums:
            g = gcd(g, v)
            if g == 1:
                break
        if nums[0] < 0:
            g = -g
        return Polynomial._raw(
            self.ring,
            tuple((m, Fraction(v // g)) for (m, _), v in zip(self.terms, nums)),
        )

    def monic(self) -> "Polynomial":
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == 1:
            return self
        return Polynomial._raw(self.ring, tuple((m, c / lc) for m, c in self.terms))

    def __str__(self):
        return print_polynomial(self)

    def __repr__(self):
        return f"<{print_polynomial(self)}>"


def _restrict_order(order: MonomialOrder, keep) -> MonomialOrder:
    """The order induced on the variables at the ascending indices ``keep``."""
    if order.kind == "block":
        k = sum(1 for i in keep if i < order.block_size)
        if 0 < k < len(keep):
            return MonomialOrder.block(k)
        return GREVLEX
    return order


def print_polynomial(f: Polynomial) -> str:
    """Render in the text grammar: terms descending, explicit '*' and '^'."""
    if not f.terms:
        return "0"
    names = f.ring.variables
    out = []
    for idx, (mono, coeff) in enumerate(f.terms):
        factors = []
        for i, e in enumerate(mono):
            if e == 0:
                continue
            factors.append(names[i] if e == 1 else f"{names[i]}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if idx == 0:
            out.append(("-" if coeff < 0 else "") + body)
        else:
            out.append((" - " if coeff < 0 else " + ") + body)
    return "".join(out)


_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*(?:_[0-9]+)?|[0-9]+|[-+*^/()]|\S")


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind, text, line, col):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(text: str) -> list[_Token]:
    line_starts = [0]
    for i, ch in enumerate(text):
        if ch == "\n":
            line_starts.append(i + 1)
    toks = []
    for m in _TOKEN_RE.finditer(text):
        s = m.group(0)
        pos = m.start()
        line = bisect_left(line_starts, pos + 1)
        col = pos - line_starts[line - 1] + 1
        if s[0].isalpha():
            kind = "name"
        elif s[0].isdigit():
            kind = "int"
        elif s in "+-*^/()":
            kind = s
        else:
            raise ParseError(f"unexpected character {s!r}", line, col)
        toks.append(_Token(kind, s, line, col))
    return toks


class _Parser:
    def __init__(self, tokens: list[_Token], ring: PolyRing):
        self.toks = tokens
        self.pos = 0
        self.ring = ring

    def _peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def _next(self):
        tok = self._peek()
        if tok is not None:
            self.pos += 1
        return tok

    def _error(self, msg, tok=None):
        tok = tok or self._peek()
        if tok is None:
            last = self.toks[-1] if self.toks else None
            line = last.line if last else 1
            col = last.col + len(last.text) if last else 1
            raise ParseError(f"unexpected end of input: {msg}", line, col)
        raise ParseError(msg, tok.line, tok.col)

    def parse(self) -> Polynomial:
        if not self.toks:
            raise ParseError("empty polynomial text", 1, 1)
        p = self._expr()
        if self._peek() is not None:
            self._error(f"unexpected {self._peek().text!r}")
        return p

    def _expr(self) -> Polynomial:
        negate = False
        tok = self._peek()
        if tok is not None and tok.kind == "-":
            self._next()
            negate = True
        p = self._term()
        if negate:
            p = -p
        while True:
            tok = self._peek()
            if tok is None or tok.kind not in "+-":
                return p
            self._next()
            t = self._term()
            p = p + t if tok.kind == "+" else p - t

    def _term(self) -> Polynomial:
        p = self._factor()
        while True:
            tok = self._peek()
            if tok is None or tok.kind != "*":
                return p
            self._next()
            f = self._factor()
            try:
                p = p * f
            except ValueError:
                self._error("exponent of the product too large", tok)

    def _int(self, tok: _Token) -> int:
        try:
            return int(tok.text)
        except ValueError:  # past sys.get_int_max_str_digits()
            self._error(f"integer of {len(tok.text)} digits is too long", tok)

    def _factor(self) -> Polynomial:
        tok = self._peek()
        if tok is None:
            self._error("expected a number, variable, or '('")
        if tok.kind == "int":
            self._next()
            num = self._int(tok)
            nxt = self._peek()
            if nxt is not None and nxt.kind == "/":
                self._next()
                den_tok = self._next()
                if den_tok is None or den_tok.kind != "int":
                    self._error("expected a positive integer denominator", den_tok or tok)
                den = self._int(den_tok)
                if den == 0:
                    self._error("denominator must be positive", den_tok)
                return self.ring.constant(Fraction(num, den))
            return self.ring.constant(num)
        if tok.kind == "name":
            self._next()
            idx = self._resolve(tok)
            exp = 1
            nxt = self._peek()
            if nxt is not None and nxt.kind == "^":
                self._next()
                exp_tok = self._next()
                if exp_tok is None or exp_tok.kind != "int":
                    self._error("expected a natural exponent", exp_tok or tok)
                exp = self._int(exp_tok)
                if exp > MAX_EXPONENT:
                    self._error("exponent too large", exp_tok)
            n = self.ring.nvars
            exps = tuple(exp if j == idx else 0 for j in range(n))
            return Polynomial._raw(self.ring, ((exps, Fraction(1)),))
        if tok.kind == "(":
            self._next()
            p = self._expr()
            close = self._next()
            if close is None or close.kind != ")":
                self._error("expected ')'", close or tok)
            return p
        self._error(f"unexpected {tok.text!r}")

    def _resolve(self, tok: _Token) -> int:
        name = tok.text
        index = self.ring._index
        if name in index:
            return index[name]
        if "_" in name:
            alt = name.replace("_", "", 1)
            if alt in index:
                return index[alt]
        else:
            m = re.fullmatch(r"([A-Za-z][A-Za-z0-9]*?)([0-9]+)", name)
            if m:
                alt = f"{m.group(1)}_{m.group(2)}"
                if alt in index:
                    return index[alt]
        raise ParseError(f"unknown variable {name!r}", tok.line, tok.col)


def parse_polynomial(text: str, ring: PolyRing) -> Polynomial:
    """Parse the grammar in the module docstring into a canonical polynomial."""
    return _Parser(_tokenize(text), ring).parse()


def map_to_ring(f: Polynomial, target: PolyRing, rename: dict | None = None) -> Polynomial:
    """Map a polynomial into another ring by variable name (optionally renamed).

    Every variable actually appearing in f must exist in the target.
    """
    src = f.ring
    if src == target and not rename:
        return f
    rename = rename or {}
    idx_map: dict[int, int] = {}
    out = []
    n = target.nvars
    for m, c in f.terms:
        exps = [0] * n
        for i, e in enumerate(m):
            if not e:
                continue
            j = idx_map.get(i)
            if j is None:
                name = src.variables[i]
                j = target.var_index(rename.get(name, name))
                idx_map[i] = j
            exps[j] = e
        out.append((tuple(exps), c))
    return target.poly(out)
