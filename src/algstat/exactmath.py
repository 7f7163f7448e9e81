"""Exact integer matrices and lattice linear algebra.

Arbitrary-precision integers are plain Python ints and rationals are
`fractions.Fraction`, so every computation here is exact.  The matrix
type is deliberately small: a rectangular tuple-of-tuples of ints with
just the operations the toric machinery needs -- products, transpose,
Hermite normal form, integer kernels, and lattice span comparison.

Matrix text format (used by the CLI): one row per line, entries in
base 10 separated by single spaces; blank lines and ``#`` comments are
ignored.
"""

from __future__ import annotations

from operator import index as _as_int

from .errors import InputError

__all__ = [
    "IntMatrix",
    "hnf",
    "integer_kernel",
    "lattice_span_equal",
    "det",
    "parse_int_matrix",
    "format_int_matrix",
]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: (g, x, y) with g = gcd(a, b) = x*a + y*b and g >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IntMatrix:
    """Immutable rectangular matrix of arbitrary-precision integers."""

    __slots__ = ("entries", "ncols")

    def __init__(self, rows, cols: int | None = None):
        ents = tuple(tuple(_as_int(x) for x in row) for row in rows)
        if ents:
            width = len(ents[0])
            if any(len(r) != width for r in ents):
                raise ValueError("ragged rows in matrix")
            if cols is not None and cols != width:
                raise ValueError("explicit column count disagrees with rows")
        else:
            if cols is None:
                raise ValueError("a matrix with no rows needs an explicit column count")
            width = cols
        object.__setattr__(self, "entries", ents)
        object.__setattr__(self, "ncols", width)

    def __setattr__(self, name, value):
        raise AttributeError("IntMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.entries)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)), cols=n)

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else (), cols=self.nrows)

    def __mul__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        cols = other.transpose().entries
        return IntMatrix(
            tuple(tuple(sum(a * b for a, b in zip(r, c)) for c in cols) for r in self.entries),
            cols=other.ncols,
        )

    def __eq__(self, other):
        return (
            isinstance(other, IntMatrix)
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.entries, self.ncols))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def __str__(self):
        return format_int_matrix(self).rstrip("\n")


def hnf(m: IntMatrix) -> tuple[IntMatrix, IntMatrix]:
    """Row-style Hermite normal form.

    Returns (H, U) with U unimodular and U * M = H.  H is upper
    echelon with positive pivots, entries above each pivot reduced to
    [0, pivot), and zero rows last.
    """
    nr, nc = m.nrows, m.ncols
    h = [list(r) for r in m.entries]
    u = [[1 if i == j else 0 for j in range(nr)] for i in range(nr)]
    pr = 0
    for col in range(nc):
        piv = next((r for r in range(pr, nr) if h[r][col]), None)
        if piv is None:
            continue
        if piv != pr:
            h[pr], h[piv] = h[piv], h[pr]
            u[pr], u[piv] = u[piv], u[pr]
        for r in range(pr + 1, nr):
            if not h[r][col]:
                continue
            a, b = h[pr][col], h[r][col]
            g, x, y = _xgcd(a, b)
            aa, bb = a // g, b // g
            hp, hr = h[pr], h[r]
            h[pr] = [x * p + y * q for p, q in zip(hp, hr)]
            h[r] = [aa * q - bb * p for p, q in zip(hp, hr)]
            up, ur = u[pr], u[r]
            u[pr] = [x * p + y * q for p, q in zip(up, ur)]
            u[r] = [aa * q - bb * p for p, q in zip(up, ur)]
        if h[pr][col] < 0:
            h[pr] = [-x for x in h[pr]]
            u[pr] = [-x for x in u[pr]]
        piv_val = h[pr][col]
        for r in range(pr):
            q = h[r][col] // piv_val
            if q:
                h[r] = [p - q * s for p, s in zip(h[r], h[pr])]
                u[r] = [p - q * s for p, s in zip(u[r], u[pr])]
        pr += 1
    return IntMatrix(h, cols=nc), IntMatrix(u, cols=nr)


def _nonzero_rows(m: IntMatrix) -> tuple[tuple[int, ...], ...]:
    return tuple(r for r in m.entries if any(r))


def integer_kernel(m: IntMatrix) -> IntMatrix:
    """HNF-reduced basis (as rows) of the integer kernel {v : M v = 0}.

    Computed from the HNF transform of the transpose: rows of U that
    map to zero rows of H span the kernel lattice.
    """
    if m.nrows == 0:
        return IntMatrix.identity(m.ncols)
    ht, ut = hnf(m.transpose())
    kern = [ut.entries[i] for i, row in enumerate(ht.entries) if not any(row)]
    if not kern:
        return IntMatrix((), cols=m.ncols)
    hk, _ = hnf(IntMatrix(kern, cols=m.ncols))
    return IntMatrix(_nonzero_rows(hk), cols=m.ncols)


def lattice_span_equal(a: IntMatrix, b: IntMatrix) -> bool:
    """True iff the rows of a and b span the same sublattice of Z^n."""
    if a.ncols != b.ncols:
        raise ValueError("matrices must have the same number of columns")
    ha, _ = hnf(a)
    hb, _ = hnf(b)
    return _nonzero_rows(ha) == _nonzero_rows(hb)


def det(m: IntMatrix) -> int:
    """Determinant of a square integer matrix (fraction-free Bareiss)."""
    n = m.nrows
    if n != m.ncols:
        raise ValueError("determinant requires a square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in m.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][k]), None)
            if piv is None:
                return 0
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def parse_int_matrix(text: str) -> IntMatrix:
    """Parse the plain-text matrix format (see module docstring)."""
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append([int(tok) for tok in line.split()])
        except ValueError:
            raise InputError(f"line {lineno}: matrix entries must be base-10 integers") from None
    if not rows:
        raise InputError("matrix text contains no rows")
    width = len(rows[0])
    for i, r in enumerate(rows):
        if len(r) != width:
            raise InputError(f"row {i + 1} has {len(r)} entries, expected {width}")
    return IntMatrix(rows)


def format_int_matrix(m: IntMatrix) -> str:
    """Inverse of parse_int_matrix: one row per line, space-separated."""
    return "".join(" ".join(str(x) for x in row) + "\n" for row in m.entries)
