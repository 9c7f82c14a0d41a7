"""Exact scalar arithmetic and sparse linear algebra.

One ``Field`` covers the rationals (arbitrary precision, backed by
``fractions.Fraction``) and the prime fields F_p with p < 2**61.  Every
computation in the package is exact; there is no floating-point mode.
Scalars are canonical (``Field.reduce``): over F_p an ``int`` in [0, p),
over Q an ``int`` when integral and a ``Fraction`` otherwise.

Matrices are sparse maps (row, col) -> nonzero scalar.  The tensor index
convention is fixed globally: the LEFT factor is the major index, so the
Kronecker product satisfies

    (a (x) b)[i*rb + k, j*cb + l] = a[i, j] * b[k, l]

where rb, cb are b's row and column counts.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm


class FieldError(ValueError):
    pass


def is_prime(n):
    """Deterministic Miller-Rabin, valid for n < 3.3e24 (covers p < 2**61)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class Field:
    """Q when p is None, else F_p; build F_p through GF, which checks p.

    ``reduce`` is the only scalar operation: callers compute with plain
    ``+``, ``-`` and ``*`` on canonical scalars and reduce the result.
    """

    def __init__(self, p=None):
        self.p = p
        self.zero = 0
        self.one = 1

    @property
    def kind(self):
        return "Q" if self.p is None else "Fp"

    def reduce(self, x):
        """The canonical form of an exact value: x mod p over F_p; over Q an int when integral."""
        if self.p is not None:
            return x % self.p
        return x.numerator if x.denominator == 1 else x

    def parse(self, text):
        """A scalar stored as an int or a string (over Q also a fraction or a decimal string)."""
        try:
            if isinstance(text, bool) or not isinstance(text, (int, str)):
                raise ValueError
            try:
                return self.reduce(int(text))
            except ValueError:
                mantissa, e, exp = text.lower().partition("e")
                # 0 under an exponent of any length is 0, returned without Fraction(text) computing 10**exp
                if self.p is None and e and re.fullmatch(r"[-+]?\d+(_\d+)*\s*", exp) and not Fraction(mantissa + "e0"):
                    return 0
                # a larger exponent gives more digits than to_json writes: refused unbuilt
                if self.p is not None or abs(int(exp or 0)) > 4300 + len(text):
                    raise
                q = self.reduce(Fraction(text))
                self.to_json(q)  # a FieldError past 4300 digits: a rational the program could not write back
                return q
        except (ValueError, ZeroDivisionError):
            what = "rational" if self.p is None else f"F_{self.p} scalar"
            raise FieldError(f"malformed {what} {text!r}") from None

    def to_json(self, a):
        try:
            return str(a) if self.p is None else a % self.p
        except ValueError:  # str() refuses an int of more than 4300 digits
            raise FieldError("a rational with more than 4300 digits in its numerator or denominator") from None

    def __eq__(self, other):
        return isinstance(other, Field) and other.p == self.p

    def __hash__(self):
        return hash(self.p)

    def __repr__(self):
        return "QQ" if self.p is None else f"GF({self.p})"


QQ = Field()

_gf_cache = {}


def GF(p):
    """F_p for a prime p < 2**61, one shared instance per p."""
    if not (isinstance(p, int) and is_prime(p) and p < 2**61):
        raise FieldError(f"F_p needs a prime p < 2**61, got {p!r}")
    if p not in _gf_cache:
        _gf_cache[p] = Field(p)
    return _gf_cache[p]


def _canonical(p, values):
    """{key: canonical value} of a dict of exact values, zeros dropped.

    The one statement of a matrix entry's canonical form, ``Field.reduce``
    over a whole dict (p is the field's ``p``): over F_p reduced into [0, p),
    over Q an int when integral.  It is one comprehension per matrix rather
    than a call per entry, because every product passes through it.
    """
    if p is not None:
        return {k: r for k, v in values.items() if (r := v % p)}
    return {k: v.numerator if type(v) is Fraction and v.denominator == 1 else v for k, v in values.items() if v}


class SparseMatrix:
    """Immutable-by-convention sparse matrix over an exact field.

    ``entries`` maps (row, col) to a nonzero scalar; zero entries are never
    stored, and scalars are stored canonical (reduced into [0, p) over F_p,
    an int when integral over Q), so producers may hand in any exact value.
    All mutating helpers are private and used only during construction.
    """

    __slots__ = ("field", "n_rows", "n_cols", "entries")

    def __init__(self, field, n_rows, n_cols, entries=None):
        self.field = field
        self.n_rows = n_rows
        self.n_cols = n_cols
        for r, c in entries or ():
            if not (0 <= r < n_rows and 0 <= c < n_cols):
                raise IndexError(f"entry ({r},{c}) out of bounds for {n_rows}x{n_cols}")
        self.entries = _canonical(field.p, entries) if entries else {}

    @classmethod
    def _from_sums(cls, field, n_rows, n_cols, sums):
        """The constructor without its bounds check, for keys in bounds by construction.

        ``sums`` holds exact values at keys that cannot leave the shape: sums
        of products of entries of in-bounds matrices (``@``, ``kronecker``,
        ``tensor.apply_at``) or the ones of an identity.  Every producer of
        outside or hand-made entries goes through ``__init__``.
        """
        m = cls.__new__(cls)
        m.field = field
        m.n_rows = n_rows
        m.n_cols = n_cols
        m.entries = _canonical(field.p, sums)
        return m

    # -- constructors -------------------------------------------------

    @staticmethod
    def identity(field, n):
        return SparseMatrix._from_sums(field, n, n, {(i, i): field.one for i in range(n)})

    @staticmethod
    def from_rows(field, rows):
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        ent = {}
        for i, row in enumerate(rows):
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                ent[(i, j)] = v
        return SparseMatrix(field, n_rows, n_cols, ent)

    # -- basic algebra ------------------------------------------------

    def get(self, r, c):
        return self.entries.get((r, c), self.field.zero)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.field == other.field
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.field, self.n_rows, self.n_cols, tuple(sorted(self.entries.items()))))

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        self._check_same_shape(other)
        ent = dict(self.entries)
        for k, v in other.entries.items():
            ent[k] = ent.get(k, 0) + v
        return SparseMatrix(self.field, self.n_rows, self.n_cols, ent)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, a):
        return SparseMatrix(self.field, self.n_rows, self.n_cols, {k: a * v for k, v in self.entries.items()})

    def __matmul__(self, other):
        if self.n_cols != other.n_rows:
            raise ValueError(f"matmul shape mismatch {self.n_rows}x{self.n_cols} @ {other.n_rows}x{other.n_cols}")
        self._check_same_field(other)
        by_row = {}
        for (j, k), v in other.entries.items():
            by_row.setdefault(j, []).append((k, v))
        acc = {}
        for (i, j), a in self.entries.items():
            for k, b in by_row.get(j, ()):
                acc[i, k] = acc.get((i, k), 0) + a * b
        return SparseMatrix._from_sums(self.field, self.n_rows, other.n_cols, acc)

    def transpose(self):
        return SparseMatrix(self.field, self.n_cols, self.n_rows, {(c, r): v for (r, c), v in self.entries.items()})

    def kronecker(self, other):
        self._check_same_field(other)
        rb, cb = other.n_rows, other.n_cols
        ent = {}
        for (i, j), a in self.entries.items():
            for (k, l), b in other.entries.items():
                ent[i * rb + k, j * cb + l] = a * b
        return SparseMatrix._from_sums(self.field, self.n_rows * rb, self.n_cols * cb, ent)

    def _check_same_shape(self, other):
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols or self.field != other.field:
            raise ValueError("shape or field mismatch")

    def _check_same_field(self, other):
        if other.field is not self.field and other.field != self.field:
            raise ValueError(f"field mismatch: {self.field!r} and {other.field!r}")

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={len(self.entries)})"

    # -- elimination --------------------------------------------------

    def rref_data(self):
        """Row reduce: {pivot column: its reduced row}, ascending, each row a sparse dict leading with 1."""
        pivots = _eliminate(self, reduced=True)
        f = self.field
        if f.p is not None:
            return {c: pivots[c] for c in sorted(pivots)}
        return {c: {k: f.reduce(Fraction(v, pivots[c][c])) for k, v in pivots[c].items()} for c in sorted(pivots)}


def _clear(r, c, prow, p):
    """r minus the multiple of prow (whose lowest column is c) that clears column c.

    Over F_p (p an int) prow leads with 1 and the arithmetic is mod p.  Over
    Q (p None) both rows hold ints: r is cross-multiplied by prow's leading
    entry, so no fraction appears, and then divided by its content.
    """
    a, b = r[c], prow[c]
    if b != 1:
        g = gcd(a, b)
        a, b = a // g, b // g
        r = {k: b * v for k, v in r.items()}
    for k, v in prow.items():
        x = r.get(k, 0) - a * v
        if p:
            x %= p
        if x:
            r[k] = x
        else:
            del r[k]
    return _primitive(r) if b != 1 and r else r


def _primitive(r):
    g = gcd(*r.values())
    return r if g == 1 else {k: v // g for k, v in r.items()}


def _eliminate(m, reduced=False, skip=()):
    """The one elimination pass: {pivot column: pivot row}, one entry per unit of rank.

    Rows are inserted one at a time, except those in ``skip``, which are never
    built.  Each is reduced on its lowest column against the pivot row already
    there, until it vanishes or its lowest column opens a new pivot.  Over Q a
    row's denominators are cleared once on loading and it stays a primitive
    int row with a positive leading entry (fraction-free elimination); over
    F_p the entries are already in [0, p) (the constructor reduces them) and
    pivot rows are scaled to a leading 1.  With ``reduced`` the pivot rows are
    then back-substituted, highest pivot first, so that each is zero at every
    other pivot column; rref_data normalises them.
    """
    p = m.field.p
    rows = {i: {} for i in range(m.n_rows) if i not in skip}
    for (i, c), v in m.entries.items():
        if i in rows:
            rows[i][c] = v
    pivots = {}
    for r in rows.values():
        if p is None:
            den = lcm(*(v.denominator for v in r.values()))
            r = {k: v.numerator * (den // v.denominator) for k, v in r.items()}
        while r:
            c = min(r)
            prow = pivots.get(c)
            if prow is not None:
                r = _clear(r, c, prow, p)
                continue
            if p is None:
                r = _primitive(r)
                if r[c] < 0:
                    r = {k: -v for k, v in r.items()}
            elif r[c] != 1:
                inv = pow(r[c], -1, p)
                r = {k: v * inv % p for k, v in r.items()}
            pivots[c] = r
            break
    if reduced:
        for c in sorted(pivots, reverse=True):
            r = pivots[c]
            for k in [k for k in r if k != c and k in pivots]:
                r = _clear(r, k, pivots[k], p)
            pivots[c] = r
    return pivots


def rref(m):
    """Reduced row-echelon form of m; returns (rref_matrix, rank)."""
    pivots = m.rref_data()
    ent = {(r, c): v for r, row in enumerate(pivots.values()) for c, v in row.items()}
    return SparseMatrix(m.field, m.n_rows, m.n_cols, ent), len(pivots)


def rank(m):
    """Exact rank: the pivot count of the forward pass, no reduced form built."""
    return len(_eliminate(m))


def pivot_columns(m, skip=()):
    """The pivot columns of the forward pass over the rows of m outside ``skip`` (any ints): a set of column indices."""
    return set(_eliminate(m, skip=skip))


def kernel_basis(m):
    """Basis of the right kernel {v : m v = 0}: one dense scalar list per free column."""
    f = m.field
    pivots = m.rref_data()
    basis = []
    for free in range(m.n_cols):
        if free in pivots:
            continue
        vec = [f.zero] * m.n_cols
        vec[free] = f.one
        for c, row in pivots.items():
            if free in row:
                vec[c] = f.reduce(-row[free])
        basis.append(vec)
    return basis


def _solve(a, rhs, k):
    """{(pivot column, j): x} solving a x = rhs, where rhs is {(row, j): scalar} with j < k.

    [a | rhs] is eliminated once and free variables are 0; None when a pivot
    falls among rhs's columns (some column of rhs is not in a's column space).
    """
    n = a.n_cols
    aug = SparseMatrix(a.field, a.n_rows, n + k, {**a.entries, **{(r, n + j): v for (r, j), v in rhs.items()}})
    pivots = aug.rref_data()
    if any(c >= n for c in pivots):
        return None
    return {(c, j - n): v for c, row in pivots.items() for j, v in row.items() if j >= n}


def solve_linear(a, b):
    """Some x with a x = b, or None if the system is inconsistent.

    b is a dense scalar list with a.n_rows entries.
    """
    if len(b) != a.n_rows:
        raise ValueError(f"rhs length {len(b)} != {a.n_rows} rows")
    x = _solve(a, {(r, 0): v for r, v in enumerate(b)}, 1)
    return None if x is None else [x.get((c, 0), a.field.zero) for c in range(a.n_cols)]


def kronecker(a, b):
    return a.kronecker(b)


def inverse(m):
    """Exact inverse of a square matrix, or None if singular (a pivot then falls in the identity block)."""
    if m.n_rows != m.n_cols:
        return None
    n = m.n_rows
    x = _solve(m, {(i, i): m.field.one for i in range(n)}, n)
    return None if x is None else SparseMatrix(m.field, n, n, x)
