"""Exact scalar arithmetic and sparse linear algebra.

Two field backends: the rationals (arbitrary precision, backed by
``fractions.Fraction``) and prime fields F_p with p < 2**61.  Every
computation in the package is exact; there is no floating-point mode.

Matrices are sparse maps (row, col) -> nonzero scalar.  The tensor index
convention is fixed globally: the LEFT factor is the major index, so the
Kronecker product satisfies

    (a (x) b)[i*rb + k, j*cb + l] = a[i, j] * b[k, l]

where rb, cb are b's row and column counts.
"""

from __future__ import annotations

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
    """Common interface of the two scalar backends.

    Scalars are plain Python values (``Fraction`` for Q, ``int`` in [0, p)
    for F_p); the field object supplies the operations, parsing and
    canonical string form.
    """

    def add(self, a, b):
        raise NotImplementedError

    def sub(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def is_zero(self, a):
        return a == self.zero


class RationalField(Field):
    kind = "Q"

    def __init__(self):
        self.zero = Fraction(0)
        self.one = Fraction(1)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / a

    def from_int(self, n):
        return Fraction(n)

    def parse(self, text, where=""):
        try:
            if isinstance(text, bool):
                raise ValueError
            if isinstance(text, int):
                return Fraction(text)
            if isinstance(text, str):
                val = Fraction(text)
                return val
        except (ValueError, ZeroDivisionError):
            pass
        raise FieldError(f"malformed rational {text!r}{' at ' + where if where else ''}")

    def to_json(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "QQ"


class PrimeField(Field):
    kind = "Fp"

    def __init__(self, p):
        if not isinstance(p, int) or not is_prime(p) or p >= 2**61:
            raise FieldError(f"F_p needs a prime p < 2**61, got {p!r}")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return not a % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError(f"inverse of 0 in F_{self.p}")
        return pow(a, -1, self.p)

    def from_int(self, n):
        return n % self.p

    def parse(self, text, where=""):
        if isinstance(text, bool) or not isinstance(text, (int, str)):
            raise FieldError(f"malformed F_{self.p} scalar {text!r}{' at ' + where if where else ''}")
        try:
            n = int(text)
        except ValueError:
            raise FieldError(f"malformed F_{self.p} scalar {text!r}{' at ' + where if where else ''}") from None
        return n % self.p

    def to_json(self, a):
        return a % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("Fp", self.p))

    def __repr__(self):
        return f"GF({self.p})"


QQ = RationalField()

_gf_cache = {}


def GF(p):
    if p not in _gf_cache:
        _gf_cache[p] = PrimeField(p)
    return _gf_cache[p]


class SparseMatrix:
    """Immutable-by-convention sparse matrix over an exact field.

    ``entries`` maps (row, col) to a nonzero scalar; zero entries are never
    stored, and F_p scalars are stored reduced into [0, p).  All mutating
    helpers are private and used only during construction.
    """

    __slots__ = ("field", "n_rows", "n_cols", "entries")

    def __init__(self, field, n_rows, n_cols, entries=None):
        self.field = field
        self.n_rows = n_rows
        self.n_cols = n_cols
        self.entries = {}
        if entries:
            p = field.p if field.kind == "Fp" else None
            for (r, c), v in entries.items():
                if not (0 <= r < n_rows and 0 <= c < n_cols):
                    raise IndexError(f"entry ({r},{c}) out of bounds for {n_rows}x{n_cols}")
                if p is not None:
                    v %= p
                if v:
                    self.entries[(r, c)] = v

    # -- constructors -------------------------------------------------

    @staticmethod
    def zeros(field, n_rows, n_cols):
        return SparseMatrix(field, n_rows, n_cols)

    @staticmethod
    def identity(field, n):
        return SparseMatrix(field, n, n, {(i, i): field.one for i in range(n)})

    @staticmethod
    def from_rows(field, rows):
        n_rows = len(rows)
        n_cols = len(rows[0]) if n_rows else 0
        ent = {}
        for i, row in enumerate(rows):
            if len(row) != n_cols:
                raise ValueError("ragged rows")
            for j, v in enumerate(row):
                if not field.is_zero(v):
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
        f = self.field
        ent = dict(self.entries)
        for k, v in other.entries.items():
            s = f.add(ent.get(k, f.zero), v)
            if f.is_zero(s):
                ent.pop(k, None)
            else:
                ent[k] = s
        return SparseMatrix(f, self.n_rows, self.n_cols, ent)

    def __sub__(self, other):
        return self + other.scale(self.field.neg(self.field.one))

    def __neg__(self):
        return self.scale(self.field.neg(self.field.one))

    def scale(self, a):
        f = self.field
        if f.is_zero(a):
            return SparseMatrix.zeros(f, self.n_rows, self.n_cols)
        return SparseMatrix(f, self.n_rows, self.n_cols, {k: f.mul(a, v) for k, v in self.entries.items()})

    def __matmul__(self, other):
        if self.n_cols != other.n_rows:
            raise ValueError(f"matmul shape mismatch {self.n_rows}x{self.n_cols} @ {other.n_rows}x{other.n_cols}")
        self._check_same_field(other)
        f = self.field
        by_row = {}
        for (j, k), v in other.entries.items():
            by_row.setdefault(j, []).append((k, v))
        acc = {}
        for (i, j), a in self.entries.items():
            for k, b in by_row.get(j, ()):
                key = (i, k)
                s = f.add(acc.get(key, f.zero), f.mul(a, b))
                if f.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return SparseMatrix(f, self.n_rows, other.n_cols, acc)

    def transpose(self):
        return SparseMatrix(self.field, self.n_cols, self.n_rows, {(c, r): v for (r, c), v in self.entries.items()})

    def kronecker(self, other):
        self._check_same_field(other)
        f = self.field
        rb, cb = other.n_rows, other.n_cols
        ent = {}
        for (i, j), a in self.entries.items():
            for (k, l), b in other.entries.items():
                ent[(i * rb + k, j * cb + l)] = f.mul(a, b)
        return SparseMatrix(f, self.n_rows * rb, self.n_cols * cb, ent)

    def _check_same_shape(self, other):
        if self.n_rows != other.n_rows or self.n_cols != other.n_cols or self.field != other.field:
            raise ValueError("shape or field mismatch")

    def _check_same_field(self, other):
        if other.field is not self.field and other.field != self.field:
            raise ValueError(f"field mismatch: {self.field!r} and {other.field!r}")

    def __repr__(self):
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={len(self.entries)})"

    # -- elimination --------------------------------------------------

    def _dict_rows(self):
        rows = [dict() for _ in range(self.n_rows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def rref_data(self):
        """Row reduce; returns (rows, pivot_cols) with rows as sparse dicts.

        rows[i] is the reduced row of pivot_cols[i]; the trailing
        n_rows - rank rows are empty.
        """
        pivots = _eliminate(self, reduced=True)
        cols = sorted(pivots)
        if self.field.kind == "Fp":
            rows = [pivots[c] for c in cols]
        else:
            rows = [{k: Fraction(v, pivots[c][c]) for k, v in pivots[c].items()} for c in cols]
        return rows + [{} for _ in range(self.n_rows - len(cols))], cols


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


def _eliminate(m, reduced=False):
    """The one elimination pass: {pivot column: pivot row}, one entry per unit of rank.

    Rows are inserted one at a time.  Each is reduced on its lowest column
    against the pivot row already there, until it vanishes or its lowest
    column opens a new pivot.  Over Q a row's denominators are cleared once
    on loading and it stays a primitive int row with a positive leading
    entry (fraction-free elimination); over F_p the entries are already in
    [0, p) (the constructor reduces them) and pivot rows are scaled to a
    leading 1.  With ``reduced`` the pivot rows are then back-substituted,
    highest pivot first, so that each is zero at every other pivot column;
    rref_data normalises them.
    """
    p = m.field.p if m.field.kind == "Fp" else None
    pivots = {}
    for r in m._dict_rows():
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
    rows, pivots = m.rref_data()
    ent = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            ent[(r, c)] = v
    return SparseMatrix(m.field, m.n_rows, m.n_cols, ent), len(pivots)


def rank(m):
    """Exact rank: the pivot count of the forward pass, no reduced form built."""
    return len(_eliminate(m))


def kernel_basis(m):
    """Basis of the right kernel {v : m v = 0}, as dense scalar lists.

    One basis vector per free column; length of the list is
    n_cols - rank(m).
    """
    f = m.field
    rows, pivots = m.rref_data()
    pivot_of_col = {c: r for r, c in enumerate(pivots)}
    basis = []
    for free in range(m.n_cols):
        if free in pivot_of_col:
            continue
        vec = [f.zero] * m.n_cols
        vec[free] = f.one
        for c, r in pivot_of_col.items():
            coeff = rows[r].get(free)
            if coeff is not None:
                vec[c] = f.neg(coeff)
        basis.append(vec)
    return basis


def solve_linear(a, b):
    """Some x with a x = b, or None if the system is inconsistent.

    b is a dense scalar list with a.n_rows entries.
    """
    if len(b) != a.n_rows:
        raise ValueError(f"rhs length {len(b)} != {a.n_rows} rows")
    f = a.field
    aug_ent = dict(a.entries)
    for r, v in enumerate(b):
        if not f.is_zero(v):
            aug_ent[(r, a.n_cols)] = v
    aug = SparseMatrix(f, a.n_rows, a.n_cols + 1, aug_ent)
    rows, pivots = aug.rref_data()
    if a.n_cols in pivots:
        return None
    x = [f.zero] * a.n_cols
    for r, c in enumerate(pivots):
        x[c] = rows[r].get(a.n_cols, f.zero)
    return x


def kronecker(a, b):
    return a.kronecker(b)


def inverse(m):
    """Exact inverse of a square matrix, or None if singular."""
    if m.n_rows != m.n_cols:
        return None
    f = m.field
    n = m.n_rows
    aug_ent = dict(m.entries)
    for i in range(n):
        aug_ent[(i, n + i)] = f.one
    aug = SparseMatrix(f, n, 2 * n, aug_ent)
    rows, pivots = aug.rref_data()
    if pivots != list(range(n)):
        return None
    ent = {}
    for r, row in enumerate(rows):
        for c, v in row.items():
            if c >= n:
                ent[(r, c - n)] = v
    return SparseMatrix(f, n, n, ent)
