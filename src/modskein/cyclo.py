"""Exact arithmetic over cyclotomic fields Q(zeta_N) and exact linear algebra.

Numbers are written in the power basis of Q[x]/Phi_N(x), with Phi_N the N-th
cyclotomic polynomial, so every element has a unique normal form and equality
is coefficient-wise.  An element is an integer vector over one positive
denominator, reduced so that the denominator shares no factor with all the
numerators; sums and products are integer operations, with a single gcd to
renormalize.  `fractions.Fraction` appears only at the edges (`coeffs`,
`repr`, JSON), floats are refused as input, and nothing in this module (or
anything built on it) ever rounds.

A matrix is immutable, and its canonical sparse rows (nonzero entries sorted
by column) are its only state; `data` is a read-only dense view of them.
Matrices are eliminated fraction-free: rows are scaled to integer
coefficient vectors in Z[zeta_N] and reduced by content-normalized
cross-multiplication (Bareiss-style), so intermediate entries stay integral.
Pivoting is deterministic: leftmost nonzero column first, earliest row wins.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import chain
from operator import add as _add, attrgetter, sub as _sub

__all__ = [
    "CycloError",
    "CycField",
    "CycNum",
    "ExactMatrix",
    "LinearSystem",
    "SolveResult",
    "cyclotomic_poly",
    "euler_phi",
    "parse_rational",
    "rational_str",
]


class CycloError(ValueError):
    """Bad cyclotomic arithmetic: order mismatch, division by zero, bad input."""


def euler_phi(n: int) -> int:
    if n < 1:
        raise CycloError("cyclotomic order must be a positive integer, got %r" % (n,))
    result, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _poly_divide_exact(num: list[int], den: list[int]) -> list[int]:
    # Exact division of integer polynomials, den monic up to +-1 leading coeff.
    num = list(num)
    out = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(out) - 1, -1, -1):
        c = num[k + len(den) - 1]
        q, r = divmod(c, lead)
        assert r == 0, "non-exact cyclotomic polynomial division"
        out[k] = q
        if q:
            for i, d in enumerate(den):
                num[k + i] -= q * d
    assert all(c == 0 for c in num[: len(den) - 1])
    return out


_CYCLOTOMIC_CACHE: dict[int, tuple[int, ...]] = {}


def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_n, low degree first."""
    if n in _CYCLOTOMIC_CACHE:
        return _CYCLOTOMIC_CACHE[n]
    if n < 1:
        raise CycloError("cyclotomic order must be a positive integer, got %r" % (n,))
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_divide_exact(poly, list(cyclotomic_poly(d)))
    result = tuple(poly)
    _CYCLOTOMIC_CACHE[n] = result
    return result


class CycField:
    """The field Q(zeta_N), with reduction data for the power basis mod Phi_N."""

    _registry: dict[int, "CycField"] = {}

    def __new__(cls, order: int):
        if order in cls._registry:
            return cls._registry[order]
        self = super().__new__(cls)
        self.order = order
        phi_poly = cyclotomic_poly(order)
        deg = self.degree = len(phi_poly) - 1
        # x^k mod Phi_N for k = 0 .. N-1, as integer rows (x^N = 1).
        top = [-c for c in phi_poly[:-1]]  # x^deg = top (Phi_N is monic)
        row = [1] + [0] * (deg - 1)
        powers = []
        for _ in range(order):
            powers.append(tuple(row))
            carry, row = row[-1], [0] + row[:-1]
            if carry:
                row = [r + carry * t for r, t in zip(row, top)]
        self._powers = tuple(powers)
        # x^k for k = deg .. 2*deg-2: what a product of two vectors reduces.
        self._red = [powers[k % order] for k in range(deg, 2 * deg - 1)]
        # k of the Galois automorphisms zeta -> zeta^k other than the identity
        self._conjugators = tuple(k for k in range(2, order)
                                  if math.gcd(k, order) == 1)
        self._zero = _normal(self, (0,) * deg, 1)
        self._one = _normal(self, powers[0], 1)
        cls._registry[order] = self
        return self

    # -- constructors ------------------------------------------------------

    def zero(self) -> "CycNum":
        return self._zero

    def one(self) -> "CycNum":
        return self._one

    def from_rational(self, r) -> "CycNum":
        """r: an int, a Fraction or a rational string; floats are refused."""
        q = parse_rational(r)
        return _normal(self, (q.numerator,) + self._zero.num[1:], q.denominator)

    def zeta(self, power: int = 1) -> "CycNum":
        """zeta_N ** power, reduced."""
        return _normal(self, self._powers[power % self.order], 1)

    def from_coeffs(self, coeffs) -> "CycNum":
        """sum c_k zeta^k over the given coefficients, of any length."""
        qs = [parse_rational(c) for c in coeffs]
        den = math.lcm(*(q.denominator for q in qs))
        return _normal(self, self._combine(
            (k, q.numerator * (den // q.denominator)) for k, q in enumerate(qs)),
            den)

    # -- internals ----------------------------------------------------------

    def _combine(self, terms) -> tuple[int, ...]:
        """sum c * x^e over the integer pairs (e, c), reduced mod Phi_N."""
        out = [0] * self.degree
        powers, order = self._powers, self.order
        for e, c in terms:
            if c:
                for i, p in enumerate(powers[e % order]):
                    if p:
                        out[i] += c * p
        return tuple(out)

    def __repr__(self):
        return "CycField(%d)" % self.order


class CycNum:
    """An exact element num/den of Q(zeta_N) in the power basis mod Phi_N.

    `num` is a tuple of `degree` ints and `den` a positive int with
    gcd(den, *num) == 1; zero is (0, ..., 0)/1.  Instances are immutable.
    """

    __slots__ = ("field", "num", "den")

    def __init__(self, field: CycField, coeffs):
        x = field.from_coeffs(coeffs)
        self.field, self.num, self.den = field, x.num, x.den

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions, for I/O."""
        den = self.den
        return tuple(Fraction(c, den) for c in self.num)

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise CycloError("not a rational number: %s" % (self,))
        return Fraction(self.num[0], self.den)

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            _same_field(self, other)
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return NotImplemented

    def embed(self, order: int) -> "CycNum":
        """Embed into Q(zeta_order); requires self's order to divide order."""
        big = CycField(order)
        if order % self.field.order != 0:
            raise CycloError(
                "cannot embed order %d into order %d" % (self.field.order, order)
            )
        step = order // self.field.order
        return _normal(big, big._combine(
            (k * step, c) for k, c in enumerate(self.num)), self.den)

    # -- arithmetic ------------------------------------------------------------
    # A zero operand of + and *, and a unit factor of *, return the other
    # operand itself: instances are immutable.

    def __add__(self, other):
        if other.__class__ is not CycNum or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not any(b):
            return self
        if not any(a):
            return other
        da, db = self.den, other.den
        if da == db:
            return _normal(self.field, tuple(map(_add, a, b)), da)
        return _normal(self.field,
                       tuple([x * db + y * da for x, y in zip(a, b)]), da * db)

    __radd__ = __add__

    def __neg__(self):
        return _normal(self.field, tuple([-c for c in self.num]), self.den)

    def __sub__(self, other):
        if other.__class__ is not CycNum or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not any(b):
            return self
        da, db = self.den, other.den
        if da == db:
            return _normal(self.field, tuple(map(_sub, a, b)), da)
        return _normal(self.field,
                       tuple([x * db - y * da for x, y in zip(a, b)]), da * db)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not CycNum or other.field is not self.field:
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not any(a):
            return self
        if not any(b):
            return other
        field = self.field
        one = field._powers[0]
        if self.den == 1 and a == one:
            return other
        if other.den == 1 and b == one:
            return self
        return _normal(field, _ivec_mul(a, b, field.degree, field._red),
                       self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        a = self.num
        if not any(a):
            raise CycloError("division by zero in Q(zeta_%d)" % self.field.order)
        field = self.field
        if field.degree == 1:
            return _normal(field, (self.den if a[0] > 0 else -self.den,), abs(a[0]))
        # 1/a = (product of the other Galois conjugates of a) / norm(a).  The
        # norm a * rest is a rational integer, and positive: for degree > 1
        # the conjugates come in complex-conjugate pairs.
        deg, red = field.degree, field._red
        rest = field._powers[0]
        for k in field._conjugators:
            conj = field._combine((j * k, c) for j, c in enumerate(a))
            rest = _ivec_mul(rest, conj, deg, red)
        norm = _ivec_mul(a, rest, deg, red)[0]
        return _normal(field, tuple([c * self.den for c in rest]), norm)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        if other.__class__ is not CycNum:
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.field.from_rational(Fraction(other))
        return (self.field is other.field and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.field.order, self.num, self.den))

    # -- rendering ----------------------------------------------------------

    def to_complex(self) -> complex:
        z = complex(math.cos(2 * math.pi / self.field.order),
                    math.sin(2 * math.pi / self.field.order))
        total = 0j
        for k, c in enumerate(self.num):
            if c:
                total += c / self.den * z ** k
        return total

    def __repr__(self):
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append("%s*z%d" % (c, self.field.order))
            else:
                terms.append("%s*z%d^%d" % (c, self.field.order, k))
        return " + ".join(terms) if terms else "0"

    # -- serialization --------------------------------------------------------

    def to_obj(self):
        """JSON form: plain "p/q" string when rational, else {order, coeffs}."""
        if self.is_rational():
            return rational_str(self.rational_value())
        return {"order": self.field.order,
                "coeffs": [rational_str(c) for c in self.coeffs]}

    @staticmethod
    def from_obj(obj, field: CycField) -> "CycNum":
        if isinstance(obj, dict):
            order = _parse_index(obj["order"])
            num = CycField(order).from_coeffs(obj["coeffs"])
            if order != field.order:
                num = num.embed(field.order)
            return num
        return field.from_rational(parse_rational(obj))


_new = object.__new__


def _normal(field: CycField, num: tuple, den: int) -> CycNum:
    """The CycNum num/den, brought to normal form; den must be positive."""
    if den != 1:
        g = math.gcd(den, *num)
        if g != 1:
            num = tuple([c // g for c in num])
            den //= g
    x = _new(CycNum)
    x.field = field
    x.num = num
    x.den = den
    return x


def rational_str(r: Fraction) -> str:
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


def parse_rational(s) -> Fraction:
    """An int, a Fraction or a string such as "-7/3" as a Fraction.

    Floats (and anything else) are refused: 0.1 is not 1/10 in binary, and
    accepting it would put a rounded value into exact arithmetic.  So are a
    zero denominator and a bool, which is an int to Python but a JSON
    true/false in a file, not a number.
    """
    if isinstance(s, (int, Fraction)) and not isinstance(s, bool):
        return Fraction(s)
    if isinstance(s, str):
        try:
            return Fraction(s.strip())
        except (ValueError, ZeroDivisionError):
            pass
    raise CycloError("cannot parse an exact rational from %r" % (s,))


def _parse_index(s, bound: float = float("inf")) -> int:
    """An index or size read from a file, refused unless it is an int, not a
    bool, in [0, bound): int() would truncate a float or a bool, and a
    negative index would count from the end of a Python list."""
    if not isinstance(s, int) or isinstance(s, bool) or not 0 <= s < bound:
        raise CycloError("index %r is not an int in [0, %s)" % (s, bound))
    return s


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------


class SolveResult:
    """Affine solution set of A X = B: a particular solution plus the kernel.

    `particular` is None when the system is infeasible (a distinguished
    outcome, not an error).  `kernel` columns span {X : A X = 0}; they are
    built by `build_kernel()` on the first read of `kernel`, and kept.
    """

    __slots__ = ("particular", "_kernel", "_build_kernel")

    def __init__(self, particular, build_kernel):
        self.particular = particular
        self._kernel, self._build_kernel = None, build_kernel

    @property
    def kernel(self) -> "ExactMatrix":
        if self._kernel is None:
            self._kernel, self._build_kernel = self._build_kernel(), None
        return self._kernel

    @property
    def feasible(self) -> bool:
        return self.particular is not None


class ExactMatrix:
    """Immutable matrix of CycNum entries over a fixed cyclotomic field.

    Its one state is its canonical sparse rows: per row, its nonzero entries
    as (column, CycNum) pairs sorted by column, in tuples.  `rows` and `cols`
    are its shape; they and `field` are read-only.  `data` is a read-only
    view of the rows as a dense tuple of row tuples, built on first read and
    kept; since the rows never change, it cannot go stale.
    `ExactMatrix(field, table)` builds a matrix from a dense table and
    `_matrix` from sparse rows.
    """

    __slots__ = ("_field", "_rows", "_cols", "_sparse", "_data")

    def __init__(self, field: CycField, table):
        """The matrix with this dense table of entries: CycNums of `field`,
        ints, Fractions or rational strings; anything else is refused."""
        table = [[_entry(field, e) for e in row] for row in table]
        self._field, self._rows, self._cols = field, len(table), _width(table)
        self._sparse, self._data = _table_rows(table), None

    field = property(attrgetter("_field"))
    rows = property(attrgetter("_rows"))
    cols = property(attrgetter("_cols"))

    @property
    def data(self) -> tuple:
        """The entries as a dense tuple of row tuples, built on first read."""
        if self._data is None:
            zero = self.field.zero()
            table = [[zero] * self.cols for _ in range(self.rows)]
            for trow, row in zip(table, self._sparse):
                for c, v in row:
                    trow[c] = v
            self._data = tuple(map(tuple, table))
        return self._data

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zeros(field: CycField, rows: int, cols: int) -> "ExactMatrix":
        return _matrix(field, ((),) * rows, cols)

    @staticmethod
    def identity(field: CycField, n: int) -> "ExactMatrix":
        one = field.one()
        return _matrix(field, tuple(((i, one),) for i in range(n)), n)

    # -- structure ------------------------------------------------------------

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def col(self, j) -> list:
        j, zero = range(self.cols)[j], self.field.zero()
        return [dict(row).get(j, zero) for row in _sparse_rows(self)]

    def transpose(self) -> "ExactMatrix":
        return _matrix(self.field, _transpose(_sparse_rows(self), self.cols),
                       self.rows)

    def is_zero(self) -> bool:
        return not any(_sparse_rows(self))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if (self.field is not other.field or self.rows != other.rows
                or self.cols != other.cols):
            return False
        return _sparse_rows(self) == _sparse_rows(other)

    def __hash__(self):
        return hash((self.field.order, self.rows, self.cols, _sparse_rows(self)))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        _same_field(self, other)
        if self.rows != other.rows or self.cols != other.cols:
            raise CycloError("matrix shape mismatch in add or sub")
        # a row added to an empty row is shared: rows are immutable tuples
        return _matrix(self.field, [
            r1 if not r2 else r2 if not r1 else _sparse_sum(chain(r1, r2))
            for r1, r2 in zip(_sparse_rows(self), _sparse_rows(other))],
            self.cols)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c) -> "ExactMatrix":
        if isinstance(c, (int, Fraction)):
            c = self.field.from_rational(c)
        if not any(c.num):
            return ExactMatrix.zeros(self.field, self.rows, self.cols)
        return _matrix(self.field, tuple(tuple([(j, c * a) for j, a in row])
                                         for row in _sparse_rows(self)),
                       self.cols)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        _same_field(self, other)
        if self.cols != other.rows:
            raise CycloError("matrix shape mismatch in mul: %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        return _matrix(self.field, _sparse_product(_sparse_rows(self),
                                                   _sparse_rows(other)),
                       other.cols)

    __rmul__ = scale

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, row-major index convention (i1*r2+i2, j1*c2+j2)."""
        _same_field(self, other)
        b_rows, c2 = _sparse_rows(other), other.cols
        return _matrix(self.field, tuple(
            tuple([(j1 * c2 + j2, a * b) for j1, a in arow for j2, b in brow])
            for arow in _sparse_rows(self) for brow in b_rows),
            self.cols * c2)

    def trace(self) -> CycNum:
        if self.rows != self.cols:
            raise CycloError("trace of a non-square matrix")
        return sum((v for i, row in enumerate(_sparse_rows(self))
                    for c, v in row if c == i), self.field.zero())

    # -- elimination ------------------------------------------------------------

    def _system(self, rhs: "ExactMatrix | None" = None) -> "LinearSystem":
        sys = LinearSystem(self.field, self.cols, rhs.cols if rhs else 0)
        rhs_rows = _sparse_rows(rhs) if rhs else None
        for i, row in enumerate(_sparse_rows(self)):
            sys.add_row(dict(row), None if rhs is None else dict(rhs_rows[i]))
        return sys

    def rank(self) -> int:
        return self._system().rank()

    def kernel_basis(self) -> "ExactMatrix":
        """Columns span the nullspace {x : A x = 0}; rank-nullity holds exactly."""
        return self._system().kernel()

    def solve(self, rhs: "ExactMatrix") -> SolveResult:
        """Exact affine solution set of self @ X = rhs."""
        if rhs.rows != self.rows:
            raise CycloError("solve: A has %d rows but B has %d"
                             % (self.rows, rhs.rows))
        return self._system(rhs).solve()

    def inverse(self) -> "ExactMatrix":
        if self.rows != self.cols:
            raise CycloError("inverse of a non-square matrix")
        res = self.solve(ExactMatrix.identity(self.field, self.rows))
        if not res.feasible or res.kernel.cols:
            raise CycloError("matrix is not invertible")
        return res.particular

    def __repr__(self):
        return "ExactMatrix(%dx%d over Q(zeta_%d))" % (
            self.rows, self.cols, self.field.order)


class LinearSystem:
    """Sparse exact linear system, eliminated fraction-free.

    Rows are added as {column: CycNum} dicts (with an optional right-hand
    side); internally each row is cleared to integer coefficient vectors in
    Z[zeta_N] and reduced by content-normalized cross-multiplication against
    the pivot rows.  Pivot order is deterministic: a row's surviving leading
    column claims the pivot, rows are processed in insertion order.  Duplicate
    normalized rows are dropped.
    """

    def __init__(self, field: CycField, ncols: int, nrhs: int = 0):
        self.field = field
        self.ncols = ncols
        self.nrhs = nrhs
        self._pivots: dict[int, dict[int, tuple[int, ...]]] = {}
        self._seen: set = set()
        self._infeasible_row = False

    # -- row intake ----------------------------------------------------------

    def _clear_row(self, coeffs: dict, rhs: dict | None) -> dict[int, tuple[int, ...]]:
        items = list(coeffs.items())
        if rhs:
            items += [(self.ncols + j, e) for j, e in rhs.items()]
        denom = math.lcm(*[e.den for _, e in items])
        row = {}
        for j, e in items:
            if any(e.num):
                scale = denom // e.den
                row[j] = e.num if scale == 1 else tuple([c * scale for c in e.num])
        return row

    def add_row(self, coeffs: dict, rhs: dict | None = None) -> None:
        row = self._clear_row(coeffs, rhs or {})
        if not row:
            return
        row = _normalize_content(row)
        key = tuple(sorted(row.items()))
        if key in self._seen:
            return
        self._seen.add(key)
        self._reduce_in(row)

    def _reduce_in(self, row) -> None:
        deg = self.field.degree
        red = self.field._red
        pivots = self._pivots
        while row:
            lead = min(row)
            prow = pivots.get(lead)
            if prow is None:
                pivots[lead] = row
                if lead >= self.ncols:
                    self._infeasible_row = True
                return
            a, b = prow[lead], row[lead]
            new = {}
            for c in set(row) | set(prow):
                if c <= lead:
                    continue
                rv, pv = row.get(c), prow.get(c)
                if pv is None:
                    vec = _ivec_mul(a, rv, deg, red)
                elif rv is None:
                    vec = tuple([-y for y in _ivec_mul(b, pv, deg, red)])
                else:
                    vec = tuple(map(_sub, _ivec_mul(a, rv, deg, red),
                                    _ivec_mul(b, pv, deg, red)))
                if any(vec):
                    new[c] = vec
            row = _normalize_content(new)

    # -- results ----------------------------------------------------------------

    def rank(self) -> int:
        return len(self._pivots)

    def _to_cyc(self, v: tuple[int, ...]) -> CycNum:
        return _normal(self.field, v, 1)

    def _pivot_inverses(self) -> list[tuple[int, CycNum]]:
        """(pivot column, inverse of its pivot entry), last pivot first."""
        return [(pc, self._to_cyc(self._pivots[pc][pc]).inverse())
                for pc in sorted(self._pivots, reverse=True) if pc < self.ncols]

    def _back_substitute(self, x: dict, inverses: list,
                         rcol: int | None = None) -> tuple:
        """Solve the pivot rows for their pivot entries of x, last pivot first,
        and return the nonzero entries of x as (column, entry) pairs.

        x is a sparse {column: CycNum} dict without zeros, given on the free
        columns.  The right-hand side is column `rcol` of the rows (zero when
        None); with no right-hand side, the entries of pivots right of every
        entry of x stay zero, so those pivots are skipped.
        """
        zero = self.field.zero()
        last = self.ncols if rcol is not None else max(x)
        for pc, inverse in inverses:
            if pc > last:
                continue
            row = self._pivots[pc]
            s = self._to_cyc(row[rcol]) if rcol in row else zero
            for c, vec in row.items():
                if c in x:
                    s = s - self._to_cyc(vec) * x[c]
            if any(s.num):
                x[pc] = s * inverse
        return tuple(x.items())

    def kernel(self) -> "ExactMatrix":
        inverses, one = self._pivot_inverses(), self.field.one()
        return _from_cols(self.field, [
            self._back_substitute({fc: one}, inverses)
            for fc in range(self.ncols) if fc not in self._pivots], self.ncols)

    def solve(self) -> SolveResult:
        rank = self.rank()

        def kernel():
            # rows only ever add pivots: the same rank means the same kernel
            if self.rank() != rank:
                raise CycloError("rows were added after this solve; solve again")
            return self.kernel()

        if self._infeasible_row:
            return SolveResult(None, kernel)
        inverses = self._pivot_inverses()
        cols = [()] * self.nrhs
        # a right-hand side that no pivot row contains solves to zero
        for j in {c - self.ncols for row in self._pivots.values()
                  for c in row if c >= self.ncols}:
            cols[j] = self._back_substitute({}, inverses, rcol=self.ncols + j)
        return SolveResult(_from_cols(self.field, cols, self.ncols), kernel)


def _solve_in_basis(field: CycField, basis: list, targets: list) -> SolveResult:
    """Coordinates of sparse `targets` in the span of sparse `basis` vectors.

    Column t of the system is basis vector t and right-hand side s is target
    s; there is one row per coordinate key, added in sorted key order, so
    pivots do not depend on how the vectors were built.  An empty basis gives
    an infeasible result unless every target is zero.
    """
    rows: dict = {}
    for side, vecs in enumerate((basis, targets)):
        for t, vec in enumerate(vecs):
            for key, c in vec.items():
                rows.setdefault(key, ({}, {}))[side][t] = c
    sys = LinearSystem(field, len(basis), len(targets))
    for key in sorted(rows):
        sys.add_row(*rows[key])
    return sys.solve()


def _nonzero_entries(row: list) -> tuple:
    """The nonzero entries of a dense row (or column) as (index, entry)."""
    return tuple([(j, e) for j, e in enumerate(row) if any(e.num)])


def _table_rows(table) -> tuple:
    """The canonical sparse rows of a dense table."""
    return tuple(map(_nonzero_entries, table))


def _entry(field: CycField, e) -> CycNum:
    """A dense-table entry as a CycNum of `field`; a CycNum of another field
    or an inexact number is refused, as in CycNum arithmetic."""
    if isinstance(e, CycNum):
        return field.zero()._coerce(e)
    return field.from_rational(e)


def _width(table) -> int:
    """The column count of a dense table, whose rows must agree on it."""
    cols = len(table[0]) if table else 0
    if any(len(row) != cols for row in table):
        raise CycloError("ragged matrix rows")
    return cols


def _same_field(x, other) -> None:
    """Refuse two numbers, or two matrices, over different fields."""
    if other.field is not x.field:
        raise CycloError("cyclotomic order mismatch: %d vs %d (embed first)"
                         % (x.field.order, other.field.order))


def _sparse_rows(mat: ExactMatrix) -> tuple:
    """The canonical sparse rows of a matrix: per row, its nonzero entries
    as (column, entry) pairs sorted by column."""
    return mat._sparse


def _sparse_cols(mat: ExactMatrix) -> tuple:
    """Per column of a matrix, its nonzero (row, entry) pairs sorted by row."""
    return _transpose(_sparse_rows(mat), mat.cols)


def _matrix(field: CycField, rows, ncols: int) -> ExactMatrix:
    """The len(rows) x ncols matrix with the sparse rows `rows`.

    This is the one way a matrix is made from rows.  A row built out of
    column order is given as a {column: entry} dict without zero entries,
    and is sorted here.  Any other row must be canonical already: a sequence
    of (column, entry) pairs sorted by column, without zeros.  A tuple row is
    held as it is, not copied.
    """
    mat = _new(ExactMatrix)
    mat._field, mat._rows, mat._cols = field, len(rows), ncols
    mat._sparse = tuple([_sorted_row(row) if row.__class__ is dict
                         else tuple(row) for row in rows])
    mat._data = None
    return mat


def _from_cols(field: CycField, cols, nrows: int) -> ExactMatrix:
    """The nrows x len(cols) matrix whose columns hold the nonzero
    (row, entry) pairs `cols`, each column in any order."""
    return _matrix(field, _transpose(cols, nrows), len(cols))


def _sorted_row(vec: dict) -> tuple:
    """A sparse vector {index: CycNum} as one sparse row, sorted by index."""
    return tuple(sorted(vec.items()))


def _transpose(rows, ncols: int) -> tuple:
    """The sparse columns of the matrix with sparse rows `rows`, i.e. the
    sparse rows of its transpose (each sorted, since rows are visited in
    order)."""
    cols: list[list] = [[] for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in row:
            cols[c].append((r, v))
    return tuple(map(tuple, cols))


def _sparse_product(a_rows, b_rows) -> tuple:
    """The sparse rows of the product A B, from the sparse rows of A and B.

    A row of A with one entry (k, a) gives row k of B itself when a is 1 and
    that row scaled by a otherwise: a field has no zero divisors, so nothing
    cancels and the order stays sorted.  Any other row is summed over
    integer numerators (`_product_row`).
    """
    out = []
    int_rows: dict = {}  # k -> row k of B over one denominator
    for row in a_rows:
        if len(row) == 1:
            (k, a), = row
            if a.den == 1 and a.num == a.field._powers[0]:
                out.append(b_rows[k])
            else:
                out.append(tuple([(j, a * v) for j, v in b_rows[k]]))
        elif row:
            out.append(_product_row(row, b_rows, int_rows))
        else:
            out.append(row)
    return tuple(out)


def _int_row(row, deg: int) -> tuple:
    """A sparse row of CycNums as (d, ((column, w), ...)) with each entry
    w / d: one denominator d, and w an integer numerator vector (in Q, an
    int)."""
    d = math.lcm(*[v.den for _, v in row])
    if deg == 1:
        return d, tuple([(j, v.num[0] * (d // v.den)) for j, v in row])
    return d, tuple([(j, v.num if v.den == d
                      else tuple([c * (d // v.den) for c in v.num]))
                     for j, v in row])


def _product_row(row, b_rows, int_rows) -> tuple:
    """The sparse row sum a * (row k of B) over the entries (k, a) of `row`,
    with B's rows read through `_int_row` (kept in `int_rows`).

    Every term is brought to one denominator, the row's, so the sum is over
    integer vectors (integers in Q) and each output entry is one `_normal`.
    """
    field = row[0][1].field
    deg = field.degree
    terms = []
    for k, a in row:
        brow = int_rows.get(k)
        if brow is None:
            brow = int_rows[k] = _int_row(b_rows[k], deg)
        if brow[1]:
            terms.append((a, a.den * brow[0], brow[1]))
    den = math.lcm(*[d for _, d, _ in terms])
    acc: dict = {}
    get = acc.get
    if deg == 1:
        for a, d, entries in terms:
            x = a.num[0] * (den // d)
            for j, w in entries:
                acc[j] = get(j, 0) + x * w
        return tuple([(j, _normal(field, (v,), den))
                      for j, v in sorted(acc.items()) if v])
    red = field._red
    for a, d, entries in terms:
        s = den // d
        x = a.num if s == 1 else tuple([c * s for c in a.num])
        for j, w in entries:
            p = _ivec_mul(x, w, deg, red)
            t = get(j)
            acc[j] = p if t is None else tuple(map(_add, t, p))
    return tuple([(j, _normal(field, v, den))
                  for j, v in sorted(acc.items()) if any(v)])


def _sparse_sum(terms) -> dict:
    """Sum (key, CycNum) pairs into a dict without zero values.

    This is the one way the engine forms a sparse linear combination, but
    for the rows of a matrix product: `_sparse_product` sums those over
    integer numerators, one denominator per row.  Keys
    keep the order in which they first appear (a key whose sum cancels to
    zero is dropped at the end, not moved), so a caller that writes the dict
    out in iteration order gets the same order every time.
    """
    out: dict = {}
    get = out.get
    for key, c in terms:
        s = get(key)
        out[key] = c if s is None else s + c
    return {key: c for key, c in out.items() if any(c.num)}


def _ivec_mul(a, b, deg, red):
    """The product of integer vectors a, b of Z[x]/Phi_N: their convolution,
    with x^deg .. x^(2*deg-2) replaced by the rows of `red`.  Degrees 1 (Q)
    and 2 (orders 3, 4, 6) are written out: most bundles live there."""
    if deg == 1:
        return (a[0] * b[0],)
    if deg == 2:
        (a0, a1), (b0, b1), (r0, r1) = a, b, red[0]
        top = a1 * b1
        return (a0 * b0 + top * r0, a0 * b1 + a1 * b0 + top * r1)
    conv = [0] * (2 * deg - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:deg]
    for k in range(deg, 2 * deg - 1):
        c = conv[k]
        if c:
            for i, r in enumerate(red[k - deg]):
                if r:
                    out[i] += c * r
    return tuple(out)


def _normalize_content(row: dict) -> dict:
    g = 0
    for vec in row.values():
        for c in vec:
            if c:
                g = math.gcd(g, abs(c))
                if g == 1:
                    return row
    if g > 1:
        return {c: tuple(x // g for x in vec) for c, vec in row.items()}
    return row
