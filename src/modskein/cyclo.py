"""Exact arithmetic over cyclotomic fields Q(zeta_N) and exact dense linear algebra.

Numbers are written in the power basis of Q[x]/Phi_N(x), with Phi_N the N-th
cyclotomic polynomial, so every element has a unique normal form and equality
is coefficient-wise.  All coefficients are `fractions.Fraction`; nothing in
this module (or anything built on it) ever rounds.

Matrices are eliminated fraction-free: rows are scaled to integer coefficient
vectors in Z[zeta_N] and reduced by content-normalized cross-multiplication
(Bareiss-style), so intermediate entries stay integral.  Pivoting is
deterministic: leftmost nonzero column first, earliest row wins.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce

__all__ = [
    "CycloError",
    "CycField",
    "CycNum",
    "ExactMatrix",
    "SolveResult",
    "cyc_arith",
    "cyclotomic_poly",
    "euler_phi",
    "kernel_basis",
    "solve_linear",
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
        self.degree = len(phi_poly) - 1
        # x^k mod Phi_N for k = degree .. 2*degree-2, as integer rows.
        red: list[tuple[int, ...]] = []
        top = [-c for c in phi_poly[:-1]]  # x^deg = top (Phi_N is monic)
        red.append(tuple(top))
        for _ in range(self.degree - 2):
            prev = red[-1]
            row = [0] + list(prev[:-1])
            if prev[-1]:
                for i in range(self.degree):
                    row[i] += prev[-1] * top[i]
            red.append(tuple(row))
        self._red = red
        cls._registry[order] = self
        return self

    # -- constructors ------------------------------------------------------

    def zero(self) -> "CycNum":
        return CycNum(self, (Fraction(0),) * self.degree, _checked=True)

    def one(self) -> "CycNum":
        return self.from_rational(1)

    def from_rational(self, r) -> "CycNum":
        coeffs = [Fraction(0)] * self.degree
        coeffs[0] = Fraction(r)
        return CycNum(self, tuple(coeffs), _checked=True)

    def zeta(self, power: int = 1) -> "CycNum":
        """zeta_N ** power, reduced."""
        power %= self.order
        mono = [0] * (power + 1)
        mono[power] = 1
        return CycNum(self, self._reduce([Fraction(c) for c in mono]), _checked=True)

    def from_coeffs(self, coeffs) -> "CycNum":
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) > self.degree:
            coeffs = self._reduce(coeffs)
        else:
            coeffs = tuple(coeffs + [Fraction(0)] * (self.degree - len(coeffs)))
        return CycNum(self, tuple(coeffs), _checked=True)

    # -- internals ----------------------------------------------------------

    def _reduce(self, coeffs: list[Fraction]) -> tuple[Fraction, ...]:
        deg = self.degree
        out = list(coeffs[:deg]) + [Fraction(0)] * max(0, deg - len(coeffs))
        for k in range(deg, len(coeffs)):
            c = coeffs[k]
            if c:
                row = self._red[k - deg]
                for i in range(deg):
                    if row[i]:
                        out[i] += c * row[i]
        return tuple(out)

    def _mul_coeffs(self, a, b) -> tuple[Fraction, ...]:
        deg = self.degree
        conv = [Fraction(0)] * (2 * deg - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        return self._reduce(conv)

    def __repr__(self):
        return "CycField(%d)" % self.order


class CycNum:
    """An exact element of Q(zeta_N) in the power basis mod Phi_N."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: CycField, coeffs, _checked: bool = False):
        if not _checked:
            num = field.from_coeffs(coeffs)
            coeffs = num.coeffs
        self.field = field
        self.coeffs = coeffs

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise CycloError("not a rational number: %s" % (self,))
        return self.coeffs[0]

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other) -> "CycNum":
        if isinstance(other, CycNum):
            if other.field is not self.field:
                raise CycloError(
                    "cyclotomic order mismatch: %d vs %d (embed first)"
                    % (self.field.order, other.field.order)
                )
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
        out = big.zero()
        for k, c in enumerate(self.coeffs):
            if c:
                out = out + CycNum(big, big._reduce(
                    [Fraction(0)] * (k * step) + [c]), _checked=True)
        return out

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.field,
                      tuple(a + b for a, b in zip(self.coeffs, other.coeffs)),
                      _checked=True)

    __radd__ = __add__

    def __neg__(self):
        return CycNum(self.field, tuple(-a for a in self.coeffs), _checked=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.field,
                      tuple(a - b for a, b in zip(self.coeffs, other.coeffs)),
                      _checked=True)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return CycNum(self.field,
                      self.field._mul_coeffs(self.coeffs, other.coeffs),
                      _checked=True)

    __rmul__ = __mul__

    def inverse(self) -> "CycNum":
        if self.is_zero():
            raise CycloError("division by zero in Q(zeta_%d)" % self.field.order)
        # Extended Euclid in Q[x] against Phi_N.
        deg = self.field.degree
        phi = [Fraction(c) for c in cyclotomic_poly(self.field.order)]
        r0, r1 = phi, list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            assert r1, "gcd(f, Phi_N) != 1 cannot happen for nonzero f"
            if len(r1) == 1:
                inv_c = 1 / r1[0]
                coeffs = [c * inv_c for c in s1]
                return CycNum(self.field, self.field._reduce(coeffs), _checked=True)
            q = [Fraction(0)] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            for k in range(len(q) - 1, -1, -1):
                factor = rem[k + len(r1) - 1] / r1[-1]
                q[k] = factor
                if factor:
                    for i, c in enumerate(r1):
                        rem[k + i] -= factor * c
            rem = rem[: len(r1) - 1]
            qs1 = [Fraction(0)] * (len(q) + len(s1) - 1)
            for i, qi in enumerate(q):
                if qi:
                    for j, sj in enumerate(s1):
                        qs1[i + j] += qi * sj
            new_s = [a - b for a, b in
                     zip(s0 + [Fraction(0)] * max(0, len(qs1) - len(s0)),
                         qs1 + [Fraction(0)] * max(0, len(s0) - len(qs1)))]
            r0, r1, s0, s1 = r1, rem, s1, new_s

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
        if isinstance(other, (int, Fraction)):
            other = self.field.from_rational(other)
        if not isinstance(other, CycNum):
            return NotImplemented
        return self.field is other.field and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.field.order, self.coeffs))

    # -- rendering ----------------------------------------------------------

    def to_complex(self) -> complex:
        z = complex(math.cos(2 * math.pi / self.field.order),
                    math.sin(2 * math.pi / self.field.order))
        total = 0j
        for k, c in enumerate(self.coeffs):
            if c:
                total += float(c) * z ** k
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
            return rational_str(self.coeffs[0])
        return {"order": self.field.order,
                "coeffs": [rational_str(c) for c in self.coeffs]}

    @staticmethod
    def from_obj(obj, field: CycField) -> "CycNum":
        if isinstance(obj, dict):
            order = int(obj["order"])
            coeffs = [parse_rational(c) for c in obj["coeffs"]]
            num = CycField(order).from_coeffs(coeffs)
            if order != field.order:
                num = num.embed(field.order)
            return num
        return field.from_rational(parse_rational(obj))


def rational_str(r: Fraction) -> str:
    r = Fraction(r)
    if r.denominator == 1:
        return str(r.numerator)
    return "%d/%d" % (r.numerator, r.denominator)


def parse_rational(s) -> Fraction:
    if isinstance(s, (int, Fraction)):
        return Fraction(s)
    if isinstance(s, str):
        return Fraction(s.strip())
    raise CycloError("cannot parse rational from %r" % (s,))


def unify(a: CycNum, b: CycNum) -> tuple[CycNum, CycNum]:
    """Embed both arguments into Q(zeta_lcm)."""
    if a.field is b.field:
        return a, b
    m = math.lcm(a.field.order, b.field.order)
    return a.embed(m), b.embed(m)


def cyc_arith(a: CycNum, b: CycNum, op: str) -> CycNum:
    """Four-function exact arithmetic; same order required (embed first)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise CycloError("unknown operation %r" % (op,))


# ---------------------------------------------------------------------------
# Exact matrices
# ---------------------------------------------------------------------------


class SolveResult:
    """Affine solution set of A X = B: a particular solution plus the kernel.

    `particular` is None when the system is infeasible (a distinguished
    outcome, not an error).  `kernel` columns span {X : A X = 0}.
    """

    __slots__ = ("particular", "kernel")

    def __init__(self, particular, kernel):
        self.particular = particular
        self.kernel = kernel

    @property
    def feasible(self) -> bool:
        return self.particular is not None


class ExactMatrix:
    """Dense matrix of CycNum entries over a fixed cyclotomic field."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: CycField, data):
        self.field = field
        self.data = [list(row) for row in data]
        self.rows = len(self.data)
        self.cols = len(self.data[0]) if self.data else 0
        for row in self.data:
            if len(row) != self.cols:
                raise CycloError("ragged matrix rows")

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zeros(field: CycField, rows: int, cols: int) -> "ExactMatrix":
        z = field.zero()
        mat = ExactMatrix.__new__(ExactMatrix)
        mat.field = field
        mat.rows = rows
        mat.cols = cols
        mat.data = [[z] * cols for _ in range(rows)]
        return mat

    @staticmethod
    def identity(field: CycField, n: int) -> "ExactMatrix":
        mat = ExactMatrix.zeros(field, n, n)
        one = field.one()
        for i in range(n):
            mat.data[i][i] = one
        return mat

    @staticmethod
    def from_rows(field: CycField, rows) -> "ExactMatrix":
        conv = [[field.from_rational(e) if isinstance(e, (int, Fraction)) else e
                 for e in row] for row in rows]
        return ExactMatrix(field, conv)

    @staticmethod
    def column(field: CycField, entries) -> "ExactMatrix":
        return ExactMatrix.from_rows(field, [[e] for e in entries])

    def copy(self) -> "ExactMatrix":
        return ExactMatrix(self.field, self.data)

    # -- structure ------------------------------------------------------------

    def __getitem__(self, idx):
        i, j = idx
        return self.data[i][j]

    def __setitem__(self, idx, value):
        i, j = idx
        self.data[i][j] = value

    def row(self, i) -> list:
        return list(self.data[i])

    def col(self, j) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(self.field,
                           [[self.data[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(e.is_zero() for row in self.data for e in row)

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.field is other.field and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        return hash((self.field.order, self.rows, self.cols,
                     tuple(tuple(row) for row in self.data)))

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise CycloError("matrix shape mismatch in add")
        return ExactMatrix(self.field,
                           [[a + b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise CycloError("matrix shape mismatch in sub")
        return ExactMatrix(self.field,
                           [[a - b for a, b in zip(r1, r2)]
                            for r1, r2 in zip(self.data, other.data)])

    def __neg__(self):
        return ExactMatrix(self.field, [[-a for a in row] for row in self.data])

    def scale(self, c) -> "ExactMatrix":
        if isinstance(c, (int, Fraction)):
            c = self.field.from_rational(c)
        return ExactMatrix(self.field, [[c * a for a in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, CycNum)):
            return self.scale(other)
        if self.cols != other.rows:
            raise CycloError("matrix shape mismatch in mul: %dx%d * %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        zero = self.field.zero()
        out = ExactMatrix.zeros(self.field, self.rows, other.cols)
        bdata = other.data
        for i in range(self.rows):
            arow = self.data[i]
            orow = out.data[i]
            for k in range(self.cols):
                a = arow[k]
                if a.is_zero():
                    continue
                brow = bdata[k]
                for j in range(other.cols):
                    b = brow[j]
                    if not b.is_zero():
                        orow[j] = orow[j] + a * b
        del zero
        return out

    __rmul__ = scale

    def kron(self, other: "ExactMatrix") -> "ExactMatrix":
        """Kronecker product, row-major index convention (i1*r2+i2, j1*c2+j2)."""
        out = ExactMatrix.zeros(self.field, self.rows * other.rows,
                                self.cols * other.cols)
        for i1 in range(self.rows):
            for j1 in range(self.cols):
                a = self.data[i1][j1]
                if a.is_zero():
                    continue
                for i2 in range(other.rows):
                    orow = out.data[i1 * other.rows + i2]
                    brow = other.data[i2]
                    base = j1 * other.cols
                    for j2 in range(other.cols):
                        b = brow[j2]
                        if not b.is_zero():
                            orow[base + j2] = a * b
        return out

    def trace(self) -> CycNum:
        if self.rows != self.cols:
            raise CycloError("trace of a non-square matrix")
        t = self.field.zero()
        for i in range(self.rows):
            t = t + self.data[i][i]
        return t

    # -- elimination ------------------------------------------------------------

    def _system(self, rhs: "ExactMatrix | None" = None) -> "LinearSystem":
        sys = LinearSystem(self.field, self.cols, rhs.cols if rhs else 0)
        for i in range(self.rows):
            coeffs = {j: e for j, e in enumerate(self.data[i]) if not e.is_zero()}
            rvals = None
            if rhs is not None:
                rvals = {j: e for j, e in enumerate(rhs.data[i]) if not e.is_zero()}
            sys.add_row(coeffs, rvals)
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
        denom = 1
        items = list(coeffs.items())
        if rhs:
            items += [(self.ncols + j, e) for j, e in rhs.items()]
        for _, e in items:
            for c in e.coeffs:
                denom = denom * c.denominator // math.gcd(denom, c.denominator)
        row = {}
        for j, e in items:
            vec = tuple(int(c * denom) for c in e.coeffs)
            if any(vec):
                row[j] = vec
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
                av = _ivec_mul(a, row.get(c), deg, red)
                bv = _ivec_mul(b, prow.get(c), deg, red)
                if av is None:
                    vec = tuple(-y for y in bv) if bv else None
                elif bv is None:
                    vec = av
                else:
                    vec = tuple(x - y for x, y in zip(av, bv))
                if vec and any(vec):
                    new[c] = vec
            row = _normalize_content(new)

    # -- results ----------------------------------------------------------------

    def rank(self) -> int:
        return len(self._pivots)

    def _to_cyc(self, v) -> CycNum:
        return CycNum(self.field, tuple(Fraction(c) for c in v), _checked=True)

    def _back_substitute(self, x: list, pivot_cols, upto: int | None = None):
        zero = self.field.zero()
        for pc in reversed(pivot_cols):
            if upto is not None and pc > upto:
                continue
            row = self._pivots[pc]
            s = zero
            for c, vec in row.items():
                if c > pc and c < self.ncols and not x[c].is_zero():
                    s = s + self._to_cyc(vec) * x[c]
            x[pc] = -s / self._to_cyc(row[pc])

    def kernel(self) -> "ExactMatrix":
        pivot_cols = sorted(c for c in self._pivots if c < self.ncols)
        free_cols = [c for c in range(self.ncols) if c not in self._pivots]
        zero, one = self.field.zero(), self.field.one()
        out = ExactMatrix.zeros(self.field, self.ncols, len(free_cols))
        for j, fc in enumerate(free_cols):
            x = [zero] * self.ncols
            x[fc] = one
            self._back_substitute(x, pivot_cols, upto=fc)
            for i in range(self.ncols):
                out.data[i][j] = x[i]
        return out

    def solve(self) -> SolveResult:
        kernel = self.kernel()
        if self._infeasible_row:
            return SolveResult(None, kernel)
        pivot_cols = sorted(self._pivots)
        zero = self.field.zero()
        part = ExactMatrix.zeros(self.field, self.ncols, self.nrhs)
        for j in range(self.nrhs):
            x = [zero] * self.ncols
            rcol = self.ncols + j
            for pc in reversed(pivot_cols):
                row = self._pivots[pc]
                s = self._to_cyc(row[rcol]) if rcol in row else zero
                for c, vec in row.items():
                    if c > pc and c < self.ncols and not x[c].is_zero():
                        s = s - self._to_cyc(vec) * x[c]
                x[pc] = s / self._to_cyc(row[pc])
            for i in range(self.ncols):
                part.data[i][j] = x[i]
        return SolveResult(part, kernel)


def _ivec_mul(a, b, deg, red):
    if b is None:
        return None
    conv = [0] * (2 * deg - 1)
    for i in range(deg):
        ai = a[i]
        if ai:
            for j in range(deg):
                bj = b[j]
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:deg]
    for k in range(deg, 2 * deg - 1):
        c = conv[k]
        if c:
            rrow = red[k - deg]
            for i in range(deg):
                if rrow[i]:
                    out[i] += c * rrow[i]
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


def solve_linear(a: ExactMatrix, b: ExactMatrix) -> SolveResult:
    return a.solve(b)


def kernel_basis(a: ExactMatrix) -> ExactMatrix:
    return a.kernel_basis()
