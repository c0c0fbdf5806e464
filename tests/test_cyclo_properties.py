"""Property-based tests of the exact kernel: Q(zeta_N) arithmetic and elimination."""

import json
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modskein.cyclo import CycField, CycNum, ExactMatrix, LinearSystem

ORDERS = (1, 2, 3, 4, 5, 6, 8, 12)
# each order and some of its proper multiples, the targets of `embed`
MULTIPLES = {1: (2, 3), 2: (4, 6), 3: (6, 12), 4: (8, 12), 5: (10,),
             6: (12,), 8: (24,), 12: (24,)}

fields = st.sampled_from(ORDERS).map(CycField)
rationals = st.fractions(min_value=-8, max_value=8, max_denominator=6)


def elems(field, coeff=rationals):
    return st.lists(coeff, min_size=field.degree,
                    max_size=field.degree).map(field.from_coeffs)


def tuples_of(n):
    return fields.flatmap(lambda f: st.tuples(*[elems(f)] * n))


@given(tuples_of(3))
def test_field_axioms(abc):
    a, b, c = abc
    zero, one = a.field.zero(), a.field.one()
    assert a + b == b + a and a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + zero == a == zero + a and a * one == a == one * a
    assert a * zero == zero == zero * a
    assert a + (-a) == zero and a - b == a + (-b)


@given(tuples_of(2))
def test_inverse(ab):
    a, b = ab
    assume(not a.is_zero())
    assert a * a.inverse() == a.field.one()
    assert (b / a) * a == b


@given(st.sampled_from(ORDERS).flatmap(
    lambda n: st.tuples(st.sampled_from(MULTIPLES[n]),
                        *[elems(CycField(n))] * 2)))
def test_embed_is_a_ring_map(mab):
    m, a, b = mab
    n = a.field.order
    big = CycField(m)
    assert (a + b).embed(m) == a.embed(m) + b.embed(m)
    assert (a * b).embed(m) == a.embed(m) * b.embed(m)
    assert a.field.one().embed(m) == big.one()
    assert a.field.zeta().embed(m) == big.zeta(m // n)


@given(tuples_of(3))
def test_normal_form(abc):
    a, b, c = abc
    field = a.field
    results = [a, a * b + c, a - a, (a + b) * (a - b), -b, c * Fraction(1, 6)]
    if not a.is_zero():
        results.append(b / a)
    for x in results:
        # num/den with den > 0 and no common factor; zero is (0, ..., 0)/1
        assert len(x.num) == field.degree
        assert all(type(n) is int for n in x.num) and type(x.den) is int
        assert x.den > 0 and math.gcd(x.den, *x.num) == 1
        assert x.den == 1 or not x.is_zero()
        assert isinstance(x.coeffs, tuple) and len(x.coeffs) == field.degree
        assert all(type(q) is Fraction for q in x.coeffs)
        assert field.from_coeffs(x.coeffs) == x
        assert CycNum(field, list(x.coeffs)) == x


@given(tuples_of(2))
def test_to_obj_roundtrip(ab):
    a, b = ab
    for x in (a, a * b):
        obj = json.loads(json.dumps(x.to_obj()))
        y = CycNum.from_obj(obj, x.field)
        assert y == x and y.to_obj() == x.to_obj()
        for m in MULTIPLES[x.field.order]:
            assert CycNum.from_obj(obj, CycField(m)) == x.embed(m)


@given(tuples_of(3))
def test_equal_values_hash_equal(abc):
    a, b, c = abc
    pairs = [((a + b) - b, a), (a * b, b * a), ((a * b) * c, a * (b * c)),
             (a * (b + c), a * b + a * c), (a - a, a.field.zero())]
    for x, y in pairs:
        assert x == y and hash(x) == hash(y)
    if a == b:
        assert hash(a) == hash(b)


# -- LinearSystem ----------------------------------------------------------------

small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@st.composite
def matrices(draw, extra_cols=0):
    field = draw(st.sampled_from((1, 3, 4, 12)).map(CycField))
    rows = draw(st.integers(1, 5))
    cols = draw(st.integers(1, 5)) + extra_cols
    entry = st.one_of(st.just(field.zero()), elems(field, small))
    return ExactMatrix(field, [[draw(entry) for _ in range(cols)]
                               for _ in range(rows)])


def dense_rank(a):
    """Textbook Gaussian elimination with CycNum division: an oracle."""
    rows = [list(r) for r in a.data]
    rank = 0
    for c in range(a.cols):
        piv = next((i for i in range(rank, len(rows))
                    if not rows[i][c].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] / rows[rank][c]
            rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


@settings(max_examples=60)
@given(matrices())
def test_rank_nullity(a):
    kern = a.kernel_basis()
    assert a.rank() == dense_rank(a)
    assert a.rank() + kern.cols == a.cols
    assert kern.rows == a.cols
    if kern.cols:
        assert (a * kern).is_zero()
        assert kern.rank() == kern.cols


@settings(max_examples=60)
@given(matrices(extra_cols=1))
def test_solve_has_zero_residual(ab):
    # split [A | b]; b is feasible exactly when it does not raise the rank
    field = ab.field
    a = ExactMatrix(field, [r[:-1] for r in ab.data])
    b = ExactMatrix(field, [r[-1:] for r in ab.data])
    res = a.solve(b)
    assert res.feasible == (ab.rank() == a.rank())
    assert res.kernel == a.kernel_basis()
    if res.feasible:
        assert (a * res.particular - b).is_zero()
    # a right-hand side of the form A x0 is always feasible
    x0 = ExactMatrix(field, [[field.one()] for _ in range(a.cols)])
    res = a.solve(a * x0)
    assert res.feasible and a * res.particular == a * x0


@settings(max_examples=60)
@given(matrices(extra_cols=1))
def test_pivots_are_deterministic(a):
    def eliminate():
        system = LinearSystem(a.field, a.cols - 1, 1)
        for row in a.data:
            system.add_row({j: e for j, e in enumerate(row[:-1])
                            if not e.is_zero()},
                           {0: row[-1]} if not row[-1].is_zero() else None)
        return system

    s1, s2 = eliminate(), eliminate()
    assert s1._pivots == s2._pivots
    assert list(s1._pivots) == list(s2._pivots)
    r1, r2 = s1.solve(), s2.solve()
    assert r1.kernel == r2.kernel and r1.particular == r2.particular


def _solve_rows(field, rows, rhs_cols):
    """Solve the rows of A against the right-hand sides `rhs_cols` (each a
    column of entries, one per row) in one `LinearSystem`."""
    system = LinearSystem(field, len(rows[0]), len(rhs_cols))
    for r, row in enumerate(rows):
        system.add_row({j: e for j, e in enumerate(row) if not e.is_zero()},
                       {j: col[r] for j, col in enumerate(rhs_cols)
                        if not col[r].is_zero()})
    return system.solve()


@settings(max_examples=60)
@given(matrices(), st.booleans(), st.data())
def test_solve_matches_each_right_hand_side_alone(a, infeasible, data):
    # Rows of A plus the sum of its first and last rows, with the sum of
    # their right-hand sides: for a consistent b that row reduces to zero,
    # its right-hand side cancelling during elimination.  Zero right-hand sides sit between the
    # others; `infeasible` adds one whose last entry is off by one.
    field = a.field
    rows = [list(r) for r in a.data]
    rows.append([x + y for x, y in zip(rows[0], rows[-1])])
    xs = [[data.draw(elems(field, small)) for _ in range(a.cols)]
          for _ in range(2)]
    zero = [field.zero()] * len(rows)
    rhs = [zero, [sum((e * x for e, x in zip(row, xs[0])), field.zero())
                  for row in rows], zero]
    rhs.append([sum((e * x for e, x in zip(row, xs[1])), field.zero())
                for row in rows])
    if infeasible:
        rhs.append(rhs[1][:-1] + [rhs[1][-1] + field.one()])
    joint = _solve_rows(field, rows, rhs)
    alone = [_solve_rows(field, rows, [col]) for col in rhs]
    assert joint.feasible == (not infeasible)
    assert joint.feasible == all(res.feasible for res in alone)
    for res in alone:
        assert res.kernel == joint.kernel
    if joint.feasible:
        assert isinstance(joint.particular, ExactMatrix)
        for j, res in enumerate(alone):
            assert joint.particular.col(j) == res.particular.col(0)
        for j in (0, 2):
            assert all(e.is_zero() for e in joint.particular.col(j))


@given(fields, st.integers(-30, 30), st.integers(-30, 30))
def test_zeta_powers(field, j, k):
    # every power of zeta reduces, including x^k with k >= 2 * degree - 1
    z = field.zeta()
    assert field.zeta(k) == z ** k
    assert field.zeta(j) * field.zeta(k) == field.zeta(j + k)


@given(fields.flatmap(lambda f: st.tuples(elems(f), st.sampled_from(
    [f.one(), f.from_rational(1), f.zeta(f.order), f.from_coeffs(
        (1,) + (0,) * (f.degree - 1)), 1, Fraction(1)]))))
def test_multiplying_by_one_keeps_the_normal_form(x_one):
    x, one = x_one
    for y in (x * one, one * x):
        assert y == x and (y.num, y.den) == (x.num, x.den)
        assert type(y.num) is tuple and type(y.den) is int
