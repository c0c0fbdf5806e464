"""Property-based tests of the exact kernel: Q(zeta_N) arithmetic and elimination."""

import json
import math
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from modskein.bundles import sweedler_bundle, z4_bundle
from modskein.coend import (coadjoint_rep, dinat, recompose, red_to_blue,
                            regular_rep, trivial_rep)
from modskein.cyclo import (CycField, CycNum, ExactMatrix, LinearSystem,
                            _from_cols, _nonzero_entries, _sorted_row,
                            _sparse_cols, _sparse_product, _sparse_rows,
                            _sparse_sum)
from modskein.hopf import (_free_cover_system, _intertwiner_system, braiding,
                           braiding_inverse, hom_space, projective_section,
                           tensor_rep, twist, twist_inverse)
from modskein.rt import _PAIRINGS, Diagram, Generator, _pairing, evaluate
from modskein.surface import coend_mult
from test_cyclo import _oracle_product, kernel, rank, solve

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
    kern = kernel(a)
    assert rank(a) == dense_rank(a)
    assert rank(a) + kern.cols == a.cols
    assert kern.rows == a.cols
    if kern.cols:
        assert (a * kern).is_zero()
        assert rank(kern) == kern.cols


@settings(max_examples=60)
@given(matrices(extra_cols=1))
def test_solve_has_zero_residual(ab):
    # split [A | b]; b is feasible exactly when it does not raise the rank
    field = ab.field
    a = ExactMatrix(field, [r[:-1] for r in ab.data])
    b = ExactMatrix(field, [r[-1:] for r in ab.data])
    res = solve(a, b)
    assert res.feasible == (rank(ab) == rank(a))
    assert res.kernel == kernel(a)
    if res.feasible:
        assert (a * res.particular - b).is_zero()
    # a right-hand side of the form A x0 is always feasible
    x0 = ExactMatrix(field, [[field.one()] for _ in range(a.cols)])
    res = solve(a, a * x0)
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
        cols = _sparse_cols(joint.particular)
        for j, res in enumerate(alone):
            assert cols[j] == _sparse_cols(res.particular)[0]
        for j in (0, 2):
            assert not cols[j]



# -- back-substitution against the dense loop it replaced ---------------------

def _dense_back_substitute(system, x, inverses, rcol=None, upto=None):
    """The dense back-substitution `LinearSystem` used to run: x is a list
    of ncols entries, and pivots right of `upto` are skipped."""
    zero, ncols = system.field.zero(), system.ncols
    for pc, inverse in inverses:
        if upto is not None and pc > upto:
            continue
        row = system._pivots[pc]
        s = system._to_cyc(row[rcol]) if rcol in row else zero
        for c, vec in row.items():
            if pc < c < ncols and any(x[c].num):
                s = s - system._to_cyc(vec) * x[c]
        x[pc] = s * inverse


def _dense_kernel(system):
    inverses = system._pivot_inverses()
    zero, one = system.field.zero(), system.field.one()
    cols = []
    for fc in range(system.ncols):
        if fc not in system._pivots:
            x = [zero] * system.ncols
            x[fc] = one
            _dense_back_substitute(system, x, inverses, upto=fc)
            cols.append(_nonzero_entries(x))
    return _from_cols(system.field, cols, system.ncols)


def _dense_particular(system):
    if system._infeasible_row:
        return None
    inverses = system._pivot_inverses()
    zero = system.field.zero()
    cols = [()] * system.nrhs
    for j in {c - system.ncols for row in system._pivots.values()
              for c in row if c >= system.ncols}:
        x = [zero] * system.ncols
        _dense_back_substitute(system, x, inverses, rcol=system.ncols + j)
        cols[j] = _nonzero_entries(x)
    return _from_cols(system.field, cols, system.ncols)


def _assert_matches_dense(system):
    kernel, particular = system.kernel(), system.solve().particular
    assert _sparse_rows(kernel) == _sparse_rows(_dense_kernel(system))
    dense = _dense_particular(system)
    assert (particular is None) == (dense is None)
    if dense is not None:
        assert (particular.rows, particular.cols) == (dense.rows, dense.cols)
        assert _sparse_rows(particular) == _sparse_rows(dense)


@st.composite
def systems(draw):
    """A LinearSystem over Q or Q(zeta_4) with 0 to 2 right-hand sides."""
    field = draw(st.sampled_from((1, 4)).map(CycField))
    ncols, nrhs = draw(st.integers(1, 6)), draw(st.integers(0, 2))
    entry = st.one_of(st.just(field.zero()), elems(field, small))
    system = LinearSystem(field, ncols, nrhs)
    for _ in range(draw(st.integers(1, 6))):
        row = [draw(entry) for _ in range(ncols + nrhs)]
        system.add_row({j: e for j, e in enumerate(row[:ncols]) if any(e.num)},
                       {j: e for j, e in enumerate(row[ncols:]) if any(e.num)})
    return system


@settings(max_examples=80)
@given(systems())
def test_back_substitution_matches_the_dense_loop(system):
    _assert_matches_dense(system)


def test_back_substitution_matches_the_dense_loop_on_uqsl2(uqsl2_p2):
    b = uqsl2_p2
    coad = coadjoint_rep(b)
    invariants = _intertwiner_system(b, trivial_rep(b),
                                     tensor_rep(b, coad, coad))
    assert invariants.ncols - invariants.rank() == 38
    section = _free_cover_system(b, b.module("X+2"))
    assert section.solve().feasible
    for system in (invariants, section):
        _assert_matches_dense(system)

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


# -- the sparse product kernel ---------------------------------------------------


def _mixed_elems(field):
    """Elements whose coefficients have denominators 1, 2, 3 or 6, so that
    the entries of one row mix their denominators."""
    coeff = st.builds(Fraction, st.integers(-3, 3),
                      st.sampled_from((1, 2, 3, 6)))
    return elems(field, coeff).filter(lambda x: not x.is_zero())


@st.composite
def product_rows(draw):
    """Sparse rows A and B over Q, Q(zeta_4) or Q(zeta_10), and the indices
    of A's rows that are one unit entry.  B's second half negates its first
    half, so an A row that takes a row and its negation with one coefficient
    cancels to zero."""
    field = draw(st.sampled_from((1, 4, 10)).map(CycField))
    x = _mixed_elems(field)
    ncols, half = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    b_rows = [_sorted_row(_sparse_sum(
        (j, draw(x)) for j in range(ncols) if draw(st.booleans())))
        for _ in range(half)]
    b_rows += [tuple((j, -v) for j, v in row) for row in b_rows]
    k = st.integers(0, 2 * half - 1)
    a_rows, units = [], []
    for i in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("empty", "unit", "single", "cancel",
                                     "any")))
        if kind == "empty":
            row = ()
        elif kind == "unit":
            row = ((draw(k), field.one()),)
            units.append(i)
        elif kind == "single":
            row = ((draw(k), draw(x)),)
        elif kind == "cancel":
            j, c = draw(st.integers(0, half - 1)), draw(x)
            row = ((j, c), (j + half, c))
        else:
            row = _sorted_row(_sparse_sum(
                (j, draw(x)) for j in range(2 * half) if draw(st.booleans())))
        a_rows.append(row)
    return tuple(a_rows), tuple(b_rows), units


@settings(max_examples=150)
@given(product_rows())
def test_the_sparse_product_matches_the_summing_oracle(drawn):
    a_rows, b_rows, units = drawn
    got = _sparse_product(a_rows, b_rows)
    assert got == _oracle_product(a_rows, b_rows)
    for row, out in zip(a_rows, got):
        assert type(out) is tuple
        assert all(not v.is_zero() for _, v in out)
        assert [j for j, _ in out] == sorted({j for j, _ in out})
        if len(row) == 2 and row[0][1] == row[1][1] \
                and row[1][0] == row[0][0] + len(b_rows) // 2:
            assert out == ()
    for i in units:
        assert got[i] is b_rows[a_rows[i][0][0]]


# -- the two states of ExactMatrix -----------------------------------------------


def _tables(draw, field, shapes):
    entry = st.one_of(st.just(field.zero()), st.just(field.zero()),
                      elems(field, small))
    return [[[draw(entry) for _ in range(c)] for _ in range(r)]
            for r, c in shapes]


@st.composite
def twin_tables(draw):
    """A field of order 1, 4 or 5, then dense tables A (r x k), B (k x c),
    C (r x k) and D (any shape), each of which may be empty."""
    field = draw(st.sampled_from((1, 4, 5)).map(CycField))
    r, k, c = (draw(st.integers(0, 4)) for _ in range(3))
    shapes = [(r, k), (k, c), (r, k),
              (draw(st.integers(0, 3)), draw(st.integers(0, 3)))]
    return field, shapes, _tables(draw, field, shapes)


def _twins(field, shape, table):
    """Two matrices built by `ExactMatrix(field, table)` from one table:
    both hold the same canonical rows."""
    if not table:  # no rows, so no table to carry the width
        rows = ExactMatrix.zeros(field, *shape)
        return rows, rows
    rows, twin = ExactMatrix(field, table), ExactMatrix(field, table)
    assert _sparse_rows(rows) == _sparse_rows(twin)
    assert rows._data is None and twin._data is None
    assert (rows.rows, rows.cols) == (twin.rows, twin.cols) == shape
    return rows, twin


def _assert_canonical(mat):
    rows = _sparse_rows(mat)
    assert type(rows) is tuple and len(rows) == mat.rows
    for row in rows:
        assert type(row) is tuple
        assert all(0 <= j < mat.cols and not v.is_zero() for j, v in row)
        assert [j for j, _ in row] == sorted({j for j, _ in row})


def _table_matrix(field, table, shape):
    return ExactMatrix(field, table) if table else ExactMatrix.zeros(
        field, *shape)


@settings(max_examples=80)
@given(twin_tables(), st.integers(-3, 3))
def test_rows_and_table_twins_agree(drawn, s):
    field, shapes, tables = drawn
    (a, ta), (b, tb), (c, tc), (d, td) = (
        _twins(field, shape, t) for shape, t in zip(shapes, tables))
    zero = field.zero()
    ad, bd, cd, dd = tables
    (r, k), (_, cc) = shapes[0], shapes[1]

    def matmul(x, y, n):
        return [[sum((x[i][t] * y[t][j] for t in range(n)), zero)
                 for j in range(len(y[0]) if y else cc)] for i in range(len(x))]

    dr, dc = shapes[3]
    oracles = {
        "mul": (lambda x, y, z, w: x * y,
                _table_matrix(field, matmul(ad, bd, k), (r, cc))),
        "add": (lambda x, y, z, w: x + z,
                _table_matrix(field, [[u + v for u, v in zip(p, q)]
                               for p, q in zip(ad, cd)], (r, k))),
        "sub": (lambda x, y, z, w: x - z,
                _table_matrix(field, [[u - v for u, v in zip(p, q)]
                               for p, q in zip(ad, cd)], (r, k))),
        "neg": (lambda x, y, z, w: -x,
                _table_matrix(field, [[-u for u in p] for p in ad], (r, k))),
        "scale": (lambda x, y, z, w: x.scale(s),
                  _table_matrix(field, [[u * s for u in p] for p in ad], (r, k))),
        "transpose": (lambda x, y, z, w: _from_cols(field, _sparse_rows(x), k),
                      _table_matrix(field, [list(col) for col in zip(*ad)]
                             if r else [], (k, r))),
        "kron": (lambda x, y, z, w: x.kron(w), _table_matrix(field, [
            [ad[i1][j1] * dd[i2][j2] for j1 in range(k) for j2 in range(dc)]
            for i1 in range(r) for i2 in range(dr)], (r * dr, k * dc))),
    }
    for name, (op, oracle) in oracles.items():
        got = op(a, b, c, d)
        twin = op(ta, tb, tc, td)
        _assert_canonical(got)
        assert got == oracle == twin, name
        assert hash(got) == hash(oracle) == hash(twin), name
        assert got.data == oracle.data, name
    assert a == ta and hash(a) == hash(ta) and a.is_zero() == ta.is_zero()
    assert rank(a) == rank(ta)
    assert kernel(a) == kernel(ta)
    ra, rt = solve(a, a * b), solve(ta, ta * tb)
    assert ra.feasible and rt.feasible
    assert ra.particular == rt.particular and ra.kernel == rt.kernel


@settings(max_examples=60)
@given(matrices(), st.data())
def test_a_mutated_table_is_the_matrix(a, data):
    field = a.field
    # the table is a read-only view: every write into it is refused, the
    # matrix stays what it was, and an edited copy of the table is a new one
    held = ExactMatrix(field, a.data)
    before = held
    i = data.draw(st.integers(0, a.rows - 1))
    j = data.draw(st.integers(0, a.cols - 1))
    new = data.draw(elems(field, small).filter(lambda x: x != a.data[i][j]))
    with pytest.raises(TypeError):
        held.data[i][j] = new
    with pytest.raises(TypeError):
        held.data[i] = [field.one()] * a.cols
    with pytest.raises(TypeError):
        held[i, j] = field.zero()
    twin = [list(row) for row in a.data]
    assert _sparse_rows(held) == _sparse_rows(ExactMatrix(field, twin))
    assert held == before == ExactMatrix(field, twin)
    assert hash(held) == hash(before) and held.data[i][j] == a.data[i][j] != new
    twin[i][j] = new
    edited = ExactMatrix(field, twin)
    assert edited == ExactMatrix(field, twin) and edited.data[i][j] == new
    assert hash(edited) == hash(ExactMatrix(field, twin)) and edited != held


def test_engine_builders_give_canonical_rows():
    # every matrix the engine builds from rows holds them canonically, so
    # `==` and `hash` agree with a table-held twin of the same entries
    def check(mat):
        _assert_canonical(mat)
        twin = ExactMatrix(mat.field, [list(row) for row in mat.data]) \
            if mat.rows else mat
        assert mat == twin and hash(mat) == hash(twin)

    for b in (sweedler_bundle(), z4_bundle()):
        field, names = b.field, sorted(b.modules)
        reg, coad, triv = regular_rep(b), coadjoint_rep(b), trivial_rep(b)
        reps = [b.module(name) for name in names] + [coad]
        out = [coend_mult(b)]
        for m in reps:
            out += [dinat(b, m), twist(b, m), twist_inverse(b, m),
                    m.act({h: field.zeta(h) for h in range(b.dim)})]
            out += m.mats
            out += [_pairing(b, m, as_row, elem)
                    for _, as_row, elem in _PAIRINGS.values()]
            out += [braiding(b, m, n) for n in reps]
            out += [braiding_inverse(b, m, n) for n in reps]
            out += hom_space(b, m, tensor_rep(b, coad, m))
            section = projective_section(b, m)
            out += [section] if section is not None else []
        f = hom_space(b, reg, tensor_rep(b, tensor_rep(b, coad, coad), triv))[0]
        terms = red_to_blue(b, f, reg, 2, triv)
        out += [fhat for _, fhat in terms] + [recompose(b, terms, 2, triv)]
        x, y = (names[0], "+"), (names[-1], "+")
        diagram = Diagram([x, y], [x, y], [
            [Generator("braid", points=(x, y))],
            [Generator("braid_inv", points=(y, x))],
            [Generator("twist", points=(x,)), Generator("id", points=(y,))]])
        value = evaluate(b, diagram)
        out += [value, value.scale(field.zeta(1)) + value]
        for mat in out:
            check(mat)
