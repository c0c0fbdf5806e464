"""Exact cyclotomic arithmetic and fraction-free linear algebra."""

import random
from decimal import Decimal
from fractions import Fraction

import pytest

from modskein.bundles import sweedler_bundle, z2_bundle
from modskein.cyclo import (CycField, CycNum, CycloError, ExactMatrix,
                            LinearSystem, _column_system, _solve_in_basis,
                            _sorted_row, _sparse_cols, _sparse_product,
                            _sparse_sum, cyclotomic_poly, parse_rational,
                            rational_str)
from modskein.hopf import _memo, projective_section


def rnd_elem(field, rng, span=4):
    return field.from_coeffs([Fraction(rng.randint(-span, span),
                                       rng.randint(1, 3))
                              for _ in range(field.degree)])


def columns(mat):
    """The columns of a matrix as sparse {row: entry} dicts."""
    return [dict(col) for col in _sparse_cols(mat)]


def rank(mat):
    """The rank of a matrix: the rank of its columns' `_column_system`."""
    return _column_system(mat.field, columns(mat)).rank()


def kernel(mat):
    """The columns span {x : mat x = 0}."""
    return _column_system(mat.field, columns(mat)).kernel()


def solve(a, b):
    """The solution set of a X = b: the coordinates of the columns of b in
    the span of the columns of a."""
    return _solve_in_basis(a.field, columns(a), columns(b))


def test_cyclotomic_polynomials():
    assert cyclotomic_poly(1) == (-1, 1)
    assert cyclotomic_poly(2) == (1, 1)
    assert cyclotomic_poly(4) == (1, 0, 1)
    assert cyclotomic_poly(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_poly(12) == (1, 0, -1, 0, 1)
    # the degree of Phi_n is Euler's phi(n)
    phi = {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 8: 4, 9: 6, 12: 4, 15: 8}
    for n, degree in phi.items():
        assert len(cyclotomic_poly(n)) - 1 == degree


@pytest.mark.parametrize("order", [True, False, 2.0, "4", None])
def test_a_field_order_must_be_an_int(order):
    # True would be Q(zeta_1) and 2.0 Q(zeta_2), read from the registry
    with pytest.raises(CycloError, match="must be an int"):
        CycField(order)


def test_zeta4_squared_is_minus_one():
    field = CycField(4)
    i = field.zeta()
    assert i * i == field.from_rational(-1)


def test_additive_identity():
    field = CycField(8)
    x = field.zeta(3) + field.from_rational(Fraction(2, 7))
    assert x + field.zero() == x


def test_zeta8_plus_inverse_squared():
    # Frozen expected value 2, confirmed by the floating-point oracle.
    field = CycField(8)
    z = field.zeta()
    val = (z + z ** -1) ** 2
    assert val == field.from_rational(2)
    assert abs(val.to_complex() - 2) < 1e-12


def test_field_axioms_randomized():
    rng = random.Random(7)
    for order in (1, 2, 3, 4, 5, 6, 8, 12):
        field = CycField(order)
        for _ in range(25):
            a, b, c = (rnd_elem(field, rng) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)
            assert a + (-a) == field.zero()
            if not a.is_zero():
                assert a * a.inverse() == field.one()
                assert (b / a) * a == b


def test_division_by_zero():
    field = CycField(4)
    with pytest.raises(CycloError):
        field.one() / field.zero()


def test_mixed_orders_error_and_embedding():
    a = CycField(4).zeta()
    b = CycField(6).zeta()
    with pytest.raises(CycloError):
        a + b
    a2, b2 = a.embed(12), b.embed(12)
    assert a2.field.order == 12
    # zeta_12^3 = zeta_4 and zeta_12^2 = zeta_6
    big = CycField(12)
    assert a2 == big.zeta(3)
    assert b2 == big.zeta(2)


def test_embedding_requires_divisibility():
    with pytest.raises(CycloError):
        CycField(4).zeta().embed(6)


def test_serialization_roundtrip():
    field = CycField(8)
    x = field.zeta(3).__mul__(Fraction(-7, 3)) + field.from_rational(2)
    obj = x.to_obj()
    assert obj["order"] == 8
    assert CycNum.from_obj(obj, field) == x
    assert rational_str(Fraction(-7, 3)) == "-7/3"
    assert rational_str(Fraction(5)) == "5"
    assert parse_rational("5") == 5
    assert parse_rational("-7/3") == Fraction(-7, 3)
    # pure rationals serialize flat
    assert field.from_rational(Fraction(1, 2)).to_obj() == "1/2"


def test_solve_identity_and_zero():
    field = CycField(1)
    ident = ExactMatrix.identity(field, 5)
    rhs = ExactMatrix(field, [[i + 1] for i in range(5)])
    res = solve(ident, rhs)
    assert res.feasible and res.particular == rhs and res.kernel.cols == 0
    zero = ExactMatrix.zeros(field, 3, 2)
    bad = ExactMatrix(field, [[1], [0], [0]])
    assert not solve(zero, bad).feasible


def test_solve_random_invertible_20x20():
    field = CycField(1)
    rng = random.Random(11)
    while True:
        a = ExactMatrix(field, [[rng.randint(-5, 5) for _ in range(20)]
                                for _ in range(20)])
        if rank(a) == 20:
            break
    rhs = ExactMatrix(field, [[rng.randint(-9, 9), rng.randint(0, 3)]
                              for _ in range(20)])
    res = solve(a, rhs)
    assert res.feasible and res.kernel.cols == 0
    assert a * res.particular == rhs


def test_kernel_identity_and_zero():
    field = CycField(1)
    assert kernel(ExactMatrix.identity(field, 4)).cols == 0
    kern = kernel(ExactMatrix.zeros(field, 3, 3))
    assert kern == ExactMatrix.identity(field, 3)


def test_kernel_rank_nullity_randomized():
    rng = random.Random(13)
    field = CycField(4)
    i = field.zeta()
    for _ in range(20):
        rows, cols = rng.randint(2, 7), rng.randint(2, 7)
        a = ExactMatrix(
            field, [[rng.choice([0, 0, 1, -1, 2]) * (i if rng.random() < 0.3
                                                     else field.one())
                     for _ in range(cols)] for _ in range(rows)])
        kern = kernel(a)
        assert rank(a) + kern.cols == cols
        if kern.cols:
            assert (a * kern).is_zero()
            assert rank(kern) == kern.cols


def test_elimination_matches_naive_gaussian():
    # Independent oracle: plain fraction Gaussian elimination over Q.
    def naive_rank(rows):
        rows = [list(map(Fraction, r)) for r in rows]
        rank = 0
        cols = len(rows[0])
        r = 0
        for c in range(cols):
            piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            for i in range(len(rows)):
                if i != r and rows[i][c]:
                    f = rows[i][c] / rows[r][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
            r += 1
            rank += 1
        return rank

    rng = random.Random(17)
    field = CycField(1)
    for _ in range(25):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        data = [[rng.randint(-4, 4) for _ in range(cols)] for _ in range(rows)]
        a = ExactMatrix(field, data)
        assert rank(a) == naive_rank(data)


def test_solve_consistency_on_rank_deficient():
    field = CycField(1)
    a = ExactMatrix(field, [[1, 1], [2, 2]])
    ok = solve(a, ExactMatrix(field, [[1], [2]]))
    assert ok.feasible and ok.kernel.cols == 1
    x = ok.particular
    assert a * x == ExactMatrix(field, [[1], [2]])
    bad = solve(a, ExactMatrix(field, [[1], [3]]))
    assert not bad.feasible


def test_matrix_kron_and_trace():
    field = CycField(4)
    i = field.zeta()
    a = ExactMatrix(field, [[1, i], [0, 1]])
    b = ExactMatrix(field, [[0, 1], [1, 0]])
    ab = a.kron(b)
    assert ab.rows == 4 and ab.data[0][1] == field.one() and ab.data[0][3] == i
    assert a.trace() == field.from_rational(2)
    eye = ExactMatrix.identity(field, 2)
    assert a * solve(a, eye).particular == eye


def _shape(mat):
    return mat.rows, mat.cols


def test_empty_matrices_keep_their_shapes():
    field = CycField(4)
    eye = ExactMatrix.identity(field, 2)
    for r, c in ((0, 3), (3, 0), (0, 0)):
        # built from rows, and from a (possibly empty) table
        held = [ExactMatrix.zeros(field, r, c)]
        if r:
            held.append(ExactMatrix(field, [[field.zero()] * c] * r))
        for z in held:
            assert _shape(z) == (r, c)
            assert _shape(z.kron(eye)) == (2 * r, 2 * c)
            assert _shape(eye.kron(z)) == (2 * r, 2 * c)
            assert _shape(z * ExactMatrix.zeros(field, c, 4)) == (r, 4)
            assert _shape(ExactMatrix.zeros(field, 4, r) * z) == (4, c)
            assert z.is_zero() and z == ExactMatrix.zeros(field, r, c)
    # a product through an empty inner dimension is the zero matrix
    prod = ExactMatrix.zeros(field, 3, 0) * ExactMatrix.zeros(field, 0, 2)
    assert _shape(prod) == (3, 2) and prod.is_zero()
    assert prod.data == ((field.zero(),) * 2,) * 3
    # a stored 0 x k matrix is handed out by the memo with its shape
    b = z2_bundle()
    for _ in range(2):
        assert _shape(_memo(b, ("test_empty",),
                            lambda: ExactMatrix.zeros(b.field, 0, 3))) == (0, 3)


def _oracle_product(a_rows, b_rows):
    """The body of `_sparse_product` before its fast paths: sum every
    product a * v into a dict and sort it."""
    return tuple(_sorted_row(_sparse_sum((j, a * v) for k, a in row
                                         for j, v in b_rows[k]))
                 for row in a_rows)


def test_sparse_product_matches_the_summing_oracle():
    rng = random.Random(16)
    for order in (1, 4, 5):  # degrees 1, 2 and 4
        field = CycField(order)
        one, z = field.one(), field.zeta()

        def scalar():
            # denominators 1, 2, 3 and 6, so rows mix their denominators
            return field.from_coeffs([Fraction(rng.randint(-3, 3),
                                               rng.choice((1, 2, 3, 6)))
                                      for _ in range(field.degree)])

        def row(ncols, density):
            return _sorted_row(_sparse_sum((j, scalar()) for j in range(ncols)
                                           if rng.random() < density))

        half = field.from_rational(Fraction(1, 2))
        third = field.from_rational(Fraction(-1, 3))
        b_rows = (((0, one), (2, half)), ((0, -one), (1, third), (2, z)),
                  (), ((1, third * z),), ((0, -one), (2, -half)))
        a_rows = (
            ((0, one),),             # a unit entry: row 0 of B itself
            ((1, z),), ((3, half),),  # scaled single entries
            ((2, one),),             # a unit entry picking an empty row
            (),                      # an empty row
            ((0, one), (1, one)),    # (1, 1/2) + (-1, -1/3, z): 0 cancels
            ((0, half), (1, third), (3, z * half)),  # denominators 2, 3, 6
            ((0, z), (1, z)), ((1, one), (3, -one)),
            ((0, z), (4, z)))        # rows 0 and 4 of B cancel entirely
        got = _sparse_product(a_rows, b_rows)
        assert got == _oracle_product(a_rows, b_rows)
        assert got[0] is b_rows[0]
        assert got[5][0][0] == 1  # column 0 cancelled and is absent
        assert got[-1] == ()
        for _ in range(30):
            inner, ncols = rng.randint(1, 5), rng.randint(1, 5)
            b_rows = tuple(row(ncols, 0.6) for _ in range(inner))
            a_rows = tuple(row(inner, rng.choice((0.2, 0.5, 0.9)))
                           for _ in range(rng.randint(1, 5)))
            assert _sparse_product(a_rows, b_rows) == \
                _oracle_product(a_rows, b_rows)


def test_floats_are_refused():
    # 0.1 would enter as 3602879701896397/36028797018963968
    field = CycField(4)
    for bad in (0.1, 1.0, float("nan"), Decimal("0.1"), None, "1/x"):
        with pytest.raises(CycloError):
            field.from_rational(bad)
        with pytest.raises(CycloError):
            field.from_coeffs([1, bad])
    with pytest.raises(CycloError):
        ExactMatrix(field, [[1, 0.5]])
    assert field.from_rational("-7/3") == field.from_rational(Fraction(-7, 3))
    assert field.from_coeffs(["1/2", 3]) == 3 * field.zeta() + Fraction(1, 2)


def test_a_table_is_coerced_to_its_field_or_refused():
    # ints, Fractions and rational strings become entries of the field; a
    # float or a CycNum of another field is refused, as CycNum arithmetic
    # refuses it, instead of building a matrix that equals nothing
    q, qi = CycField(1), CycField(4)
    eye = ExactMatrix.identity(q, 2)
    assert ExactMatrix(q, [[1, 0], [0, 1]]) == eye
    assert ExactMatrix(q, [[Fraction(2, 2), "0"], ["0/3", q.one()]]) == eye
    assert hash(ExactMatrix(q, [[1, 0], [0, 1]])) == hash(eye)
    assert ExactMatrix(qi, [["1/2", 0]]).data[0][0] == qi.from_rational("1/2")
    for bad in ([[0.5]], [[1.0, 0]], [[q.one()]], [[0, CycField(8).zeta()]]):
        with pytest.raises(CycloError):
            ExactMatrix(qi, bad)
    with pytest.raises(CycloError, match="ragged"):
        ExactMatrix(q, [[1, 0], [1]])


def test_solve_builds_the_kernel_only_when_read(monkeypatch):
    field = CycField(4)
    one = field.one()
    built = []
    kernel = LinearSystem.kernel
    monkeypatch.setattr(LinearSystem, "kernel",
                        lambda self: built.append(self) or kernel(self))
    system = LinearSystem(field, 3, 1)
    system.add_row({0: one, 1: one}, {0: field.zeta()})
    res, later = system.solve(), system.solve()
    assert built == [] and res.particular == ExactMatrix(
        field, [[field.zeta()], [0], [0]])
    want = ExactMatrix(field, [[-1, 0], [1, 0], [0, 1]])
    assert res.kernel == want and res.kernel is res.kernel and len(built) == 1
    # a row that adds no pivot leaves an unread kernel readable; one that
    # adds a pivot makes it a named error instead of another system's kernel
    system.add_row({0: 2 * one, 1: 2 * one}, {0: 2 * field.zeta()})
    assert later.kernel == want and len(built) == 2
    stale = system.solve()
    system.add_row({1: one})
    with pytest.raises(CycloError, match="solve again"):
        stale.kernel
    assert res.kernel == want and len(built) == 2
    assert system.solve().kernel == ExactMatrix(field, [[0], [0], [1]])
    # an infeasible system builds its kernel on read too
    system.add_row({0: one}, {0: one})
    infeasible = system.solve()
    assert not infeasible.feasible and len(built) == 3
    assert infeasible.kernel == ExactMatrix(field, [[0], [0], [1]])
    # coordinates in a basis and a projective section never read the kernel
    res = _solve_in_basis(field, [{"a": one}, {"a": one, "b": one}],
                          [{"b": field.zeta()}])
    assert res.particular == ExactMatrix(field, [[-field.zeta()],
                                                 [field.zeta()]])
    b = sweedler_bundle()
    assert projective_section(b, b.module("proj_plus")) is not None
    assert len(built) == 4


def test_scalar_interface_the_benchmark_tracer_uses(monkeypatch):
    # perfbench/tracer.py counts scalar operations by patching these names in
    # the class dict, and measures coefficient sizes through `coeffs`.
    counted = ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__",
               "inverse")
    for order in (1, 4, 12):
        field = CycField(order)
        x = field.zeta() * Fraction(-7, 3) + Fraction(1, 2)
        assert type(x.coeffs) is tuple and len(x.coeffs) == field.degree
        assert all(type(c) is Fraction for c in x.coeffs)
    assert (-CycField(4).zeta()).coeffs == (0, -1)
    calls = []
    for name in counted:
        def counter(*args, _name=name, _fn=vars(CycNum)[name]):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(CycNum, name, counter)
    a, b = CycField(12).zeta(), CycField(12).one()
    a + b, 1 + a, a - b, a * b, 2 * a, a.inverse()
    assert calls == list(counted)


def test_matrix_operations_refuse_another_field():
    # a product, sum or Kronecker product of matrices over Q and Q(zeta_4)
    # is a named error, whichever side holds which field, not a matrix
    # labelled with one field that holds entries of the other
    q, qi = CycField(1), CycField(4)
    m = ExactMatrix(qi, [[qi.zeta(), 0], [1, qi.zeta()]])
    for left, right in ((ExactMatrix.identity(q, 2), m),
                        (m, ExactMatrix.identity(q, 2)),
                        (ExactMatrix.zeros(q, 2, 2), m)):
        for op in (lambda x, y: x * y, lambda x, y: x + y,
                   lambda x, y: x - y, ExactMatrix.kron):
            with pytest.raises(CycloError, match="cyclotomic order mismatch"):
                op(left, right)
    assert ExactMatrix.identity(qi, 2) * m == m


def test_a_sum_shares_a_row_beside_an_empty_row():
    field = CycField(4)
    z = field.zeta()
    a = ExactMatrix(field, [[z, 0], [0, 0], [1, -1]])
    b = ExactMatrix(field, [[0, 0], [0, z], [-1, 1]])
    total = a + b
    assert total == ExactMatrix(field, [[z, 0], [0, z], [0, 0]])
    assert total._sparse[0] is a._sparse[0]
    assert total._sparse[1] is b._sparse[1]


def test_a_bool_is_not_a_rational():
    # JSON true/false reach the parser as Python bools, which are ints
    field = CycField(4)
    for bad in (True, False):
        with pytest.raises(CycloError, match="cannot parse"):
            parse_rational(bad)
        with pytest.raises(CycloError, match="cannot parse"):
            CycNum.from_obj(bad, field)
        with pytest.raises(CycloError, match="cannot parse"):
            field.from_coeffs([0, bad])
    assert CycNum.from_obj(1, field) == field.one()
    # nor does a number equal a bool, and arithmetic with one is refused
    one, zero = field.one(), field.zero()
    assert not one == True and not zero == False  # noqa: E712
    assert one != True and zero != False  # noqa: E712
    assert one == 1 and zero == 0 and one == Fraction(1)
    with pytest.raises(CycloError):
        one + True
