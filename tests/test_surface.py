"""Skein algebras of surfaces: the coend product and its invariant restriction."""

import re
from itertools import product

import pytest

from modskein import surface
from modskein.bundles import sweedler_bundle, uqsl2_bundle, z4_bundle
from modskein.coend import coadjoint_rep, dinat, qchar
from modskein.cyclo import CycField, ExactMatrix, _sparse_sum
from modskein.errors import CapabilityError, StructureError
from modskein.hopf import (braiding, dual_rep, hom_space, is_projective,
                           tensor_rep, trivial_rep)
from modskein.surface import (AlgebraPresentation, algebra_to_obj, char_map,
                              coend_mult, skalg, skalg_dimension, _apply_mu,
                              _power_mult, _power_rep)
from test_coend import BUNDLES


def sparse(vec):
    return {k: c for k, c in enumerate(vec) if not c.is_zero()}


def test_coend_mult_unit_is_counit(z2, sweedler, z4):
    for b in (z2, sweedler, z4):
        mu = _power_mult(b, 1)
        eps = sparse(b.counit)
        for j in range(b.dim):
            e_j = {j: b.field.one()}
            assert _apply_mu(mu, eps, e_j) == e_j
            assert _apply_mu(mu, e_j, eps) == e_j


def test_coend_mult_h_linear(sweedler, z4):
    for b in (sweedler, z4):
        mu = coend_mult(b)
        coad = coadjoint_rep(b)
        ll = tensor_rep(b, coad, coad)
        for i in range(b.dim):
            assert coad.mats[i] * mu == mu * ll.mats[i]


def test_coend_mult_associative(sweedler, z4):
    for b in (sweedler, z4):
        mu = coend_mult(b)
        field = b.field
        eye = ExactMatrix.identity(field, b.dim)
        left = mu * mu.kron(eye)     # (f g) h
        right = mu * eye.kron(mu)    # f (g h)
        assert left == right


def test_coend_mult_dinatural_characterization(z2, sweedler, z4):
    # mu o (i_M (x) i_N) = i_{M (x) N} o (id_M (x) c_{M*, N (x) N*}),
    # with (M (x) N)* identified with N* (x) M*.
    for b in (z2, sweedler, z4):
        field = b.field
        mu = coend_mult(b)
        one = field.one()
        names = sorted(b.modules)[:3]
        for n1 in names:
            for n2 in names:
                m, n = b.module(n1), b.module(n2)
                lhs = mu * dinat(b, m).kron(dinat(b, n))
                mn = tensor_rep(b, m, n)
                ms, ns = dual_rep(b, m), dual_rep(b, n)
                nns = tensor_rep(b, n, ns)
                mid = ExactMatrix.identity(field, m.dim).kron(
                    braiding(b, ms, nns))
                size = m.dim * n.dim * n.dim * m.dim
                perm = [[field.zero()] * size for _ in range(size)]
                mn_dim = m.dim * n.dim
                for xm in range(m.dim):
                    for xn in range(n.dim):
                        for bi in range(n.dim):
                            for ai in range(m.dim):
                                src = ((xm * n.dim + xn) * n.dim + bi) \
                                    * m.dim + ai
                                dst = (xm * n.dim + xn) * mn_dim \
                                    + (ai * n.dim + bi)
                                perm[dst][src] = one
                rhs = dinat(b, mn) * ExactMatrix(field, perm) * mid
                assert lhs == rhs, (b.name, n1, n2)


def _dense_coend_mult(b):
    """mu by a dense loop over R, Delta(beta) and Delta(h) that forms
    S(beta_2) h_2 beta_1 itself: the oracle for `coend_mult`, which reads
    that product from the coadjoint rows."""
    field, d = b.field, b.dim
    one = field.one()
    out = [[field.zero()] * (d * d) for _ in range(d)]
    s_table = [b.elem_antipode({a: one}) for a in range(d)]
    for h in range(d):
        row = out[h]
        for (alpha, beta, c_r) in b.R:
            for (b1, b2, c_b) in b.comult_table[beta]:
                for (h1, h2, c_h) in b.comult_table[h]:
                    coeff = c_r * c_b * c_h
                    u = b.elem_mult(s_table[alpha], {h1: one})
                    w = b.elem_mult(s_table[b2],
                                    b.elem_mult({h2: one}, {b1: one}))
                    for iu, cu in u.items():
                        for jw, cw in w.items():
                            col = iu * d + jw
                            row[col] = row[col] + coeff * cu * cw
    return ExactMatrix(field, out)


@pytest.mark.parametrize("name", ["z2", "sweedler_0", "sweedler_1",
                                  "sweedler_2", "z4", "trivial"])
def test_coend_mult_matches_the_dense_loop(name):
    b = BUNDLES[name]()
    assert coend_mult(b) == _dense_coend_mult(b)


def _dense_power_mult(b, m):
    """The dense definition mu_m = (mu (x) mu_{m-1}) o
    (id_L (x) c_{L^{m-1}, L} (x) id_{L^{m-1}}), as a d^m x d^{2m} matrix."""
    mu = coend_mult(b)
    if m == 1:
        return mu
    swap = braiding(b, _power_rep(b, m - 1), coadjoint_rep(b))
    eye_l = ExactMatrix.identity(b.field, b.dim)
    eye_rest = ExactMatrix.identity(b.field, b.dim ** (m - 1))
    return mu.kron(_dense_power_mult(b, m - 1)) * \
        eye_l.kron(swap).kron(eye_rest)


@pytest.mark.parametrize("name,m", [("z2", 2), ("sweedler", 2), ("z4", 2),
                                    ("z2", 3)])
def test_power_mult_columns_match_dense_definition(request, name, m):
    b = request.getfixturevalue(name)
    dense = _dense_power_mult(b, m)
    dm = b.dim ** m
    want = {(i, j): col for i in range(dm) for j in range(dm)
            if (col := sparse(dense.col(i * dm + j)))}
    assert _power_mult(b, m) == want


def _column_loop_power_mult(b, m):
    """mu_m for m > 1 by a loop over all d^(2m) columns (a*D + r, b'*D + s),
    D = d^(m-1), each summed over the whole braiding column r*d + b'."""
    d = b.dim
    mu = _power_mult(b, 1)
    prev = mu if m == 2 else _column_loop_power_mult(b, m - 1)
    swap = braiding(b, _power_rep(b, m - 1), coadjoint_rep(b))
    swap_cols = [_sparse_sum(enumerate(col)) for col in zip(*swap.data)]
    dm1, none = d ** (m - 1), {}
    return {(a * dm1 + r, bb * dm1 + s): v
            for a, r, bb, s in product(range(d), range(dm1), range(d),
                                       range(dm1))
            if (v := _sparse_sum(
                (k1 * dm1 + k2, c * c1 * c2)
                for t, c in swap_cols[r * d + bb].items()
                for k1, c1 in mu.get((a, t // dm1), none).items()
                for k2, c2 in prev.get((t % dm1, s), none).items()))}


@pytest.mark.parametrize("name", ["sweedler", "z4"])
def test_power_mult_matches_the_column_loop_in_key_order(request, name):
    b = request.getfixturevalue(name)
    for m in (2, 3):
        got, want = _power_mult(b, m), _column_loop_power_mult(b, m)
        assert [(key, list(col.items())) for key, col in got.items()] == \
            [(key, list(col.items())) for key, col in want.items()]


def test_z2_coend_mult_is_convolution(z2):
    b = z2
    mu = coend_mult(b)
    conv = [[b.field.zero()] * 4 for _ in range(2)]
    for h in range(2):
        for (h1, h2, c) in b.comult_table[h]:
            conv[h][h1 * 2 + h2] = conv[h][h1 * 2 + h2] + c
    assert mu == ExactMatrix(b.field, conv)


def test_skalg_z2_annulus_is_character_ring(z2):
    b = z2
    alg = skalg(b, 0, 2)
    assert alg.dim == 2
    assert alg.is_commutative()
    assert alg.check_unit() and alg.check_associativity()
    # brute-force oracle: the character ring of Z/2 under tensor product.
    # chi_triv, chi_sgn multiply as the group ring of Z/2.
    cm = char_map(b, alg)
    assert cm["rank"] == 2          # surjective: SkAlg_I = SkAlg_A
    assert cm["multiplicative"]
    field = b.field
    t_triv = cm["images"]["triv"]
    t_sgn = cm["images"]["sgn"]
    # chi_sgn * chi_sgn = chi_{sgn (x) sgn} = chi_triv, etc.
    assert alg.product_coords(t_sgn, t_sgn) == t_triv
    assert alg.product_coords(t_triv, t_sgn) == t_sgn
    assert alg.product_coords(t_triv, t_triv) == t_triv


def test_skalg_semisimple_annulus_commutative(z2, z4, trivial):
    for b in (z2, z4, trivial):
        assert is_projective(b, trivial_rep(b))   # unit projective
        alg = skalg(b, 0, 2)
        assert alg.is_commutative()


def test_skalg_sweedler_annulus(sweedler):
    alg = skalg(sweedler, 0, 2)
    assert alg.dim == 2
    assert alg.check_unit() and alg.check_associativity()


def test_skalg_one_holed_torus_sweedler(sweedler):
    alg = skalg(sweedler, 1, 1)
    # dimension recorded from the invariant-solver oracle, no external claim
    oracle_dim = len(hom_space(
        sweedler, trivial_rep(sweedler),
        tensor_rep(sweedler, coadjoint_rep(sweedler),
                   coadjoint_rep(sweedler))))
    assert alg.dim == oracle_dim
    assert alg.check_unit() and alg.check_associativity()


def test_skalg_dimension_monotonicity(z2, sweedler):
    # dim skalg(g, n+1) = dim Hom(1, L^{(x)(2g+n)}): two code paths agree
    for b in (z2, sweedler):
        for (g, n) in ((0, 2), (0, 3), (1, 1)):
            alg = skalg(b, g, n)
            assert alg.dim == skalg_dimension(b, g, n)
        assert skalg_dimension(b, 0, 3) == skalg_dimension(b, 1, 1)


def test_skalg_preconditions(sweedler, uqsl2_p2):
    with pytest.raises(StructureError):
        skalg(sweedler, 0, 0)
    with pytest.raises(StructureError):
        skalg(sweedler, 0, 1)
    with pytest.raises(CapabilityError):
        skalg(uqsl2_p2, 0, 2)
    # the dimension path works pivotal-only
    assert skalg_dimension(uqsl2_p2, 0, 2) == 5


@pytest.mark.parametrize("call, named", [
    (lambda b: skalg_dimension(b, 0.5, 2), "g must be an int, not 0.5"),
    (lambda b: skalg(b, True, 1), "g must be an int, not True"),
    (lambda b: skalg(b, 0, 2.0), "n must be an int, not 2.0"),
], ids=["float g", "bool g", "float n"])
def test_a_count_that_is_not_an_int_is_refused(sweedler, call, named):
    # Before the check these returned 5, a presentation with g = True, and a
    # bare TypeError.
    with pytest.raises(StructureError, match="^%s$" % re.escape(named)):
        call(sweedler)


def test_char_map_sweedler(sweedler):
    alg = skalg(sweedler, 0, 2)
    cm = char_map(sweedler, alg)
    assert cm["rank"] == 2
    assert cm["multiplicative"]
    for (pair, ok) in cm["multiplicativity_report"].items():
        assert ok, pair


def test_char_map_takes_one_qchar_per_module(monkeypatch):
    b = sweedler_bundle()
    alg = skalg(b, 0, 2)
    expected = char_map(b, alg)
    calls = []

    def counted(bundle, rep):
        calls.append(rep)
        return qchar(bundle, rep)

    monkeypatch.setattr(surface, "qchar", counted)
    assert char_map(b, alg) == expected
    # each module once; the q-character of M (x) N is read from Delta
    n = len(b.modules)
    assert len(calls) == n
    assert set(calls) == set(b.modules.values())


def test_char_map_names_a_simple_missing_from_the_modules():
    b = sweedler_bundle()
    alg = skalg(b, 0, 2)
    del b.modules["sgn"]
    with pytest.raises(StructureError, match="no module named 'sgn'"):
        char_map(b, alg)


def test_char_map_needs_annulus(sweedler):
    alg = skalg(sweedler, 1, 1)
    with pytest.raises(StructureError):
        char_map(sweedler, alg)


def test_trace_invariants_multiplicative_under_mu(sweedler, z4):
    for b in (sweedler, z4):
        mu = _power_mult(b, 1)
        names = sorted(b.modules)
        for n1 in names:
            for n2 in names:
                m, n = b.module(n1), b.module(n2)
                lhs = _apply_mu(mu, sparse(qchar(b, m).coords),
                                sparse(qchar(b, n).coords))
                rhs = sparse(qchar(b, tensor_rep(b, m, n)).coords)
                assert lhs == rhs, (b.name, n1, n2)


@pytest.mark.parametrize("p, dim", [(2, 38), (3, 132)])
def test_the_invariants_of_l_tensor_l_for_restricted_uqsl2(p, dim):
    # dim Hom(1, L (x) L): the surfaces (0, 3) and (1, 1) both take L^(x)2
    b = uqsl2_bundle(p)
    assert skalg_dimension(b, 0, 3) == skalg_dimension(b, 1, 1) == dim


def test_coend_mult_requires_r(uqsl2_p2):
    with pytest.raises(CapabilityError):
        coend_mult(uqsl2_p2)


def test_threaded_runs_are_deterministic(sweedler):
    from modskein.hopf import validate_bundle
    assert validate_bundle(sweedler, threads=3) == validate_bundle(sweedler)
    a1 = skalg(sweedler, 0, 2)
    a2 = skalg(sweedler, 0, 2, threads=3)
    assert a1.structure == a2.structure
    assert a1.unit_coords == a2.unit_coords
    assert a1.basis_vectors == a2.basis_vectors


def _with_constant(alg, pair, k, c):
    """alg with the coordinate of v_k in the product `pair` set to c."""
    structure = {key: dict(col) for key, col in alg.structure.items()}
    structure[pair][k] = c
    if c.is_zero():
        del structure[pair][k]
    return AlgebraPresentation(alg.bundle_name, alg.g, alg.n,
                               alg.basis_vectors, alg.labels, structure,
                               alg.unit_coords, field=alg.field)


def test_law_checks_reject_mutated_structure_constants(sweedler, z4):
    for b, (g, n) in ((sweedler, (0, 2)), (z4, (0, 2)), (sweedler, (1, 1))):
        alg = skalg(b, g, n)
        assert not alg.structure[(0, 1)]
        bad = _with_constant(alg, (0, 1), 1, b.field.one())  # v_0 v_1 = v_1
        assert not bad.check_unit(), (b.name, g, n)
        assert not bad.check_associativity(), (b.name, g, n)
    # Doubling the idempotent v_0 v_0 = v_0 keeps the product associative
    # but breaks the unit law: the two checks are independent.
    alg = skalg(z4, 0, 2)
    assert alg.structure[(0, 0)][0] == z4.field.one()
    bad = _with_constant(alg, (0, 0), 0, z4.field.from_rational(2))
    assert not bad.check_unit()
    assert bad.check_associativity()


def _matrix_units():
    """M_2(Q): matrix unit E_ab at index 2a + b, E_ab E_cd = [b = c] E_ad."""
    field = CycField(1)
    one, zero = field.one(), field.zero()
    structure = {(2 * a + b, 2 * c + d): {2 * a + d: one} if b == c else {}
                 for a in range(2) for b in range(2)
                 for c in range(2) for d in range(2)}
    return AlgebraPresentation("m2", 0, 1, [[one]] * 4,
                               ["E00", "E01", "E10", "E11"], structure,
                               [one, zero, zero, one], field=field)


def test_law_checks_on_the_matrix_algebra():
    # Every skein algebra computed here is commutative; the 2x2 matrix
    # algebra is not, so it pins the order of the products in both checks.
    alg = _matrix_units()
    one, zero = alg.field.one(), alg.field.zero()
    assert not alg.is_commutative()
    assert alg.check_unit() and alg.check_associativity()
    assert alg.product_coords([zero, one, zero, zero],
                              [zero, zero, one, zero]) == [one, zero, zero, zero]


def _associative_by_triples(alg):
    """The per-triple check: (v_i v_j) v_k and v_i (v_j v_k), each summed on
    its own, for every one of the d^3 triples."""
    st = alg.structure
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(alg.dim):
                left = _sparse_sum((s, c * c2)
                                   for t, c in st[(i, j)].items()
                                   for s, c2 in st[(t, k)].items())
                right = _sparse_sum((s, c * c2)
                                    for t, c in st[(j, k)].items()
                                    for s, c2 in st[(i, t)].items())
                if left != right:
                    return False
    return True


def _mutants(alg, count=6):
    """Single-entry mutants: `count` perturbed nonzero constants (c -> c + 1)
    and `count` added ones (0 -> 1), spread over the structure."""
    one = alg.field.one()
    present = [(pair, k) for pair, col in sorted(alg.structure.items())
               for k in sorted(col)]
    absent = [((i, j), k) for i in range(alg.dim) for j in range(alg.dim)
              for k in range(alg.dim) if k not in alg.structure[(i, j)]]
    for entries, bump in ((present, lambda c: c + one),
                          (absent, lambda c: one)):
        for pair, k in entries[::max(1, len(entries) // count)][:count]:
            yield _with_constant(alg, pair, k, bump(alg.structure[pair].get(k)))


def test_associativity_check_agrees_with_the_per_triple_loop(z2, sweedler,
                                                             z4):
    algebras = [_matrix_units(), skalg(sweedler, 1, 2)] + [
        skalg(b, g, n) for b in (z2, sweedler, z4)
        for g, n in ((0, 2), (1, 1), (0, 3))]
    verdicts = []
    for alg in algebras:
        assert alg.check_associativity() and _associative_by_triples(alg)
        for bad in _mutants(alg):
            verdicts.append(bad.check_associativity())
            assert verdicts[-1] == _associative_by_triples(bad), alg
    # the mutants reach both verdicts
    assert True in verdicts and False in verdicts


def test_editing_the_coend_product_changes_no_later_result():
    b, fresh = z4_bundle(), z4_bundle()
    mu = coend_mult(b)
    with pytest.raises(TypeError):
        mu.data[0] = [b.field.one()] * mu.cols
    assert algebra_to_obj(skalg(b, 0, 2)) == algebra_to_obj(skalg(fresh, 0, 2))
    assert coend_mult(b) == coend_mult(fresh) == mu
