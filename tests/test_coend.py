"""Coend model: coadjoint action, dinaturality, SLF, q-characters, lifting."""

import random
import re
from itertools import chain

import pytest

from modskein.coend import (SLFElem, _action_blocks, _commutators,
                            _contract_blocks, apply_factored_action,
                            canonical_image_dim, coadjoint_rep, dinat,
                            is_symmetric_form, iterated_comult, qchar,
                            recompose, red_to_blue, slf_basis)
from modskein.bundles import (sweedler_bundle, trivial_bundle, uqsl2_bundle,
                              z2_bundle, z4_bundle)
from modskein.cyclo import ExactMatrix, _sparse_cols, _sparse_rows, _sparse_sum
from modskein.errors import InadmissibleError, StructureError
from modskein.hopf import (Rep, dual_rep, hom_space, projective_section,
                           regular_rep, tensor_rep, trivial_rep, validate_rep)
from test_cyclo import rank


# Fresh bundles by name, so that no cached coadjoint action is compared.
BUNDLES = {"z2": z2_bundle, "z4": z4_bundle, "trivial": trivial_bundle,
           "sweedler_0": lambda: sweedler_bundle(0),
           "sweedler_1": lambda: sweedler_bundle(1),
           "sweedler_2": lambda: sweedler_bundle(2),
           "uqsl2_p2": lambda: uqsl2_bundle(2)}


def test_coadjoint_is_a_module(z2, sweedler, z4, trivial):
    for b in (z2, sweedler, z4, trivial):
        assert validate_rep(b, coadjoint_rep(b)) == []


def _dense_coadjoint(b):
    """The coadjoint action matrices by a dense loop over S(e_k) e_x e_j:
    the oracle for the sparse rows of `coadjoint_rep`."""
    field, d = b.field, b.dim
    one = field.one()
    mats = []
    for i in range(d):
        table = [[field.zero()] * d for _ in range(d)]
        for (j, k, c) in b.comult_table[i]:
            sk = b.elem_antipode({k: one})
            for x in range(d):
                t = b.elem_mult(sk, b.elem_mult({x: one}, {j: one}))
                for bidx, coeff in t.items():
                    table[x][bidx] = table[x][bidx] + c * coeff
        mats.append(ExactMatrix(field, table))
    return mats


@pytest.mark.parametrize("name", ["z2", "sweedler_0", "sweedler_1",
                                  "sweedler_2", "z4", "trivial", "uqsl2_p2"])
def test_coadjoint_rows_match_the_dense_loop(name):
    b = BUNDLES[name]()
    rep = coadjoint_rep(b)
    assert rep.rows == tuple(_sparse_rows(m) for m in _dense_coadjoint(b))


def test_coadjoint_trivial_for_commutative_cocommutative(z2, z4):
    # group algebras of abelian groups: conjugation-type action collapses
    for b in (z2, z4):
        rep = coadjoint_rep(b)
        for i in range(b.dim):
            eps = b.counit[i]
            expected = ExactMatrix.identity(b.field, b.dim).scale(eps)
            assert rep.mats[i] == expected


def test_dinat_h_linear_for_every_module(z2, sweedler, z4):
    for b in (z2, sweedler, z4):
        coad = coadjoint_rep(b)
        for name in sorted(b.modules):
            m = b.module(name)
            i_m = dinat(b, m)
            mm = tensor_rep(b, m, dual_rep(b, m))
            for i in range(b.dim):
                assert coad.mats[i] * i_m == i_m * mm.mats[i], (b.name, name)


def test_dinat_trivial_image_is_counit(sweedler):
    b = sweedler
    i_triv = dinat(b, trivial_rep(b))
    assert [i_triv.data[h][0] for h in range(b.dim)] == list(b.counit)


def test_dinat_regular_is_surjective(z2, sweedler, z4):
    for b in (z2, sweedler, z4):
        assert rank(dinat(b, regular_rep(b))) == b.dim


def test_dinaturality(sweedler):
    # i_M o (id_M (x) F^T) = i_N o (F (x) id_{N*}) for every intertwiner F: M -> N
    b = sweedler
    names = sorted(b.modules)
    for n1 in names:
        for n2 in names:
            m, n = b.module(n1), b.module(n2)
            for f in hom_space(b, m, n):
                eye_m = ExactMatrix.identity(b.field, m.dim)
                eye_ns = ExactMatrix.identity(b.field, n.dim)
                lhs = dinat(b, m) * eye_m.kron(
                    ExactMatrix(b.field, list(zip(*f.data))))
                rhs = dinat(b, n) * f.kron(eye_ns)
                assert lhs == rhs, (n1, n2)


def test_slf_basis_dimensions(z2, sweedler, z4, trivial):
    # commutative bundles: every form is symmetric
    assert len(slf_basis(z2)) == 2
    assert len(slf_basis(z4)) == 4
    assert len(slf_basis(trivial)) == 1
    # Sweedler: the linear system itself is the oracle; frozen outcome is 2
    assert len(slf_basis(sweedler)) == 2


def test_slf_membership_is_checked(sweedler):
    b = sweedler
    one = b.field.one()
    # f(x) = 1 is not symmetric: f([g, x]/2) != 0
    with pytest.raises(StructureError, match="not symmetric"):
        SLFElem(b, {2: one})
    for i in (-1, b.dim, "e0"):
        with pytest.raises(StructureError, match="outside range"):
            SLFElem(b, {i: one})


def test_invariants_equal_slf(z2, sweedler, z4):
    for b in (z2, sweedler, z4):
        invs = hom_space(b, trivial_rep(b), coadjoint_rep(b))
        slfs = slf_basis(b)
        assert len(invs) == len(slfs)
        for f in invs:
            coords = dict(_sparse_cols(f)[0])
            assert is_symmetric_form(b, coords)
            SLFElem(b, coords)


def test_qchar_trivial_is_counit(z2, sweedler, z4):
    for b in (z2, sweedler, z4):
        form = qchar(b, trivial_rep(b))
        assert form.coords == {i: c for i, c in enumerate(b.counit)
                               if not c.is_zero()}


def test_qchar_additive_on_direct_sums(sweedler):
    b = sweedler
    m = b.module("proj_plus")
    n = b.module("sgn")
    zero = b.field.zero()
    s = Rep(m.dim + n.dim, [
        ExactMatrix(b.field, [list(row) + [zero] * n.dim for row in x.data]
                    + [[zero] * m.dim + list(row) for row in y.data])
        for x, y in zip(m.mats, n.mats)])
    lhs = qchar(b, s).coords
    rhs = _sparse_sum(chain(qchar(b, m).coords.items(),
                            qchar(b, n).coords.items()))
    assert lhs == rhs


def test_qchar_lands_in_slf(sweedler, z4, uqsl2_p2):
    for b in (sweedler, z4, uqsl2_p2):
        for name in sorted(b.modules):
            qchar(b, b.module(name))   # constructor checks membership


def _symmetric_by_pairs(b, coords):
    """f(e_i e_j) = f(e_j e_i) for every pair i, j, one pair at a time; the
    form is a sparse {i: f(e_i)} dict."""
    def f(i, j):
        return sum((c * coords[k] for k, c in b.mult_table[i][j]
                    if k in coords), b.field.zero())
    return all(f(i, j) == f(j, i) for i in range(b.dim) for j in range(b.dim))


@pytest.mark.parametrize("name,commutative", [
    ("trivial", True), ("z2", True), ("sweedler", False), ("z4", True),
    ("uqsl2_p2", False)])
def test_is_symmetric_form_agrees_with_the_pairwise_definition(
        request, name, commutative):
    b = request.getfixturevalue(name)
    assert (_commutators(b) == ()) == commutative
    slfs = [f.coords for f in slf_basis(b)]
    chars = [qchar(b, b.module(m)).coords for m in sorted(b.modules)]
    # the first SLF basis vector, with one coordinate raised by 1; a
    # non-symmetric one exists exactly when H is not commutative
    perturbed = [_sparse_sum(chain(slfs[0].items(), [(k, b.field.one())]))
                 for k in range(b.dim)]
    bad = next((v for v in perturbed if not _symmetric_by_pairs(b, v)),
               perturbed[0])
    assert _symmetric_by_pairs(b, bad) == commutative
    for coords in slfs + chars + [bad]:
        assert is_symmetric_form(b, coords) == _symmetric_by_pairs(b, coords)


def test_canonical_image_dim(z2, sweedler, z4):
    assert canonical_image_dim(z2) == 2       # semisimple: surjective
    assert canonical_image_dim(z4) == 4
    assert canonical_image_dim(sweedler) == 2


def test_canonical_image_requires_simples(sweedler):
    from modskein.hopf import bundle_from_obj, bundle_to_obj
    obj = bundle_to_obj(sweedler)
    obj["simples"] = []
    b2 = bundle_from_obj(obj)
    with pytest.raises(StructureError):
        canonical_image_dim(b2)


def _random_hom_combination(b, rng, homs):
    f = homs[0].scale(b.field.from_rational(rng.randint(-3, 3)))
    for mat in homs[1:]:
        f = f + mat.scale(b.field.from_rational(rng.randint(-3, 3)))
    return f


def test_red_to_blue_k0_identity(sweedler):
    b = sweedler
    reg = regular_rep(b)
    homs = hom_space(b, reg, reg)
    terms = red_to_blue(b, homs[0], reg, 0, reg)
    assert len(terms) == 1
    assert terms[0][0] == b.field.one()
    assert terms[0][1] == homs[0]


def test_red_to_blue_roundtrips(z2, sweedler, z4):
    rng = random.Random(23)
    for b in (z2, sweedler, z4):
        reg = regular_rep(b)
        coad = coadjoint_rep(b)
        triv = trivial_rep(b)
        for k, x_rep in ((1, triv), (1, b.module(sorted(b.modules)[0])),
                         (2, triv)):
            target = coad
            for _ in range(k - 1):
                target = tensor_rep(b, target, coad)
            target = tensor_rep(b, target, x_rep)
            homs = hom_space(b, reg, target)
            if not homs:
                continue
            for _ in range(3):
                f = _random_hom_combination(b, rng, homs)
                terms = red_to_blue(b, f, reg, k, x_rep)
                assert recompose(b, terms, k, x_rep) == f


def test_red_to_blue_rejects_nonprojective(sweedler, uqsl2_p2):
    for b, name in ((sweedler, "triv"), (uqsl2_p2, "X+1")):
        m = b.module(name)
        coad = coadjoint_rep(b)
        target = tensor_rep(b, coad, trivial_rep(b))
        homs = hom_space(b, m, target)
        f = homs[0] if homs else ExactMatrix.zeros(b.field, target.dim, m.dim)
        with pytest.raises(InadmissibleError):
            red_to_blue(b, f, m, 1, trivial_rep(b))


def test_red_to_blue_rejects_non_intertwiner(sweedler):
    b = sweedler
    reg = regular_rep(b)
    table = [[b.field.zero()] * b.dim for _ in range(b.dim)]
    table[0][0] = b.field.one()
    table[1][2] = b.field.one()
    bad = ExactMatrix(b.field, table)
    with pytest.raises(StructureError):
        red_to_blue(b, bad, reg, 1, trivial_rep(b))


def _kron_action(b, factors, i, vec):
    """rho_{F1 (x) ... (x) Fm}(e_i) vec by its definition: the sum over
    Delta^(m)(e_i) of c * (rho_F1 (x) ... (x) rho_Fm) as dense Kronecker
    products, applied to the dense vector."""
    total = 1
    for f in factors:
        total *= f.dim
    column = ExactMatrix(b.field, [[vec.get(p, b.field.zero())]
                                   for p in range(total)])
    acc = ExactMatrix.zeros(b.field, total, 1)
    for idxs, c in iterated_comult(b, i, len(factors)):
        mat = ExactMatrix.identity(b.field, 1)
        for f, k in zip(factors, idxs):
            mat = mat.kron(f.mats[k])
        acc = acc + (mat * column).scale(c)
    return dict(_sparse_cols(acc)[0])


def test_apply_factored_action_matches_the_kronecker_definition(sweedler, z4):
    for b in (sweedler, z4):
        reg, coad = regular_rep(b), coadjoint_rep(b)
        x = b.module(sorted(b.modules)[1])
        for factors in ([coad, x], [reg, dual_rep(b, reg), x],
                        [x, coad, coad]):
            total = 1
            for f in factors:
                total *= f.dim
            vec = {p: b.field.from_rational(p % 5 - 2)
                   for p in range(0, total, 3) if p % 5 != 2}
            for i in range(b.dim):
                assert apply_factored_action(b, factors, i, vec) == \
                    _kron_action(b, factors, i, vec), (b.name, i)


@pytest.mark.parametrize("call", [
    lambda b: apply_factored_action(b, [regular_rep(b)], -1,
                                    {0: b.field.one()}),
    lambda b: apply_factored_action(b, [regular_rep(b)], b.dim,
                                    {0: b.field.one()}),
    lambda b: iterated_comult(b, 99, 2),
    lambda b: iterated_comult(b, -1, 1),
    lambda b: iterated_comult(b, 0, 2.0),
    lambda b: iterated_comult(b, True, 2),
], ids=["action at -1", "action at dim", "comult at 99", "comult at -1",
        "float m", "bool i"])
def test_factored_actions_refuse_a_bad_index_or_count(sweedler, call):
    # e_-1 must not be read as the last basis element
    with pytest.raises(StructureError):
        call(sweedler)


def test_red_to_blue_rejects_negative_k(sweedler):
    # With X = reg, d ** k * dim X is 1.0 and a 1 x 4 morphism passed the
    # shape check: the error must come before any size is computed.
    b = sweedler
    reg = regular_rep(b)
    f = hom_space(b, reg, tensor_rep(b, coadjoint_rep(b), trivial_rep(b)))[0]
    for f, x_rep in ((f, trivial_rep(b)),
                     (ExactMatrix.zeros(b.field, 1, b.dim), reg)):
        with pytest.raises(StructureError, match="k must be >= 0"):
            red_to_blue(b, f, reg, -1, x_rep)


def test_recompose_rejects_empty_terms_and_negative_k(sweedler):
    b = sweedler
    with pytest.raises(StructureError):
        recompose(b, [], 1, trivial_rep(b))
    reg = regular_rep(b)
    terms = [(b.field.one(), ExactMatrix.zeros(b.field, 1, b.dim))]
    with pytest.raises(StructureError, match="k must be >= 0"):
        recompose(b, terms, -1, reg)


@pytest.mark.parametrize("k", [True, 1.0], ids=["bool k", "float k"])
@pytest.mark.parametrize("fn", ["red_to_blue", "recompose"])
def test_a_k_that_is_not_an_int_is_refused(sweedler, fn, k):
    # k = True would run as k = 1, and k = 1.0 would end in a TypeError.
    b = sweedler
    reg, x_rep = regular_rep(b), trivial_rep(b)
    f = hom_space(b, reg, tensor_rep(b, coadjoint_rep(b), x_rep))[0]
    call = {"red_to_blue": lambda: red_to_blue(b, f, reg, k, x_rep),
            "recompose": lambda: recompose(b, [(b.field.one(), f)], k,
                                           x_rep)}[fn]
    with pytest.raises(StructureError,
                       match="^k must be an int, not %s$" % re.escape(repr(k))):
        call()


def test_editing_a_projective_section_changes_no_later_lift():
    b = sweedler_bundle()
    p_rep, x_rep = b.module("proj_plus"), trivial_rep(b)
    f = hom_space(b, p_rep, tensor_rep(b, coadjoint_rep(b), x_rep))[0]
    section = projective_section(b, p_rep)
    for row in section.data:
        with pytest.raises(TypeError):
            row[:] = [b.field.zero()] * len(row)
    terms = red_to_blue(b, f, p_rep, 1, x_rep)
    assert recompose(b, terms, 1, x_rep) == f
    fresh = sweedler_bundle()
    assert projective_section(b, p_rep) == section == projective_section(
        fresh, fresh.module("proj_plus"))


def _unskipped_action(b, factors, i, vec):
    """`apply_factored_action` with every factor's action applied, the
    identities too."""
    dims = [f.dim for f in factors]
    return _sparse_sum(
        (pos, c * v) for idxs, c in iterated_comult(b, i, len(factors))
        for pos, v in _contract_blocks(
            [f.cols[k] for f, k in zip(factors, idxs)], dims, dims,
            vec).items())


def test_skipping_identity_actions_changes_no_result():
    rng = random.Random(16)
    for b in (sweedler_bundle(), z4_bundle(), uqsl2_bundle(2)):
        unit = next(k for k, c in enumerate(b.unit) if not c.is_zero())
        for name, rep in sorted(b.modules.items()):
            assert _action_blocks(b, rep)[unit] is None, (b.name, name)
            for m in (1, 2, 3):
                size = rep.dim ** m
                vec = {pos: b.field.from_rational(rng.randint(1, 5))
                       for pos in rng.sample(range(size), min(size, 3))}
                for i in range(b.dim):
                    assert apply_factored_action(b, [rep] * m, i, vec) == \
                        _unskipped_action(b, [rep] * m, i, vec), \
                        (b.name, name, m, i)


def test_a_unit_that_does_not_act_by_the_identity_is_applied():
    # Not a module: the unit of sweedler acts by the swap, and e1 by the
    # identity, so e1's action is skipped and the unit's is not.
    b = sweedler_bundle()
    one = b.field.one()
    swap, ident = (((1, one),), ((0, one),)), (((0, one),), ((1, one),))
    rep = Rep.from_rows(b.field, 2, [swap, ident, ((), ()), ((), ())])
    assert [blk is None for blk in _action_blocks(b, rep)] == \
        [False, True, False, False]
    vec = {0: one, 3: b.field.from_rational(2)}
    for i in range(b.dim):
        assert apply_factored_action(b, [rep, rep], i, vec) == \
            _unskipped_action(b, [rep, rep], i, vec)
    assert apply_factored_action(b, [rep], 0, {0: one}) == {1: one}
