"""Intertwiner-type conditions decided on the generating set S.

`hom_space`, `projective_section`, `slf_basis`, `is_symmetric_form` and the
intertwiner check of `red_to_blue` impose their conditions for the basis
elements of S only (lemma (iv) of `modskein.hopf`).  Each is compared here
with its definition over every basis element, written out on the dense
action matrices.
"""

import ast
import json
import random
from itertools import chain
from pathlib import Path

import pytest

import modskein
from modskein.bundles import (sweedler_bundle, uqsl2_bundle, z2_bundle,
                              z4_bundle)
from modskein.coend import (coadjoint_rep, is_symmetric_form, qchar,
                            red_to_blue, slf_basis)
from modskein.cyclo import ExactMatrix, LinearSystem, _sparse_cols, _sparse_sum
from modskein.errors import StructureError, TypingError
from modskein.hopf import (_generators, bundle_from_obj, bundle_to_obj,
                           dual_rep, hom_space, is_projective,
                           projective_section, regular_rep, tensor_rep,
                           trivial_rep)
from modskein.rt import Diagram, Generator, boundary_rep, evaluate
from test_acceptance import _perturb_once

MAKERS = {"z2": z2_bundle, "sweedler": sweedler_bundle, "z4": z4_bundle,
          "uqsl2_p2": lambda: uqsl2_bundle(2)}


def _modules(b):
    """The bundle's modules, the unit, L, the duals of the first two named
    modules and the product of the two smallest."""
    named = [b.modules[name] for name in sorted(b.modules)]
    small = sorted(named, key=lambda m: m.dim)[:2]
    return named + [trivial_rep(b), coadjoint_rep(b)] + [
        dual_rep(b, m) for m in named[:2]] + [tensor_rep(b, *small)]


def _hom_space_all(b, m, n, indices=None):
    """{F : rho_N(e_i) F = F rho_M(e_i) for every basis element e_i}, or
    for e_i with i in `indices` only."""
    md, nd = m.dim, n.dim
    sys = LinearSystem(b.field, nd * md)
    for i in range(b.dim) if indices is None else indices:
        nm, mm = n.mats[i], m.mats[i]
        for r in range(nd):
            for c in range(md):
                row = {}
                for s in range(nd):
                    row[s * md + c] = row.get(s * md + c, b.field.zero()) \
                        + nm.data[r][s]
                for t in range(md):
                    row[r * md + t] = row.get(r * md + t, b.field.zero()) \
                        - mm.data[t][c]
                sys.add_row({k: v for k, v in row.items() if not v.is_zero()})
    kern = sys.kernel()
    return [ExactMatrix(b.field, [[kern.data[r * md + c][j] for c in range(md)]
                                  for r in range(nd)])
            for j in range(kern.cols)]


def _projective_section_all(b, m):
    """The H-linear section of the free cover H (x) M_vec ->> M, imposed for
    every basis element, or None; h -> h (x) delta_1 on the regular module."""
    field, d, md = b.field, b.dim, m.dim
    zero, one = field.zero(), field.one()
    if m == regular_rep(b):
        unit = [i for i, c in enumerate(b.unit) if not c.is_zero()]
        return ExactMatrix(field, [[one if r == unit[0] and c == h else zero
                                    for c in range(d)]
                                   for h in range(d) for r in range(d)])
    reg = regular_rep(b).mats
    sys = LinearSystem(field, d * md * md, 1)
    for lm, mm in zip(reg, m.mats):
        for h in range(d):
            for r in range(md):
                for c in range(md):
                    row = {}
                    for hp in range(d):
                        key = (hp * md + r) * md + c
                        row[key] = row.get(key, zero) + lm.data[h][hp]
                    for t in range(md):
                        key = (h * md + r) * md + t
                        row[key] = row.get(key, zero) - mm.data[t][c]
                    sys.add_row({k: v for k, v in row.items()
                                 if not v.is_zero()})
    mats = m.mats
    for cp in range(md):
        for c in range(md):
            row = {(h * md + r) * md + c: mats[h].data[cp][r]
                   for h in range(d) for r in range(md)
                   if not mats[h].data[cp][r].is_zero()}
            sys.add_row(row, {0: one} if cp == c else None)
    res = sys.solve()
    if not res.feasible:
        return None
    x = res.particular
    return ExactMatrix(field, [[x.data[s * md + c][0] for c in range(md)]
                               for s in range(d * md)])


def _symmetric_all(b, coords):
    """f(e_i e_j) = f(e_j e_i) for every pair of basis elements; the form
    is a sparse {i: f(e_i)} dict."""
    one, zero = b.field.one(), b.field.zero()

    def f(i, j):
        return sum((c * coords[k] for k, c in
                    b.elem_mult({i: one}, {j: one}).items() if k in coords),
                   zero)
    return all(f(i, j) == f(j, i) for i in range(b.dim) for j in range(b.dim))


def _slf_all(b):
    """A kernel basis of the rows e_i e_j - e_j e_i, i < j, as sparse
    coordinate dicts."""
    one = b.field.one()
    sys = LinearSystem(b.field, b.dim)
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            row = dict(b.elem_mult({i: one}, {j: one}))
            for k, c in b.elem_mult({j: one}, {i: one}).items():
                row[k] = row.get(k, b.field.zero()) - c
            sys.add_row({k: v for k, v in row.items() if not v.is_zero()})
    return [dict(col) for col in _sparse_cols(sys.kernel())]


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_hom_spaces_and_sections_equal_the_exhaustive_ones(name):
    b = MAKERS[name]()
    assert _generators(b) is not None
    mods = _modules(b)
    for m in mods:
        for n in mods:
            assert hom_space(b, m, n) == _hom_space_all(b, m, n), (m, n)
        assert projective_section(b, m) == _projective_section_all(b, m), m


@pytest.mark.parametrize("name", sorted(MAKERS))
def test_symmetric_forms_equal_the_exhaustive_ones(name):
    b = MAKERS[name]()
    slfs = [f.coords for f in slf_basis(b)]
    assert slfs == _slf_all(b)
    chars = [qchar(b, m).coords for m in _modules(b)]
    rng = random.Random(21)
    one = b.field.one()
    perturbed = [_sparse_sum(chain(v.items(), [(k, one)]))
                 for v in slfs for k in range(b.dim)]
    drawn = [_sparse_sum((k, b.field.from_rational(rng.randint(-2, 2)))
                         for k in range(b.dim)) for _ in range(10)]
    verdicts = []
    for coords in slfs + chars + perturbed + drawn:
        verdicts.append(is_symmetric_form(b, coords))
        assert verdicts[-1] == _symmetric_all(b, coords)
    if name == "sweedler" or name == "uqsl2_p2":   # not commutative
        assert not all(verdicts)


def _associativity_mutant(maker, seed):
    """A criterion-7 mutant of one mult constant with no generating set."""
    rng = random.Random(seed)
    while True:
        obj = bundle_to_obj(maker())
        if _perturb_once(obj, rng) == "mult":
            b = bundle_from_obj(json.loads(json.dumps(obj)))
            if _generators(b) is None:
                return b


@pytest.mark.parametrize("maker", [z2_bundle, sweedler_bundle, z4_bundle],
                         ids=["z2", "sweedler", "z4"])
def test_without_a_generating_set_hom_space_is_exhaustive(maker):
    b = _associativity_mutant(maker, 7)
    mods = [b.modules[name] for name in sorted(b.modules)] + [trivial_rep(b)]
    for m in mods:
        for n in mods:
            assert hom_space(b, m, n) == _hom_space_all(b, m, n)


def _first_failure(b, f, p_rep, cod):
    """The first basis element e_i with rho(e_i) f != f rho_P(e_i)."""
    return next((i for i in range(b.dim)
                 if cod.mats[i] * f != f * p_rep.mats[i]), None)


@pytest.mark.parametrize("name, p_name, k", [
    ("sweedler", "reg", 1), ("sweedler", "proj_plus", 2), ("z4", "chi1", 1),
    ("uqsl2_p2", "X-1", 1)])
def test_red_to_blue_names_the_first_failing_basis_element(name, p_name, k):
    b = MAKERS[name]()
    p_rep, x_rep = b.module(p_name), trivial_rep(b)
    cod = coadjoint_rep(b)
    for _ in range(k - 1):
        cod = tensor_rep(b, cod, coadjoint_rep(b))
    cod = tensor_rep(b, cod, x_rep)
    rng = random.Random(5)
    homs = hom_space(b, p_rep, cod)
    field = b.field
    # intertwiners for every element of S but one
    gens = _generators(b)
    near = [f for s in gens for f in _hom_space_all(
        b, p_rep, cod, [t for t in gens if t != s])
        if _first_failure(b, f, p_rep, cod) is not None]
    assert near
    for f in near:
        with pytest.raises(StructureError, match=r"fails at e%d\)$"
                           % _first_failure(b, f, p_rep, cod)):
            red_to_blue(b, f, p_rep, k, x_rep)
    failing = set()
    for t in range(12):
        table = [[field.from_rational(rng.randint(-2, 2))
                  for _ in range(p_rep.dim)] for _ in range(cod.dim)]
        if t % 2 and homs:   # an intertwiner with one entry changed
            table = [list(row) for row in rng.choice(homs).data]
            r, c = rng.randrange(cod.dim), rng.randrange(p_rep.dim)
            table[r][c] = table[r][c] + field.one()
        f = ExactMatrix(field, table)
        i = _first_failure(b, f, p_rep, cod)
        assert i is not None
        failing.add(i)
        with pytest.raises(StructureError) as err:
            red_to_blue(b, f, p_rep, k, x_rep)
        assert str(err.value) == \
            "morphism is not an intertwiner (fails at e%d)" % i
    assert failing


def test_a_coupon_colored_by_a_non_intertwiner_is_refused():
    b = sweedler_bundle()
    dom, cod = [("proj_plus", "+"), ("sgn", "+")], [("reg", "+")]
    dom_rep, cod_rep = boundary_rep(b, dom), boundary_rep(b, cod)
    gens = _generators(b)
    homs = hom_space(b, dom_rep, cod_rep)
    near = [f for s in gens for f in _hom_space_all(
        b, dom_rep, cod_rep, [t for t in gens if t != s])
        if _first_failure(b, f, dom_rep, cod_rep) is not None]
    assert homs and near

    def coupon(f):
        return Diagram(dom, cod, [[Generator("coupon", dom=dom, cod=cod,
                                             matrix=f)]])
    for f in homs:
        assert evaluate(b, coupon(f)) == f
    for f in near:
        with pytest.raises(TypingError,
                           match="coupon color is not an intertwiner"):
            evaluate(b, coupon(f))


def test_only_hopf_names_the_generating_set():
    # Every other module reaches S through `hopf`'s intertwiner builder,
    # intertwiner check or commutator rows.
    src = Path(modskein.__file__).parent
    private = {"_generators", "_constrained", "_decided_on"}
    uses = {}
    for path in sorted(src.glob("*.py")):
        names = set()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
        uses[path.name] = sorted(names & private)
    assert uses.pop("hopf.py") == sorted(private)
    assert {name: names for name, names in uses.items() if names} == {}


def test_red_to_blue_builds_only_the_rows_of_l_it_reads():
    b = uqsl2_bundle(2)
    p_rep = next(b.module(name) for name in b.simples
                 if is_projective(b, b.module(name)))
    coad = coadjoint_rep(b)
    f = hom_space(b, p_rep, tensor_rep(b, coad, p_rep))[0]
    red_to_blue(b, f, p_rep, 1, p_rep)
    assert coad._rows is None
    assert set(coad._built) < set(range(b.dim))
