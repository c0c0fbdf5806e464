"""Diagram evaluation: duality, framed moves, disk skein modules."""

import pytest

from modskein import hopf
from modskein.bundles import sweedler_bundle, z4_bundle
from modskein.cyclo import ExactMatrix, LinearSystem
from modskein.errors import InadmissibleError, StructureError, TypingError
from modskein.hopf import hom_space, tensor_rep, twist
from modskein.rt import (GENERATOR_KINDS, Diagram, Generator,
                         _generator_matrix, boundary_rep, diagram_from_obj,
                         evaluate, skein_module_disk)


def gen(kind, *points):
    return Generator(kind, points=points)


def ident(b, points):
    return ExactMatrix.identity(b.field, boundary_rep(b, points).dim)


def test_empty_diagram(sweedler):
    d = Diagram([], [], [])
    assert evaluate(sweedler, d) == ExactMatrix.identity(sweedler.field, 1)


@pytest.mark.parametrize("name", ["triv", "sgn", "proj_plus", "reg"])
def test_zig_zags(sweedler, name):
    b = sweedler
    m = (name, "+")
    md = (name, "-")
    zig1 = Diagram([m], [m], [
        [gen("coev", m), gen("id", m)],
        [gen("id", m), gen("ev", m)],
    ])
    zig2 = Diagram([m], [m], [
        [gen("id", m), gen("coev_piv", m)],
        [gen("ev_piv", m), gen("id", m)],
    ])
    zig3 = Diagram([md], [md], [
        [gen("coev_piv", m), gen("id", md)],
        [gen("id", md), gen("ev_piv", m)],
    ])
    zig4 = Diagram([md], [md], [
        [gen("id", md), gen("coev", m)],
        [gen("ev", m), gen("id", md)],
    ])
    for d, pts in ((zig1, [m]), (zig2, [m]), (zig3, [md]), (zig4, [md])):
        assert evaluate(b, d) == ident(b, pts)


def _all_points(b, orient=True):
    names = sorted(b.modules)
    pts = [(n, "+") for n in names]
    if orient:
        pts += [(n, "-") for n in names]
    return pts


def test_r2_all_pairs(sweedler):
    b = sweedler
    pts = _all_points(b)
    for p1 in pts:
        for p2 in pts:
            d = Diagram([p1, p2], [p1, p2], [
                [gen("braid", p1, p2)],
                [gen("braid_inv", p2, p1)],
            ])
            assert evaluate(b, d) == ident(b, [p1, p2]), (p1, p2)


def test_r3_all_triples(sweedler):
    b = sweedler
    names = sorted(b.modules)
    for n1 in names:
        for n2 in names:
            for n3 in names:
                a, bb, c = (n1, "+"), (n2, "+"), (n3, "+")
                lhs = Diagram([a, bb, c], [c, bb, a], [
                    [gen("braid", a, bb), gen("id", c)],
                    [gen("id", bb), gen("braid", a, c)],
                    [gen("braid", bb, c), gen("id", a)],
                ])
                rhs = Diagram([a, bb, c], [c, bb, a], [
                    [gen("id", a), gen("braid", bb, c)],
                    [gen("braid", a, c), gen("id", bb)],
                    [gen("id", c), gen("braid", a, bb)],
                ])
                assert evaluate(b, lhs) == evaluate(b, rhs), (n1, n2, n3)


def test_r3_mixed_orientations(z4):
    b = z4
    triples = [(("chi1", "+"), ("chi2", "-"), ("reg", "+")),
               (("reg", "-"), ("chi3", "+"), ("chi1", "-"))]
    for a, bb, c in triples:
        lhs = Diagram([a, bb, c], [c, bb, a], [
            [gen("braid", a, bb), gen("id", c)],
            [gen("id", bb), gen("braid", a, c)],
            [gen("braid", bb, c), gen("id", a)],
        ])
        rhs = Diagram([a, bb, c], [c, bb, a], [
            [gen("id", a), gen("braid", bb, c)],
            [gen("braid", a, c), gen("id", bb)],
            [gen("id", c), gen("braid", a, bb)],
        ])
        assert evaluate(b, lhs) == evaluate(b, rhs)


def test_twist_cancellation(sweedler, z4):
    for b in (sweedler, z4):
        for pt in _all_points(b)[:6]:
            d = Diagram([pt], [pt], [
                [gen("twist", pt)],
                [gen("twist_inv", pt)],
            ])
            assert evaluate(b, d) == ident(b, [pt])


def test_ribbon_balance_two_strands(sweedler, z4):
    for b in (sweedler, z4):
        names = sorted(b.modules)
        for n1 in names:
            for n2 in names:
                p1, p2 = (n1, "+"), (n2, "+")
                d = Diagram([p1, p2], [p1, p2], [
                    [gen("braid", p1, p2)],
                    [gen("braid", p2, p1)],
                    [gen("twist", p1), gen("twist", p2)],
                ])
                direct = twist(b, tensor_rep(b, b.module(n1), b.module(n2)))
                assert evaluate(b, d) == direct, (b.name, n1, n2)


def test_coupon_naturality(sweedler):
    # sliding a coupon past a braiding: c_{N,P} o (F (x) id) = (id (x) F) o c_{M,P}
    b = sweedler
    names = sorted(b.modules)
    for n1 in names:
        for n2 in names:
            m, n = b.module(n1), b.module(n2)
            basis = hom_space(b, m, n)
            for f in basis:
                coupon = Generator("coupon", dom=[(n1, "+")], cod=[(n2, "+")],
                                   matrix=f)
                for n3 in names[:3]:
                    p = (n3, "+")
                    lhs = Diagram([(n1, "+"), p], [p, (n2, "+")], [
                        [coupon, gen("id", p)],
                        [gen("braid", (n2, "+"), p)],
                    ])
                    rhs = Diagram([(n1, "+"), p], [p, (n2, "+")], [
                        [gen("braid", (n1, "+"), p)],
                        [gen("id", p), coupon],
                    ])
                    assert evaluate(b, lhs) == evaluate(b, rhs), (n1, n2, n3)


def test_functoriality_vertical_stacking(sweedler):
    b = sweedler
    m = ("proj_plus", "+")
    full = Diagram([m], [m], [
        [gen("twist", m)],
        [gen("coev", m), gen("id", m)],
        [gen("id", m), gen("ev", m)],
        [gen("twist_inv", m)],
    ])
    val = evaluate(b, full)
    # boundary sequence after each slice
    bounds = [tuple(full.bottom)]
    for sl in full.slices:
        cod = []
        for g2 in sl:
            cod.extend(g2.signature()[1])
        bounds.append(tuple(cod))
    for cut in range(len(full.slices) + 1):
        bottom = Diagram(full.bottom, bounds[cut], full.slices[:cut])
        top = Diagram(bounds[cut], full.top, full.slices[cut:])
        assert evaluate(b, top) * evaluate(b, bottom) == val


def test_monoidality_horizontal_juxtaposition(sweedler):
    b = sweedler
    m, n = ("proj_plus", "+"), ("sgn", "+")
    d1 = Diagram([m], [m], [[gen("twist", m)]])
    d2 = Diagram([n], [n], [[gen("twist_inv", n)]])
    joined = Diagram([m, n], [m, n],
                     [[gen("twist", m), gen("twist_inv", n)]])
    assert evaluate(b, joined) == evaluate(b, d1).kron(evaluate(b, d2))


def test_typing_error_names_slice(sweedler):
    b = sweedler
    m = ("proj_plus", "+")
    bad = Diagram([m], [m], [
        [gen("id", m)],
        [gen("ev", m)],
    ])
    with pytest.raises(TypingError) as err:
        evaluate(b, bad)
    assert err.value.slice_index == 1


def test_admissibility_flag(sweedler):
    b = sweedler
    ok = Diagram([("proj_plus", "+")], [("proj_plus", "+")],
                 [[gen("id", ("proj_plus", "+"))]], admissible=True)
    evaluate(b, ok)
    bad = Diagram([("triv", "+")], [("triv", "+")],
                  [[gen("id", ("triv", "+"))]], admissible=True)
    with pytest.raises(InadmissibleError):
        evaluate(b, bad)


def test_skein_module_disk(sweedler):
    b = sweedler
    m = ("proj_plus", "+")
    basis = skein_module_disk(b, [m], [m])
    eye = ExactMatrix.identity(b.field, 2)
    sys = LinearSystem(b.field, len(basis), 1)
    for r in range(2):
        for c in range(2):
            row = {t: basis[t].data[r][c] for t in range(len(basis))
                   if not basis[t].data[r][c].is_zero()}
            rhs = eye.data[r][c]
            sys.add_row(row, {0: rhs} if not rhs.is_zero() else None)
    assert sys.solve().feasible   # identity skein is in the module
    # regular boundary color: dimension d
    basis_h = skein_module_disk(b, [("reg", "+")], [("reg", "+")])
    assert len(basis_h) == 4
    # pairing with the dual boundary
    mm = skein_module_disk(b, [("proj_plus", "+"), ("proj_plus", "-")], [])
    direct = hom_space(
        b, tensor_rep(b, b.module("proj_plus"),
                      __import__("modskein.hopf", fromlist=["dual_rep"])
                      .dual_rep(b, b.module("proj_plus"))),
        __import__("modskein.hopf", fromlist=["trivial_rep"])
        .trivial_rep(b))
    assert len(mm) == len(direct)
    with pytest.raises(InadmissibleError):
        skein_module_disk(b, [], [])


def test_disk_dimension_cyclic_rotation(sweedler):
    b = sweedler
    tuples = [
        [("proj_plus", "+"), ("proj_plus", "-")],
        [("proj_plus", "+"), ("sgn", "+"), ("proj_minus", "-")],
        [("reg", "+"), ("proj_plus", "-"), ("sgn", "-")],
    ]
    for pts in tuples:
        dims = []
        for shift in range(len(pts)):
            rotated = pts[shift:] + pts[:shift]
            dims.append(len(skein_module_disk(b, [], rotated)))
        assert len(set(dims)) == 1, (pts, dims)


def test_skein_relations_are_equalities_of_evaluations(sweedler):
    b = sweedler
    m, n = ("proj_plus", "+"), ("proj_minus", "+")
    r2 = Diagram([m, n], [m, n], [
        [gen("braid", m, n)],
        [gen("braid_inv", n, m)],
    ])
    flat = Diagram([m, n], [m, n], [[gen("id", m), gen("id", n)]])
    assert evaluate(b, r2) == evaluate(b, flat)
    with_zig = Diagram([m, n], [m, n], [
        [gen("coev", m), gen("id", m), gen("id", n)],
        [gen("id", m), gen("ev", m), gen("id", n)],
    ])
    assert evaluate(b, with_zig) == evaluate(b, flat)
    # linear combination: 2*flat - 2*r2 evaluates to zero
    two = b.field.from_rational(2)
    diff = evaluate(b, flat).scale(two) + evaluate(b, r2).scale(-two)
    assert diff.is_zero() and diff == evaluate(b, flat).scale(0)


def test_twisted_loop_trace_oracle(sweedler, z4):
    # closed loop with one positive twist = tr(rho(g v^-1)), computed directly
    for b in (sweedler, z4):
        for name in sorted(b.modules):
            m = (name, "+")
            loop = Diagram([], [], [
                [gen("coev", m)],
                [gen("twist", m), gen("id", (name, "-"))],
                [gen("ev_piv", m)],
            ])
            val = evaluate(b, loop)
            gv = b.elem_mult(b.pivotal_elem(), b.ribbon_inverse())
            oracle = b.module(name).act(gv).trace()
            assert val.data[0][0] == oracle, (b.name, name)


def test_untwisted_loop_is_quantum_dimension(sweedler):
    # plain closed loop = tr(rho(g)): the quantum dimension
    b = sweedler
    for name in sorted(b.modules):
        m = (name, "+")
        loop = Diagram([], [], [
            [gen("coev", m)],
            [gen("ev_piv", m)],
        ])
        val = evaluate(b, loop)
        oracle = b.module(name).act(b.pivotal_elem()).trace()
        assert val.data[0][0] == oracle


def test_a_diagram_object_evaluates_as_its_python_diagram(sweedler):
    # A hand-written object whose coupon has nonzero coordinates in the hom
    # space reads to the diagram built here, with the same combination of
    # basis maps as its coupon.
    b = sweedler
    r, m = ["reg", "+"], ["proj_plus", "+"]
    basis = hom_space(b, b.module("reg"), b.module("reg"))
    coeffs = ["1/2", "-3", "2", "5/7"]
    assert len(basis) == len(coeffs)
    f = sum((mat.scale(b.field.from_rational(c))
             for mat, c in zip(basis[1:], coeffs[1:])),
            basis[0].scale(b.field.from_rational(coeffs[0])))
    d = Diagram([r, m], [r, m], [
        [gen("braid", r, m)],
        [gen("braid_inv", m, r)],
        [Generator("coupon", dom=[r], cod=[r], matrix=f), gen("twist", m)],
        [gen("twist_inv", r), gen("id", m)],
    ])
    obj = {"bottom": [r, m], "top": [r, m], "slices": [
        [{"kind": "braid", "points": [r, m]}],
        [{"kind": "braid_inv", "points": [m, r]}],
        [{"kind": "coupon", "dom": [r], "cod": [r], "coeffs": coeffs},
         {"kind": "twist", "points": [m]}],
        [{"kind": "twist_inv", "points": [r]},
         {"kind": "id", "points": [m]}],
    ]}
    assert evaluate(b, diagram_from_obj(b, obj)) == evaluate(b, d)


def test_coupon_outside_an_empty_hom_space_is_refused(sweedler):
    # Hom(triv, sgn) = 0, so [[1]] is not an intertwiner: evaluation names
    # the coupon's slice.
    b = sweedler
    assert hom_space(b, b.module("triv"), b.module("sgn")) == []
    one = ExactMatrix(b.field, [[b.field.one()]])
    d = Diagram([("triv", "+")], [("sgn", "+")], [
        [Generator("coupon", dom=[("triv", "+")], cod=[("sgn", "+")],
                   matrix=one)],
    ])
    with pytest.raises(TypingError,
                       match="^slice 0: coupon color is not an intertwiner"):
        evaluate(b, d)


def _dense_evaluate(b, diagram):
    """The plain definition: the identity on the bottom boundary, times each
    slice's Kronecker product of generator matrices, by dense products."""
    total = ident(b, diagram.bottom)
    for sl in diagram.slices:
        mat = ExactMatrix.identity(b.field, 1)
        for g in sl:
            mat = mat.kron(_generator_matrix(b, g))
        total = mat * total
    return total


def _every_kind_diagrams(b, a, x):
    """Diagrams on colours a and x through every generator kind, plus a
    slice with no generators."""
    ap, am, xp = (a, "+"), (a, "-"), (x, "+")
    xx = b.module(x)
    basis = hom_space(b, xx, xx)
    f = basis[0]
    for t, mat in enumerate(basis[1:], start=2):
        f = f + mat.scale(t)
    coupon = Generator("coupon", dom=[xp], cod=[xp], matrix=f)
    full = Diagram([am, ap, xp], [am, ap, xp], [
        [gen("ev", ap), gen("id", xp)],
        [gen("coev", ap), gen("id", xp)],
        [gen("id", ap), gen("braid", am, xp)],
        [gen("braid_inv", ap, xp), gen("twist", am)],
        [gen("twist_inv", xp), gen("ev_piv", ap)],
        [gen("coev_piv", ap), coupon],
    ])
    closed = Diagram([am, ap], [ap, am], [
        [gen("ev", ap)], [], [gen("coev", ap)]])
    return full, closed


@pytest.mark.parametrize("bundle,a,x", [("sweedler", "proj_plus", "reg"),
                                        ("z4", "reg", "chi1")])
def test_evaluate_matches_the_dense_definition(request, bundle, a, x):
    b = request.getfixturevalue(bundle)
    full, closed = _every_kind_diagrams(b, a, x)
    assert {g.kind for sl in full.slices for g in sl} == set(GENERATOR_KINDS)
    for d in (full, closed):
        assert evaluate(b, d) == _dense_evaluate(b, d), d


# Points each non-coupon kind takes, as the strict ribbon signature has it.
POINT_COUNTS = {"id": 1, "twist": 1, "twist_inv": 1, "braid": 2,
                "braid_inv": 2, "ev": 1, "coev": 1, "ev_piv": 1,
                "coev_piv": 1}


@pytest.mark.parametrize("kind", sorted(set(GENERATOR_KINDS) - {"coupon"}))
def test_a_wrong_point_count_is_refused(kind):
    pt = ("triv", "+")
    n = POINT_COUNTS[kind]
    assert gen(kind, *[pt] * n).points == (pt,) * n
    for wrong in (n - 1, n + 1):
        with pytest.raises(StructureError,
                           match=r"%r takes %d point\(s\), got %d"
                           % (kind, n, wrong)):
            gen(kind, *[pt] * wrong)


@pytest.mark.parametrize("kind", ["ev", "coev", "ev_piv", "coev_piv"])
def test_a_pairing_on_a_minus_point_is_refused(kind):
    # a pairing is built on the module its point names; a "-" point would
    # read as the dual's pairing, which the table does not define
    assert gen(kind, ("proj_plus", "+")).points == (("proj_plus", "+"),)
    with pytest.raises(StructureError,
                       match=r"pairing %r takes a '\+' point" % kind):
        gen(kind, ("proj_plus", "-"))


def test_an_identity_diagram_never_builds_its_boundary_module(monkeypatch):
    b = sweedler_bundle()
    calls = []
    real = hopf._action_rows

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hopf, "_action_rows", counting)
    reg = ("reg", "+")
    d = Diagram([reg] * 3, [reg] * 3, [[gen("id", reg)] * 3])
    assert evaluate(b, d) == ExactMatrix.identity(b.field, 64)
    assert calls == []
    # the counter sees a build when the rows are read
    assert boundary_rep(b, d.bottom).rows and calls


@pytest.mark.parametrize("index", [-1, 4, 1.7, True, "1", None])
def test_a_coupon_index_outside_the_hom_space_is_refused(sweedler, index):
    b = sweedler
    reg = [["reg", "+"]]
    obj = {"bottom": reg, "top": reg,
           "slices": [[{"kind": "coupon", "dom": reg, "cod": reg,
                        "index": index}]]}
    with pytest.raises(StructureError, match="coupon index"):
        diagram_from_obj(b, obj)


def test_a_coupon_index_picks_its_basis_element(sweedler):
    b = sweedler
    reg = b.module("reg")
    basis = hom_space(b, reg, reg)
    assert len(basis) == 4
    for index, mat in enumerate(basis):
        obj = {"bottom": [["reg", "+"]], "top": [["reg", "+"]],
               "slices": [[{"kind": "coupon", "dom": [["reg", "+"]],
                            "cod": [["reg", "+"]], "index": index}]]}
        assert evaluate(b, diagram_from_obj(b, obj)) == mat


def test_a_coupon_on_an_empty_hom_space_is_the_zero_map(sweedler):
    # Hom(proj_plus, sgn) is 0, so "coeffs": [] names its one element: the
    # zero map, shaped by the coupon's boundaries, not by a basis element.
    b = sweedler
    dom, cod = [["proj_plus", "+"]], [["sgn", "+"]]
    assert hom_space(b, b.module("proj_plus"), b.module("sgn")) == []
    obj = {"bottom": dom, "top": cod,
           "slices": [[{"kind": "coupon", "dom": dom, "cod": cod,
                        "coeffs": []}]]}
    d = diagram_from_obj(b, obj)
    assert evaluate(b, d) == ExactMatrix.zeros(b.field, 1, 2)


def test_a_dual_follows_the_module_a_name_points_to():
    b, fresh = z4_bundle(), z4_bundle()
    pt = ("chi1", "-")
    twist_chi1 = Diagram([pt], [pt], [[gen("twist", pt)]])
    before = evaluate(b, twist_chi1)
    for bundle in (b, fresh):
        bundle.modules["chi1"] = bundle.modules["chi2"]
    after = evaluate(b, twist_chi1)
    assert after == evaluate(fresh, twist_chi1) != before
    # no memo key holds a module name
    assert not [key for key in b._cache for part in key[1:]
                if isinstance(part, str)]


def _r3_left(a, b, c):
    """The left side of the braid relation on three upward strands."""
    return Diagram([a, b, c], [c, b, a], [
        [gen("braid", a, b), gen("id", c)],
        [gen("id", b), gen("braid", a, c)],
        [gen("braid", b, c), gen("id", a)]])


def test_a_slice_is_built_once_per_bundle(monkeypatch):
    b = sweedler_bundle()
    krons = []
    real = ExactMatrix.kron

    def counting(self, other):
        krons.append(other)
        return real(self, other)

    monkeypatch.setattr(ExactMatrix, "kron", counting)
    d = _r3_left(("reg", "+"), ("proj_plus", "+"), ("sgn", "+"))
    first = evaluate(b, d)
    assert len(krons) == 3
    again = evaluate(b, d)
    assert len(krons) == 3 and again == first
    # the same slices on another bundle are built there
    assert evaluate(sweedler_bundle(), d) == first and len(krons) == 6


def test_an_identity_on_a_dual_never_builds_the_dual(monkeypatch):
    b = sweedler_bundle()
    calls = []
    real = hopf._action_rows

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(hopf, "_action_rows", counting)
    regd = ("reg", "-")
    d = Diagram([regd] * 2, [regd] * 2, [[gen("id", regd)] * 2])
    for _ in range(2):  # a memo miss, then a hit
        assert evaluate(b, d) == ExactMatrix.identity(b.field, 16)
    assert calls == []
    # the counter sees a build when the dual's rows are read
    assert hopf.dual_rep(b, b.module("reg")).rows and calls


def test_coupons_on_the_same_points_keep_their_own_colours(sweedler):
    b = sweedler
    reg, triv = ("reg", "+"), ("triv", "+")
    basis = hom_space(b, b.module("reg"), b.module("reg"))
    assert len(set(basis)) == len(basis) > 1
    for mat in basis + basis[::-1]:
        coupon = Generator("coupon", dom=[reg], cod=[reg], matrix=mat)
        assert evaluate(b, Diagram([reg], [reg], [[coupon]])) == mat
        beside = Diagram([reg, triv], [reg, triv],
                         [[coupon, gen("id", triv)]])
        assert evaluate(b, beside) == mat
