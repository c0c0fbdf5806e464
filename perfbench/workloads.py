"""The benchmark's workloads: fixed lists of library calls with exact expected outputs.

A workload is a sequence of parts.  Each part has a `build` step, which
constructs fresh bundles, and an `ops` step, which turns those bundles into a
list of operations.  An operation is `(label, call, expected)`: `call()`
returns the observed output, and the operation passes when the output equals
`expected` (or, when `expected` is callable, when `expected(output)` is true).
Every pass builds its own bundles, so no pass reads another pass's
`HopfBundle._cache` entries.

Every library function is reached through its module at call time
(`hopf.tensor_rep`, not a name bound at import), so the traced run's wrappers
see every call.  Why each workload exists is recorded in README.md beside
this file.
"""

from __future__ import annotations

import random

from modskein import bundles, coend, hopf, rt, surface


def _build_flagship():
    return {"uqsl2": bundles.uqsl2_bundle(2, with_r=True)}


def _ops_flagship(st, seed):
    b = st["uqsl2"]
    return [
        ("validate_bundle(uqsl2 p=2)",
         lambda: hopf.validate_bundle(b, threads=1), []),
        ("skalg_dimension(uqsl2 p=2, 0, 2)",
         lambda: surface.skalg_dimension(b, 0, 2), 5),
        ("len(slf_basis(uqsl2 p=2))", lambda: len(coend.slf_basis(b)), 5),
        ("canonical_image_dim(uqsl2 p=2)",
         lambda: coend.canonical_image_dim(b), 4),
    ]


def _build_pair():
    return {"sweedler": bundles.sweedler_bundle(), "z4": bundles.z4_bundle()}


def _ops_coend_power(st, seed):
    return [
        ("skalg_dimension(sweedler, 0, 4)",
         lambda: surface.skalg_dimension(st["sweedler"], 0, 4), 18),
        ("skalg_dimension(z4, 0, 4)",
         lambda: surface.skalg_dimension(st["z4"], 0, 4), 64),
    ]


# (dim at (0, 2), char_map rank, dim at (1, 1), dim at (0, 3))
_BRAIDED_EXPECTED = {"sweedler": (2, 2, 5, 5), "z4": (4, 4, 16, 16)}


def _ops_braided(st, seed):
    ops = []
    for name, (d02, rank, d11, d03) in _BRAIDED_EXPECTED.items():
        b = st[name]
        annulus = {}

        def skalg_annulus(b=b, annulus=annulus):
            annulus["alg"] = surface.skalg(b, 0, 2, threads=1)
            return annulus["alg"].dim

        def char_map(b=b, annulus=annulus):
            out = surface.char_map(b, annulus["alg"])
            return out["rank"], out["multiplicative"]

        ops += [
            ("skalg(%s, 0, 2)" % name, skalg_annulus, d02),
            ("char_map(%s)" % name, char_map, (rank, True)),
            ("skalg(%s, 1, 1)" % name,
             lambda b=b: surface.skalg(b, 1, 1, threads=1).dim, d11),
            ("skalg(%s, 0, 3)" % name,
             lambda b=b: surface.skalg(b, 0, 3, threads=1).dim, d03),
        ]
    ops.append(("skalg(sweedler, 1, 2)",
                lambda: surface.skalg(st["sweedler"], 1, 2, threads=1).dim, 18))
    return ops


# Expected verdicts of is_projective on every module of the two bundles.
_PROJECTIVE = {
    "sweedler": {"proj_minus": True, "proj_plus": True, "reg": True,
                 "sgn": False, "triv": False},
    "z4": {"chi0": True, "chi1": True, "chi2": True, "chi3": True,
           "reg": True},
}


def _gen(kind, *points):
    return rt.Generator(kind, points=points)


def _r3_sides(a, b, c):
    """Both sides of the braid relation on three upward strands."""
    lhs = rt.Diagram([a, b, c], [c, b, a], [
        [_gen("braid", a, b), _gen("id", c)],
        [_gen("id", b), _gen("braid", a, c)],
        [_gen("braid", b, c), _gen("id", a)]])
    rhs = rt.Diagram([a, b, c], [c, b, a], [
        [_gen("id", a), _gen("braid", b, c)],
        [_gen("braid", a, c), _gen("id", b)],
        [_gen("id", c), _gen("braid", a, b)]])
    return lhs, rhs


def _r3(b, names):
    lhs, rhs = _r3_sides(*[(n, "+") for n in names])
    left = rt.evaluate(b, lhs)
    return left == rt.evaluate(b, rhs), hash(left)


def _roundtrip(b, p_rep, x_rep, k, rng):
    """Red-to-blue on a random intertwiner P -> L^(x)k (x) X, then recompose."""
    coad = coend.coadjoint_rep(b)
    target = coad
    for _ in range(k - 1):
        target = hopf.tensor_rep(b, target, coad)
    target = hopf.tensor_rep(b, target, x_rep)
    homs = hopf.hom_space(b, p_rep, target)
    if not homs:
        return False, None
    f = homs[0].scale(rng.randint(-4, 4))
    for mat in homs[1:]:
        f = f + mat.scale(rng.randint(-4, 4))
    terms = coend.red_to_blue(b, f, p_rep, k, x_rep)
    return coend.recompose(b, terms, k, x_rep) == f, hash(terms[0][1])


def _holds(out):
    return out[0] is True


def _ops_disk(st, seed):
    sw = st["sweedler"]
    names = sorted(sw.modules)
    ops = [("R3(%s, %s, %s)" % t, lambda t=t: _r3(sw, t), _holds)
           for t in ((a, b, c) for a in names for b in names for c in names)]
    for bname, verdicts in _PROJECTIVE.items():
        b = st[bname]
        for mname, verdict in verdicts.items():
            ops.append(("is_projective(%s, %s)" % (bname, mname),
                        lambda b=b, m=mname: hopf.is_projective(b, b.module(m)),
                        verdict))
    # One generator per pass, so every pass draws the same intertwiners.  The
    # outer colour X is P itself, which makes Hom(P, L^(x)k (x) X) nonzero for
    # every projective P (L contains the trivial module); the regular module
    # takes the trivial colour, since it maps onto every module and X = reg
    # would make the lift at k = 2 1024-dimensional.
    rng = random.Random(seed)
    for bname, verdicts in _PROJECTIVE.items():
        b = st[bname]
        for mname in (m for m, proj in verdicts.items() if proj):
            for k in (1, 2):
                ops.append(("red_to_blue(%s, %s, k=%d)" % (bname, mname, k),
                            lambda b=b, m=mname, k=k: _roundtrip(
                                b, b.module(m), hopf.trivial_rep(b)
                                if m == "reg" else b.module(m), k, rng),
                            _holds))
    return ops


def _build_smoke():
    return {"z2": bundles.z2_bundle()}


def _ops_smoke(st, seed):
    """Every traced layer once, on the smallest bundle (the group algebra of
    Z/2).  It is part of every workload, so every per-layer metric is
    measured on every workload; it costs about 1 % of a pass."""
    z2 = st["z2"]
    annulus = {}

    def skalg_annulus():
        annulus["alg"] = surface.skalg(z2, 0, 2, threads=1)
        return annulus["alg"].dim

    def char_map():
        out = surface.char_map(z2, annulus["alg"])
        return out["rank"], out["multiplicative"]

    rng = random.Random(0)  # fixed: only the disk part draws from --seed
    return [
        ("uqsl2_bundle(2).dim", lambda: bundles.uqsl2_bundle(2).dim, 16),
        ("validate_bundle(z2)", lambda: hopf.validate_bundle(z2, threads=1),
         []),
        ("skalg(z2, 0, 2)", skalg_annulus, 2),
        ("char_map(z2)", char_map, (2, True)),
        ("len(slf_basis(z2))", lambda: len(coend.slf_basis(z2)), 2),
        ("canonical_image_dim(z2)", lambda: coend.canonical_image_dim(z2), 2),
        ("R3(reg, sgn, triv) on z2",
         lambda: _r3(z2, ("reg", "sgn", "triv")), _holds),
        ("is_projective(z2, reg)",
         lambda: hopf.is_projective(z2, z2.module("reg")), True),
        ("red_to_blue(z2, sgn, k=1)",
         lambda: _roundtrip(z2, z2.module("sgn"), z2.module("sgn"), 1, rng),
         _holds),
    ]


# A part is a fixed call list on bundles of its own: name -> (build, ops).
PARTS = {
    "flagship": (_build_flagship, _ops_flagship),
    "coend_power": (_build_pair, _ops_coend_power),
    "braided": (_build_pair, _ops_braided),
    "disk": (_build_pair, _ops_disk),
    "smoke": (_build_smoke, _ops_smoke),
}

# A workload runs its parts in order; each part builds fresh bundles.  The
# four main parts form two workloads, not four, because on a shared 2-core
# host the run-to-run spread of a 20-second run was up to 0.29 of the median:
# two workloads give each run 45 seconds within the same total budget.  Both
# end with "smoke", which the harness self-test also runs on its own; it is
# not listed in BENCHMARK.json.
WORKLOADS = {
    "algebra": ("flagship", "braided", "smoke"),
    "modules": ("coend_power", "disk", "smoke"),
    "smoke": ("smoke",),
}


def check(out, expected) -> bool:
    return expected(out) if callable(expected) else out == expected
