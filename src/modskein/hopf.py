"""Ribbon Hopf algebra bundles and their module categories.

A bundle is a full structure-constant description of a finite-dimensional
Hopf algebra H over a cyclotomic field, optionally quasitriangular (R),
ribbon (v) and always pivotal (g).  Its finite-dimensional modules form the
ribbon category the rest of the engine computes in; the projective modules
form the tensor ideal that admissible skeins are colored by.

Every axiom the engine relies on is a named check in the table `AXIOMS`;
`validate_bundle` runs them and returns a deterministic, sorted list of
named failures (empty = valid).
Elements of H are sparse {basis index: CycNum} dicts throughout.
"""

from __future__ import annotations

import json
from functools import cached_property

from .cyclo import CycField, CycNum, ExactMatrix, LinearSystem
from .errors import CapabilityError, StructureError

__all__ = [
    "HopfBundle",
    "Rep",
    "validate_bundle",
    "validate_rep",
    "AXIOMS",
    "AxiomContext",
    "tensor_rep",
    "dual_rep",
    "hom_space",
    "braiding",
    "braiding_inverse",
    "twist",
    "twist_inverse",
    "is_projective",
    "projective_section",
    "regular_rep",
    "trivial_rep",
    "direct_sum_rep",
    "flip_matrix",
    "bundle_to_obj",
    "bundle_from_obj",
    "load_bundle",
    "save_bundle",
]


class Rep:
    """A finite-dimensional H-module: one action matrix per basis element."""

    __slots__ = ("dim", "mats")

    def __init__(self, dim: int, mats: list[ExactMatrix]):
        self.dim = dim
        self.mats = mats
        for m in mats:
            if m.rows != dim or m.cols != dim:
                raise StructureError("action matrix shape != module dimension")

    def act(self, elem: dict, field: CycField) -> ExactMatrix:
        """Matrix of a (sparse) algebra element on this module."""
        out = ExactMatrix.zeros(field, self.dim, self.dim)
        for i, c in elem.items():
            if c.is_zero():
                continue
            m = self.mats[i]
            for r in range(self.dim):
                row = m.data[r]
                orow = out.data[r]
                for s in range(self.dim):
                    if not row[s].is_zero():
                        orow[s] = orow[s] + c * row[s]
        return out

    def __eq__(self, other):
        if not isinstance(other, Rep):
            return NotImplemented
        return self.dim == other.dim and self.mats == other.mats

    def __hash__(self):
        return hash((self.dim, tuple(self.mats)))

    def __repr__(self):
        return "Rep(dim=%d)" % self.dim


class HopfBundle:
    """Structure constants of a pivotal (optionally ribbon) Hopf algebra.

    mult is stored as triples (i, j, k, c) meaning e_i * e_j has coefficient c
    on e_k; comult as (i, j, k, c) meaning Delta(e_i) has coefficient c on
    e_j (x) e_k; R and R_inv as (i, j, c) on e_i (x) e_j.  Absent R/ribbon
    mark a pivotal-only bundle: braiding and twist raise CapabilityError.
    """

    def __init__(self, name, field, dim, unit, mult, comult, counit, antipode,
                 pivotal, R=None, R_inv=None, ribbon=None, modules=None,
                 simples=None, basis_labels=None, metadata=None):
        self.name = name
        self.field = field
        self.dim = dim
        self.unit = unit                      # list[CycNum], length dim
        self.mult = mult                      # list[(i, j, k, CycNum)]
        self.comult = comult                  # list[(i, j, k, CycNum)]
        self.counit = counit                  # list[CycNum]
        self.antipode = antipode              # ExactMatrix, column i = S(e_i)
        self.pivotal = pivotal                # list[CycNum]
        self.R = R                            # list[(i, j, CycNum)] | None
        self.R_inv = R_inv
        self.ribbon = ribbon                  # list[CycNum] | None
        self.modules = dict(modules or {})
        self.simples = list(simples or [])
        self.basis_labels = list(basis_labels) if basis_labels else [
            "e%d" % k for k in range(dim)]
        self.metadata = dict(metadata or {})
        self._check_shapes()
        self._build_tables()
        self._cache: dict = {}

    # -- structural checks (raise StructureError, not axiom failures) ---------

    def _check_shapes(self):
        d = self.dim
        if d < 1:
            raise StructureError("dimension must be >= 1")
        for vec, what in ((self.unit, "unit"), (self.counit, "counit"),
                          (self.pivotal, "pivotal")):
            if len(vec) != d:
                raise StructureError("%s vector must have length %d" % (what, d))
        for (i, j, k, _) in self.mult:
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                raise StructureError("mult index out of range: %r" % ((i, j, k),))
        for (i, j, k, _) in self.comult:
            if not (0 <= i < d and 0 <= j < d and 0 <= k < d):
                raise StructureError("comult index out of range: %r" % ((i, j, k),))
        if self.antipode.rows != d or self.antipode.cols != d:
            raise StructureError("antipode must be a %dx%d matrix" % (d, d))
        for R in (self.R, self.R_inv):
            if R is not None:
                for (i, j, _) in R:
                    if not (0 <= i < d and 0 <= j < d):
                        raise StructureError("R index out of range: %r" % ((i, j),))
        if (self.R is None) != (self.R_inv is None):
            raise StructureError("R and R_inv must be given together")
        if self.ribbon is not None and len(self.ribbon) != d:
            raise StructureError("ribbon vector must have length %d" % d)
        if self.ribbon is not None and self.R is None:
            raise StructureError("ribbon element requires R")
        if len(self.basis_labels) != d:
            raise StructureError("need %d basis labels" % d)
        for name in self.simples:
            if name not in self.modules:
                raise StructureError("simple %r not in module list" % name)
        for name, rep in self.modules.items():
            if len(rep.mats) != d:
                raise StructureError("module %r needs %d action matrices"
                                     % (name, d))

    def _build_tables(self):
        d = self.dim
        self.mult_table: list[list[list]] = [[[] for _ in range(d)] for _ in range(d)]
        for (i, j, k, c) in self.mult:
            if not c.is_zero():
                self.mult_table[i][j].append((k, c))
        self.comult_table: list[list] = [[] for _ in range(d)]
        for (i, j, k, c) in self.comult:
            if not c.is_zero():
                self.comult_table[i].append((j, k, c))
        self.antipode_cols: list[list] = [
            [(k, self.antipode.data[k][i])
             for k in range(d) if not self.antipode.data[k][i].is_zero()]
            for i in range(d)]

    # -- capability ------------------------------------------------------------

    @property
    def has_r(self) -> bool:
        return self.R is not None

    @property
    def has_ribbon(self) -> bool:
        return self.ribbon is not None

    def require_r(self):
        if not self.has_r:
            raise CapabilityError(
                "bundle %r is pivotal-only: no R-matrix" % self.name)

    def require_ribbon(self):
        if not self.has_ribbon:
            raise CapabilityError(
                "bundle %r is pivotal-only: no ribbon element" % self.name)

    # -- element algebra (sparse dicts) -----------------------------------------

    def elem(self, coords) -> dict:
        return {i: c for i, c in enumerate(coords) if not c.is_zero()}

    def coords(self, elem: dict) -> list:
        z = self.field.zero()
        return [elem.get(i, z) for i in range(self.dim)]

    def elem_add(self, x: dict, y: dict) -> dict:
        out = dict(x)
        for i, c in y.items():
            s = out.get(i)
            s = c if s is None else s + c
            if s.is_zero():
                out.pop(i, None)
            else:
                out[i] = s
        return out

    def elem_scale(self, c: CycNum, x: dict) -> dict:
        if c.is_zero():
            return {}
        return {i: c * v for i, v in x.items()}

    def elem_mult(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for i, a in x.items():
            rowi = self.mult_table[i]
            for j, b in y.items():
                ab = a * b
                for k, c in rowi[j]:
                    s = out.get(k)
                    s = ab * c if s is None else s + ab * c
                    out[k] = s
        return {k: v for k, v in out.items() if not v.is_zero()}

    def elem_unit(self) -> dict:
        return self.elem(self.unit)

    def elem_counit(self, x: dict) -> CycNum:
        t = self.field.zero()
        for i, c in x.items():
            t = t + c * self.counit[i]
        return t

    def elem_antipode(self, x: dict) -> dict:
        out: dict = {}
        for i, c in x.items():
            for k, s in self.antipode_cols[i]:
                v = out.get(k)
                v = c * s if v is None else v + c * s
                out[k] = v
        return {k: v for k, v in out.items() if not v.is_zero()}

    def elem_comult(self, x: dict) -> dict:
        """Delta(x) as a sparse {(j, k): CycNum} dict."""
        out: dict = {}
        for i, c in x.items():
            for (j, k, w) in self.comult_table[i]:
                key = (j, k)
                v = out.get(key)
                v = c * w if v is None else v + c * w
                out[key] = v
        return {k: v for k, v in out.items() if not v.is_zero()}

    def elem_inverse(self, x: dict) -> dict | None:
        """Two-sided inverse in H, or None (left inverse = right inverse here
        since H is finite-dimensional)."""
        lm = self.left_mult_matrix(x)
        res = lm.solve(ExactMatrix.column(self.field, self.unit))
        if not res.feasible:
            return None
        inv = self.elem([res.particular.data[i][0] for i in range(self.dim)])
        if self.elem_mult(inv, x) != self.elem_unit():
            return None
        return inv

    def left_mult_matrix(self, x: dict) -> ExactMatrix:
        out = ExactMatrix.zeros(self.field, self.dim, self.dim)
        for j in range(self.dim):
            for i, a in x.items():
                for k, c in self.mult_table[i][j]:
                    out.data[k][j] = out.data[k][j] + a * c
        return out

    def tensor2_mult(self, x: dict, y: dict) -> dict:
        """Product of sparse elements of H (x) H, keys (i, j)."""
        out: dict = {}
        for (i1, j1), a in x.items():
            for (i2, j2), b in y.items():
                ab = a * b
                for k1, c1 in self.mult_table[i1][i2]:
                    for k2, c2 in self.mult_table[j1][j2]:
                        key = (k1, k2)
                        v = out.get(key)
                        w = ab * c1 * c2
                        v = w if v is None else v + w
                        out[key] = v
        return {k: v for k, v in out.items() if not v.is_zero()}

    def r_sparse(self) -> list:
        self.require_r()
        return [(i, j, c) for (i, j, c) in self.R if not c.is_zero()]

    def r_inv_sparse(self) -> list:
        self.require_r()
        return [(i, j, c) for (i, j, c) in self.R_inv if not c.is_zero()]

    def drinfeld_u(self) -> dict:
        """u = sum S(R2) R1, satisfying S^2(x) = u x u^{-1}."""
        u: dict = {}
        for (i, j, c) in self.r_sparse():
            term = self.elem_mult(self.elem_antipode({j: self.field.one()}),
                                  {i: self.field.one()})
            u = self.elem_add(u, self.elem_scale(c, term))
        return u

    def ribbon_elem(self) -> dict:
        self.require_ribbon()
        return self.elem(self.ribbon)

    def ribbon_inverse(self) -> dict:
        self.require_ribbon()
        if "ribbon_inv" not in self._cache:
            inv = self.elem_inverse(self.ribbon_elem())
            if inv is None:
                raise StructureError("ribbon element is not invertible")
            self._cache["ribbon_inv"] = inv
        return self._cache["ribbon_inv"]

    def pivotal_elem(self) -> dict:
        return self.elem(self.pivotal)

    def pivotal_inverse(self) -> dict:
        if "pivotal_inv" not in self._cache:
            inv = self.elem_inverse(self.pivotal_elem())
            if inv is None:
                raise StructureError("pivotal element is not invertible")
            self._cache["pivotal_inv"] = inv
        return self._cache["pivotal_inv"]

    def module(self, name: str) -> Rep:
        if name not in self.modules:
            raise StructureError("bundle %r has no module named %r"
                                 % (self.name, name))
        return self.modules[name]

    def __repr__(self):
        kind = "ribbon" if self.has_ribbon else (
            "quasitriangular" if self.has_r else "pivotal-only")
        return "HopfBundle(%r, dim=%d, %s)" % (self.name, self.dim, kind)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _basis_elem(field, i):
    return {i: field.one()}


def validate_rep(b: HopfBundle, rep: Rep) -> list[str]:
    """Check rho(1) = id and rho(e_i) rho(e_j) = sum m_ij^k rho(e_k)."""
    failures = []
    field = b.field
    ident = ExactMatrix.identity(field, rep.dim)
    if rep.act(b.elem_unit(), field) != ident:
        failures.append("unit does not act as identity")
    for i in range(b.dim):
        for j in range(b.dim):
            lhs = rep.mats[i] * rep.mats[j]
            rhs = ExactMatrix.zeros(field, rep.dim, rep.dim)
            for k, c in b.mult_table[i][j]:
                rhs = rhs + rep.mats[k].scale(c)
            if lhs != rhs:
                failures.append("action not multiplicative at (%d, %d)" % (i, j))
                return failures
    return failures


class AxiomContext:
    """Products shared by the axiom checks, each computed at most once."""

    def __init__(self, b: HopfBundle):
        self.b = b
        self.basis = [_basis_elem(b.field, i) for i in range(b.dim)]
        self.unit = b.elem_unit()

    @cached_property
    def prod(self) -> list[list[dict]]:
        b, basis = self.b, self.basis
        return [[b.elem_mult(x, y) for y in basis] for x in basis]

    @cached_property
    def unit2(self) -> dict:
        return _outer(self.unit, self.unit)

    @cached_property
    def R(self) -> dict:
        return {(i, j): c for (i, j, c) in self.b.r_sparse()}

    @cached_property
    def ginv(self) -> dict | None:
        return self.b.elem_inverse(self.b.pivotal_elem())


def _outer(x: dict, y: dict) -> dict:
    """x (x) y as a sparse element of H (x) H."""
    out = {(i, j): a * c for i, a in x.items() for j, c in y.items()}
    return {k: v for k, v in out.items() if not v.is_zero()}


def _nonzero(x: dict) -> dict:
    return {k: v for k, v in x.items() if not v.is_zero()}


def _associativity(ctx):
    b, basis, prod = ctx.b, ctx.basis, ctx.prod
    d = b.dim
    for i in range(d):
        for j in range(d):
            for l in range(d):
                if b.elem_mult(prod[i][j], basis[l]) != \
                   b.elem_mult(basis[i], prod[j][l]):
                    yield ("associativity: (e%d e%d) e%d != e%d (e%d e%d)"
                           % (i, j, l, i, j, l))


def _unit(ctx):
    b, unit = ctx.b, ctx.unit
    for i, e in enumerate(ctx.basis):
        if b.elem_mult(unit, e) != e or b.elem_mult(e, unit) != e:
            yield "unit: 1 * e%d or e%d * 1 != e%d" % (i, i, i)


def _coassociativity(ctx):
    b = ctx.b
    zero = b.field.zero()
    for i in range(b.dim):
        left: dict = {}
        right: dict = {}
        for (j, k, c) in b.comult_table[i]:
            for (a, bb, c2) in b.comult_table[j]:
                key = (a, bb, k)
                left[key] = left.get(key, zero) + c * c2
            for (a, bb, c2) in b.comult_table[k]:
                key = (j, a, bb)
                right[key] = right.get(key, zero) + c * c2
        if _nonzero(left) != _nonzero(right):
            yield "coassociativity: at e%d" % i


def _counit(ctx):
    b = ctx.b
    zero = b.field.zero()
    for i in range(b.dim):
        lc: dict = {}
        rc: dict = {}
        for (j, k, c) in b.comult_table[i]:
            lc[k] = lc.get(k, zero) + c * b.counit[j]
            rc[j] = rc.get(j, zero) + c * b.counit[k]
        if _nonzero(lc) != ctx.basis[i] or _nonzero(rc) != ctx.basis[i]:
            yield "counit: at e%d" % i


def _bialgebra(ctx):
    b, basis, prod = ctx.b, ctx.basis, ctx.prod
    if b.elem_comult(ctx.unit) != ctx.unit2:
        yield "bialgebra: Delta(1) != 1 (x) 1"
    if b.elem_counit(ctx.unit) != b.field.one():
        yield "bialgebra: counit(1) != 1"
    for i in range(b.dim):
        for j in range(b.dim):
            if b.elem_comult(prod[i][j]) != b.tensor2_mult(
                    b.elem_comult(basis[i]), b.elem_comult(basis[j])):
                yield ("bialgebra: Delta not multiplicative at (e%d, e%d)"
                       % (i, j))
            if b.elem_counit(prod[i][j]) != b.counit[i] * b.counit[j]:
                yield ("bialgebra: counit not multiplicative at (e%d, e%d)"
                       % (i, j))


def _antipode(ctx):
    b, basis = ctx.b, ctx.basis
    for i in range(b.dim):
        left_s: dict = {}
        right_s: dict = {}
        for (j, k, c) in b.comult_table[i]:
            sj = b.elem_antipode(basis[j])
            left_s = b.elem_add(left_s, b.elem_scale(c, b.elem_mult(sj, basis[k])))
            sk = b.elem_antipode(basis[k])
            right_s = b.elem_add(right_s, b.elem_scale(c, b.elem_mult(basis[j], sk)))
        target = b.elem_scale(b.counit[i], ctx.unit)
        if left_s != target or right_s != target:
            yield "antipode: at e%d" % i


def _r_inverse(ctx):
    b, R = ctx.b, ctx.R
    Rinv = {(i, j): c for (i, j, c) in b.r_inv_sparse()}
    if b.tensor2_mult(R, Rinv) != ctx.unit2 or \
       b.tensor2_mult(Rinv, R) != ctx.unit2:
        yield "quasitriangular: R * R_inv != 1 (x) 1"


def _r_intertwines_delta(ctx):
    b, R = ctx.b, ctx.R
    for i, e in enumerate(ctx.basis):
        delta = b.elem_comult(e)
        delta_op = {(k, j): c for (j, k), c in delta.items()}
        if b.tensor2_mult(delta_op, R) != b.tensor2_mult(R, delta):
            yield "quasitriangular: Delta_op != R Delta R^-1 at e%d" % i


def _r_delta_left(ctx):
    b, R = ctx.b, ctx.R
    zero = b.field.zero()
    r13_r23: dict = {}
    delta_r: dict = {}
    for (i, j), c in R.items():
        for (k, l), c2 in R.items():
            for kk, cm in b.mult_table[j][l]:
                key = (i, k, kk)
                r13_r23[key] = r13_r23.get(key, zero) + c * c2 * cm
        for (a, bb, c2) in b.comult_table[i]:
            key = (a, bb, j)
            delta_r[key] = delta_r.get(key, zero) + c * c2
    if _nonzero(delta_r) != _nonzero(r13_r23):
        yield "quasitriangular: (Delta (x) id)R != R13 R23"


def _r_delta_right(ctx):
    b, R = ctx.b, ctx.R
    zero = b.field.zero()
    r13_r12: dict = {}
    delta_r: dict = {}
    for (i, j), c in R.items():
        for (k, l), c2 in R.items():
            for kk, cm in b.mult_table[i][k]:
                key = (kk, l, j)
                r13_r12[key] = r13_r12.get(key, zero) + c * c2 * cm
        for (a, bb, c2) in b.comult_table[j]:
            key = (i, a, bb)
            delta_r[key] = delta_r.get(key, zero) + c * c2
    if _nonzero(delta_r) != _nonzero(r13_r12):
        yield "quasitriangular: (id (x) Delta)R != R13 R12"


def _ribbon(ctx):
    b = ctx.b
    v = b.ribbon_elem()
    for i, e in enumerate(ctx.basis):
        if b.elem_mult(v, e) != b.elem_mult(e, v):
            yield "ribbon: v not central (fails at e%d)" % i
    u = b.drinfeld_u()
    if b.elem_mult(v, v) != b.elem_mult(u, b.elem_antipode(u)):
        yield "ribbon: v^2 != u S(u)"
    if b.elem_antipode(v) != v:
        yield "ribbon: S(v) != v"
    if b.elem_counit(v) != b.field.one():
        yield "ribbon: counit(v) != 1"
    R21 = {(j, i): c for (i, j), c in ctx.R.items()}
    monodromy = b.tensor2_mult(R21, ctx.R)
    # Delta(v) = (R21 R)^-1 (v (x) v), checked multiplied through.
    if b.tensor2_mult(monodromy, b.elem_comult(v)) != _outer(v, v):
        yield "ribbon: Delta(v) != (R21 R)^-1 (v (x) v)"


def _pivotal(ctx):
    b = ctx.b
    g = b.pivotal_elem()
    if b.elem_comult(g) != _outer(g, g):
        yield "pivotal: g not group-like"
    if b.elem_counit(g) != b.field.one():
        yield "pivotal: counit(g) != 1"
    if ctx.ginv is None:
        yield "pivotal: g not invertible"
        return
    for i, e in enumerate(ctx.basis):
        s2 = b.elem_antipode(b.elem_antipode(e))
        if b.elem_mult(s2, g) != b.elem_mult(g, e):
            yield "pivotal: S^2 != g(.)g^-1 (fails at e%d)" % i


def _pivotal_ribbon(ctx):
    b = ctx.b
    if ctx.ginv is None:
        return
    vinv = b.elem_inverse(b.ribbon_elem())
    if vinv is None:
        yield "ribbon: v not invertible"
    elif b.elem_mult(b.drinfeld_u(), vinv) != b.pivotal_elem():
        yield "pivotal: g != u v^-1"


def _modules(ctx):
    b = ctx.b
    for name in sorted(b.modules):
        for msg in validate_rep(b, b.modules[name]):
            yield "module:%s: %s" % (name, msg)


# The axioms in checking order: (name, structure the check needs, check).
# A check is a generator of named failures, so a caller that wants only the
# first failure of an axiom stops its work there.
AXIOMS = (
    ("associativity", None, _associativity),
    ("unit", None, _unit),
    ("coassociativity", None, _coassociativity),
    ("counit", None, _counit),
    ("bialgebra", None, _bialgebra),
    ("antipode", None, _antipode),
    ("R invertible", "has_r", _r_inverse),
    ("R Delta = Delta_op R", "has_r", _r_intertwines_delta),
    ("(Delta (x) id)R = R13 R23", "has_r", _r_delta_left),
    ("(id (x) Delta)R = R13 R12", "has_r", _r_delta_right),
    ("ribbon", "has_ribbon", _ribbon),
    ("pivotal", None, _pivotal),
    ("g = u v^-1", "has_ribbon", _pivotal_ribbon),
    ("modules", None, _modules),
)

# The quasitriangular axioms that can be checked before R^-1 is known.
R_INVERSE_FREE = ("R Delta = Delta_op R", "(Delta (x) id)R = R13 R23",
                  "(id (x) Delta)R = R13 R12")


def validate_bundle(b: HopfBundle, threads: int = 1) -> list[str]:
    """Exhaustively check every Hopf/quasitriangular/ribbon/pivotal axiom.

    Runs every check of AXIOMS whose structure the bundle carries and
    returns the sorted list of named failures; empty means the bundle is a
    valid input for everything downstream.  Malformed shapes raise
    StructureError at construction instead of appearing here.  `threads` is
    accepted and ignored.
    """
    ctx = AxiomContext(b)
    failures: set[str] = set()
    for _, needs, check in AXIOMS:
        if needs is None or getattr(b, needs):
            failures.update(check(ctx))
    return sorted(failures)


# ---------------------------------------------------------------------------
# The module category
# ---------------------------------------------------------------------------


def trivial_rep(b: HopfBundle) -> Rep:
    """The tensor unit: H acts through the counit."""
    mats = [ExactMatrix.from_rows(b.field, [[b.counit[i]]]) for i in range(b.dim)]
    return Rep(1, mats)


def regular_rep(b: HopfBundle) -> Rep:
    """H acting on itself by left multiplication."""
    if "regular" not in b._cache:
        mats = []
        for i in range(b.dim):
            m = ExactMatrix.zeros(b.field, b.dim, b.dim)
            for j in range(b.dim):
                for k, c in b.mult_table[i][j]:
                    m.data[k][j] = m.data[k][j] + c
            mats.append(m)
        b._cache["regular"] = Rep(b.dim, mats)
    return b._cache["regular"]


def tensor_rep(b: HopfBundle, m: Rep, n: Rep) -> Rep:
    """Action on M (x) N through the comultiplication."""
    dim = m.dim * n.dim
    mats = []
    for i in range(b.dim):
        acc = ExactMatrix.zeros(b.field, dim, dim)
        for (j, k, c) in b.comult_table[i]:
            acc = acc + m.mats[j].kron(n.mats[k]).scale(c)
        mats.append(acc)
    return Rep(dim, mats)


def dual_rep(b: HopfBundle, m: Rep) -> Rep:
    """Left dual: rho*(e_i) = rho(S(e_i))^T."""
    mats = []
    for i in range(b.dim):
        acc = ExactMatrix.zeros(b.field, m.dim, m.dim)
        for k, c in b.antipode_cols[i]:
            acc = acc + m.mats[k].scale(c)
        mats.append(acc.transpose())
    return Rep(m.dim, mats)


def direct_sum_rep(b: HopfBundle, m: Rep, n: Rep) -> Rep:
    dim = m.dim + n.dim
    mats = []
    for i in range(b.dim):
        mat = ExactMatrix.zeros(b.field, dim, dim)
        for r in range(m.dim):
            for c in range(m.dim):
                mat.data[r][c] = m.mats[i].data[r][c]
        for r in range(n.dim):
            for c in range(n.dim):
                mat.data[m.dim + r][m.dim + c] = n.mats[i].data[r][c]
        mats.append(mat)
    return Rep(dim, mats)


def _sparse_rows(mat: ExactMatrix) -> list[list]:
    return [[(c, a) for c, a in enumerate(row) if not a.is_zero()]
            for row in mat.data]


def _sparse_cols(mat: ExactMatrix) -> list[list]:
    return [[(r, mat.data[r][c]) for r in range(mat.rows)
             if not mat.data[r][c].is_zero()] for c in range(mat.cols)]


def _intertwiner_rows(n_rows: list, m_cols: list, m_dim: int):
    """Rows of rho_N(e_i) F - F rho_M(e_i) = 0, one per entry (r, c).

    The unknown F[s][t] is column s * m_dim + t; `n_rows` are the sparse rows
    of rho_N(e_i) and `m_cols` the sparse columns of rho_M(e_i), as lists of
    (index, coefficient).  Rows that vanish identically are skipped.
    """
    for r, n_row in enumerate(n_rows):
        for c, m_col in enumerate(m_cols):
            row: dict = {}
            for s, a in n_row:
                key = s * m_dim + c
                row[key] = row[key] + a if key in row else a
            for t, a in m_col:
                key = r * m_dim + t
                row[key] = row[key] - a if key in row else -a
            row = {k: v for k, v in row.items() if not v.is_zero()}
            if row:
                yield row


def hom_space(b: HopfBundle, m: Rep, n: Rep) -> list[ExactMatrix]:
    """Exact basis of the intertwiner space {F : rho_N(e_i) F = F rho_M(e_i)}.

    Matrices are dim(N) x dim(M); the basis is the deterministic kernel basis
    of the stacked commutation constraints.
    """
    sys = LinearSystem(b.field, n.dim * m.dim)
    for i in range(b.dim):
        for row in _intertwiner_rows(_sparse_rows(n.mats[i]),
                                     _sparse_cols(m.mats[i]), m.dim):
            sys.add_row(row)
    kern = sys.kernel()
    out = []
    for j in range(kern.cols):
        mat = ExactMatrix.zeros(b.field, n.dim, m.dim)
        for r in range(n.dim):
            for c in range(m.dim):
                mat.data[r][c] = kern.data[r * m.dim + c][j]
        out.append(mat)
    return out


def flip_matrix(field: CycField, m: int, n: int) -> ExactMatrix:
    """The tensor swap M (x) N -> N (x) M on coordinates (a*n+b -> b*m+a)."""
    out = ExactMatrix.zeros(field, m * n, m * n)
    one = field.one()
    for a in range(m):
        for bb in range(n):
            out.data[bb * m + a][a * n + bb] = one
    return out


def braiding(b: HopfBundle, m: Rep, n: Rep) -> ExactMatrix:
    """c_{M,N} = flip o (rho_M (x) rho_N)(R) : M (x) N -> N (x) M."""
    b.require_r()
    field = b.field
    acc = ExactMatrix.zeros(field, m.dim * n.dim, m.dim * n.dim)
    for (i, j, c) in b.r_sparse():
        acc = acc + m.mats[i].kron(n.mats[j]).scale(c)
    return flip_matrix(field, m.dim, n.dim) * acc


def braiding_inverse(b: HopfBundle, m: Rep, n: Rep) -> ExactMatrix:
    """(c_{N,M})^-1 = (rho_N (x) rho_M)(R^-1) o flip : M (x) N -> N (x) M."""
    b.require_r()
    field = b.field
    acc = ExactMatrix.zeros(field, n.dim * m.dim, n.dim * m.dim)
    for (i, j, c) in b.r_inv_sparse():
        acc = acc + n.mats[i].kron(m.mats[j]).scale(c)
    return acc * flip_matrix(field, m.dim, n.dim)


def twist(b: HopfBundle, m: Rep) -> ExactMatrix:
    """The categorical twist theta_M = rho_M(v^-1).

    With the ribbon axiom Delta(v) = (R21 R)^-1 (v (x) v), acting by v^-1 is
    what satisfies theta_{M(x)N} = (theta_M (x) theta_N) o c_{N,M} o c_{M,N}.
    """
    b.require_ribbon()
    return m.act(b.ribbon_inverse(), b.field)


def twist_inverse(b: HopfBundle, m: Rep) -> ExactMatrix:
    b.require_ribbon()
    return m.act(b.ribbon_elem(), b.field)


def _free_cover_system(b: HopfBundle, m: Rep):
    """Equations for an H-linear section of H (x) M_vec ->> M.

    Unknowns sigma[(h, r), c] with vec index (h * dim + r) * dim + c; the free
    module action L_i (x) I is left multiplication on the H factor only,
    given to the intertwiner constraints as sparse rows.
    """
    field = b.field
    d, md = b.dim, m.dim
    sys = LinearSystem(field, d * md * md, 1)

    def unknown(h, r, c):
        return (h * md + r) * md + c

    reg = regular_rep(b)
    for i in range(d):
        lrows = _sparse_rows(reg.mats[i])
        free_rows = [[(h * md + rp, a) for h, a in lrows[hp]]
                     for hp in range(d) for rp in range(md)]
        for row in _intertwiner_rows(free_rows, _sparse_cols(m.mats[i]), md):
            sys.add_row(row)
    # pi o sigma = id, with pi(e_h (x) delta_r) = rho(e_h) column r
    one = field.one()
    for cp in range(md):
        for c in range(md):
            row = {}
            for h in range(d):
                mh = m.mats[h]
                for r in range(md):
                    a = mh.data[cp][r]
                    if not a.is_zero():
                        key = unknown(h, r, c)
                        row[key] = row.get(key, field.zero()) + a
            sys.add_row(row, {0: one} if cp == c else None)
    return sys


def projective_section(b: HopfBundle, m: Rep) -> ExactMatrix | None:
    """H-linear splitting sigma: M -> H (x) M_vec of the free cover, or None.

    The free cover pi(h (x) w) = rho(h) w always surjects; M is projective
    exactly when pi splits H-linearly, decided by exact solve.  The regular
    representation splits by h -> h (x) delta_1 and is special-cased.
    """
    key = ("proj_section", m)  # by content: an id() is reused once m is freed
    if key in b._cache:
        return b._cache[key]
    field = b.field
    if m == regular_rep(b):
        unit_idx = [i for i, c in enumerate(b.unit) if not c.is_zero()]
        if len(unit_idx) == 1 and b.unit[unit_idx[0]] == field.one():
            sec = ExactMatrix.zeros(field, b.dim * b.dim, b.dim)
            for h in range(b.dim):
                sec.data[h * b.dim + unit_idx[0]][h] = field.one()
            b._cache[key] = sec
            return sec
    sys = _free_cover_system(b, m)
    res = sys.solve()
    sec = None
    if res.feasible:
        md = m.dim
        sec = ExactMatrix.zeros(field, b.dim * md, md)
        for h in range(b.dim):
            for r in range(md):
                for c in range(md):
                    sec.data[h * md + r][c] = \
                        res.particular.data[(h * md + r) * md + c][0]
    b._cache[key] = sec
    return sec


def is_projective(b: HopfBundle, m: Rep) -> bool:
    """True iff the free cover H (x) M_vec ->> M splits H-linearly."""
    return projective_section(b, m) is not None


# ---------------------------------------------------------------------------
# Serialization (bundle file format)
# ---------------------------------------------------------------------------


def bundle_to_obj(b: HopfBundle) -> dict:
    obj = {
        "name": b.name,
        "cyclotomic_order": b.field.order,
        "dim": b.dim,
        "basis_labels": b.basis_labels,
        "unit": [c.to_obj() for c in b.unit],
        "mult": [[i, j, k, c.to_obj()] for (i, j, k, c) in b.mult
                 if not c.is_zero()],
        "comult": [[i, j, k, c.to_obj()] for (i, j, k, c) in b.comult
                   if not c.is_zero()],
        "counit": [c.to_obj() for c in b.counit],
        "antipode": [[c.to_obj() for c in row] for row in b.antipode.data],
        "pivotal": [c.to_obj() for c in b.pivotal],
        "modules": {
            name: {
                "dim": rep.dim,
                "action": [[i, r, c, rep.mats[i].data[r][c].to_obj()]
                           for i in range(b.dim)
                           for r in range(rep.dim)
                           for c in range(rep.dim)
                           if not rep.mats[i].data[r][c].is_zero()],
            }
            for name, rep in sorted(b.modules.items())
        },
        "simples": b.simples,
    }
    if b.has_r:
        obj["R"] = [[i, j, c.to_obj()] for (i, j, c) in b.R if not c.is_zero()]
        obj["R_inv"] = [[i, j, c.to_obj()] for (i, j, c) in b.R_inv
                        if not c.is_zero()]
    if b.has_ribbon:
        obj["ribbon"] = [c.to_obj() for c in b.ribbon]
    if b.metadata:
        obj["metadata"] = b.metadata
    return obj


def bundle_from_obj(obj: dict) -> HopfBundle:
    try:
        field = CycField(int(obj["cyclotomic_order"]))
        dim = int(obj["dim"])
        unit = [CycNum.from_obj(c, field) for c in obj["unit"]]
        mult = [(int(i), int(j), int(k), CycNum.from_obj(c, field))
                for (i, j, k, c) in obj["mult"]]
        comult = [(int(i), int(j), int(k), CycNum.from_obj(c, field))
                  for (i, j, k, c) in obj["comult"]]
        counit = [CycNum.from_obj(c, field) for c in obj["counit"]]
        antipode = ExactMatrix(field, [[CycNum.from_obj(c, field) for c in row]
                                       for row in obj["antipode"]])
        pivotal = [CycNum.from_obj(c, field) for c in obj["pivotal"]]
        R = R_inv = None
        if "R" in obj:
            R = [(int(i), int(j), CycNum.from_obj(c, field))
                 for (i, j, c) in obj["R"]]
            R_inv = [(int(i), int(j), CycNum.from_obj(c, field))
                     for (i, j, c) in obj["R_inv"]]
        ribbon = None
        if "ribbon" in obj:
            ribbon = [CycNum.from_obj(c, field) for c in obj["ribbon"]]
        modules = {}
        for name, mobj in obj.get("modules", {}).items():
            mdim = int(mobj["dim"])
            mats = [ExactMatrix.zeros(field, mdim, mdim) for _ in range(dim)]
            for (i, r, c, coeff) in mobj["action"]:
                mats[int(i)].data[int(r)][int(c)] = CycNum.from_obj(coeff, field)
            modules[name] = Rep(mdim, mats)
        return HopfBundle(
            name=obj.get("name", "bundle"), field=field, dim=dim, unit=unit,
            mult=mult, comult=comult, counit=counit, antipode=antipode,
            pivotal=pivotal, R=R, R_inv=R_inv, ribbon=ribbon, modules=modules,
            simples=obj.get("simples", []),
            basis_labels=obj.get("basis_labels"),
            metadata=obj.get("metadata"))
    except (KeyError, TypeError, IndexError) as exc:
        raise StructureError("malformed bundle object: %s" % exc) from exc


def save_bundle(b: HopfBundle, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(bundle_to_obj(b), fh, indent=1)
        fh.write("\n")


def load_bundle(path) -> HopfBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise StructureError("cannot read bundle file %s: %s" % (path, exc))
    return bundle_from_obj(obj)
