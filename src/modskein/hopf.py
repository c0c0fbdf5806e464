"""Ribbon Hopf algebra bundles and their module categories.

A bundle is a full structure-constant description of a finite-dimensional
Hopf algebra H over a cyclotomic field, optionally quasitriangular (R),
ribbon (v) and always pivotal (g).  Its finite-dimensional modules form the
ribbon category the rest of the engine computes in; the projective modules
form the tensor ideal that admissible skeins are colored by.

Every axiom the engine relies on is a named check in the table `AXIOMS`;
`validate_bundle` decides them and returns a deterministic, sorted list of
named failures (empty = valid).

Associativity, the bialgebra laws and the module laws are decided on a
generating set S of basis elements (see `_generators`) instead of on every
basis element.  Let N be the set of left-nested products
s_1 (s_2 (... (s_k 1))) of elements of S, with k = 0 giving 1; S is chosen so
that N spans H.  Each law below is linear in the element x it is stated for,
so it holds on H once it holds on N, and on N it follows by induction on k:

(i) Let 1 be a two-sided unit, and suppose A_s: (x s) z = x (s z) for all
    x, z and every s in S.  Then H is associative.  A_y is linear in y and
    A_1 holds; A_s together with A_y' gives A_(s y'), since
    (x (s y')) z = ((x s) y') z = (x s) (y' z) = x (s (y' z)) = x ((s y') z).
(ii) Let H be associative with Delta(1) = 1 (x) 1 and counit(1) = 1, and
    suppose Delta(s y) = Delta(s) Delta(y) and counit(s y) =
    counit(s) counit(y) for every s in S and all y.  Then Delta and the
    counit are multiplicative.  The case x = 1 is Delta(1) = 1 (x) 1, and
    for x = s x' with x' in N, by associativity of H and of H (x) H,
    Delta(x y) = Delta(s (x' y)) = Delta(s) Delta(x') Delta(y)
    = Delta(x) Delta(y); the counit likewise.
(iii) Let H be associative and rho(1) = id, and suppose
    rho(s) rho(y) = rho(s y) for every s in S and all y.  Then rho is a
    representation, by the same induction.
(iv) Let H be associative and unital, and M, N modules of H.  For a linear
    map F: M -> N the set {h : rho_N(h) F = F rho_M(h)} is a unital
    subalgebra: it is a subspace, holds 1, and for h, h' in it
    rho_N(h h') F = rho_N(h) F rho_M(h') = F rho_M(h h').  For a linear form
    f on H the set {x : f(x y) = f(y x) for all y} is one too: for x, x' in
    it, f(x x' y) = f(x' y x) = f(y x x').  A subalgebra that holds S holds
    every nested product, so it is H: F is H-linear, and f symmetric, once
    the condition holds on S.

Each of these checks is one loop whose index over S runs either over S or
over every basis element.  When a lemma's hypothesis fails (the unit,
Delta(1), counit(1) or rho(1) is wrong, or there is no S because
associativity on S fails), or the loop over S finds a failure, the loop runs
over every basis element, so the named failures are those of the exhaustive
check, in its order.  When the loop over S passes, the lemma says the
exhaustive loop would find nothing either.  The other checks are linear in
d and run over every basis element.

Every intertwiner-type condition is imposed on S by lemma (iv), and on every
basis element when there is no S (`_constrained`).  Outside the axiom checks
only three functions read S: `_intertwiner_system` stacks the constraints
that `hom_space` and `projective_section` solve, `_intertwiner_failure`
decides whether a map intertwines (for `rt` coupons and
`coend.red_to_blue`), naming the first failing basis element of all, and
`_commutators` gives the rows a symmetric form vanishes on.  A kernel basis
depends only on the solution space and the column order, so each result is
the one the exhaustive system gives.  The lemma needs modules: the arguments
of these functions must be modules of the bundle, as `validate_rep` decides.

One sparse convention holds throughout: an element of H is a
{basis index: CycNum} dict and an element of H (x) H an {(i, j): CycNum}
dict, neither holding zero values, and every such linear combination is
formed by `cyclo._sparse_sum`.  A module keeps its action as sparse rows
(see `Rep`), and the action of an element of H on a module M, or of H (x) H
on M (x) N, is written by the one builder `_action_rows`, which visits only
the nonzero entries of the factors and returns sparse rows again.
`Rep.act` and `braiding` wrap those rows as matrices, and `validate_rep`
compares the rows themselves.
"""

from __future__ import annotations

from itertools import chain, islice
from operator import attrgetter

from .cyclo import (CycField, CycNum, ExactMatrix, LinearSystem, _matrix,
                    _parse_index, _solve_in_basis, _sorted_row,
                    _sparse_cols, _sparse_product, _sparse_rows, _sparse_sum,
                    _transpose)
from .errors import CapabilityError, StructureError

__all__ = [
    "HopfBundle",
    "Rep",
    "validate_bundle",
    "validate_rep",
    "AXIOMS",
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
    "bundle_to_obj",
    "bundle_from_obj",
]


class Rep:
    """A finite-dimensional H-module, immutable once built.

    `rows[i][r]` holds the nonzero entries of row r of the action matrix
    rho(e_i) as (column, CycNum) pairs sorted by column.  That form is
    canonical, so equality and the hash compare (dim, rows) and equal
    modules are equal cache keys.  `Rep(dim, mats)` reads the rows of action
    matrices and `Rep.from_rows` takes sparse rows as they are.  A derived
    module (`Rep.deferred`) knows its dim and action count at once and
    builds the rows of one basis element e_i when `rows_of(i)` first reads
    them, keeping them; a whole-module read (`rows`, `cols`, `mats`, the
    hash, ==) builds the rest and drops the builder.  The matrices `mats`,
    which wrap the rows, and the sparse columns `cols` are built on first
    access and kept; both are immutable.  `mats` is a view for callers
    outside the engine, which itself reads only `rows`, `rows_of` and
    `cols`.  `dim`, `n_actions` and `field` are read-only.

    Every function that takes modules of a bundle b expects modules of b, as
    `validate_rep` decides: an intertwiner-type condition is imposed on the
    generating set S only (lemma (iv) of the module docstring), which is
    sound for modules alone.
    """

    __slots__ = ("_dim", "_n_actions", "_field", "_build", "_built", "_rows",
                 "_mats", "_cols", "_hash")

    def __init__(self, dim: int, mats: list[ExactMatrix]):
        for m in mats:
            if m.rows != dim or m.cols != dim:
                raise StructureError("action matrix shape != module dimension")
        rows = tuple(_sparse_rows(m) for m in mats)
        self._set(mats[0].field if mats else None, dim, len(rows),
                  rows.__getitem__)

    @classmethod
    def from_rows(cls, field: CycField, dim: int, rows) -> "Rep":
        """The module whose action matrices have the sparse rows `rows`:
        per basis element, a tuple of rows, each a tuple of (column, CycNum)
        pairs sorted by column, without zeros."""
        rows = tuple(rows)
        return cls.deferred(field, dim, len(rows), rows.__getitem__)

    @classmethod
    def deferred(cls, field: CycField, dim: int, n_actions: int,
                 build) -> "Rep":
        """The module with `n_actions` action matrices, the sparse rows of
        rho(e_i) being `build(i)`, called on the first read of e_i."""
        rep = cls.__new__(cls)
        rep._set(field, dim, n_actions, build)
        return rep

    def _set(self, field, dim, n_actions, build):
        self._field, self._dim, self._n_actions = field, dim, n_actions
        self._build, self._built = build, {}
        self._rows = self._mats = self._cols = self._hash = None

    dim = property(attrgetter("_dim"))
    n_actions = property(attrgetter("_n_actions"))
    field = property(attrgetter("_field"))

    def rows_of(self, i: int) -> tuple:
        """The sparse rows of rho(e_i), built on their first read."""
        if self._rows is not None:
            return self._rows[i]
        rows = self._built.get(i)
        if rows is None:
            rows = self._built[i] = self._build(i)
        return rows

    @property
    def rows(self) -> tuple:
        if self._rows is None:
            self._rows = tuple(map(self.rows_of, range(self.n_actions)))
            self._build = self._built = None
        return self._rows

    @property
    def mats(self) -> tuple[ExactMatrix, ...]:
        if self._mats is None:
            self._mats = tuple([_matrix(self.field, rows, self.dim)
                                for rows in self.rows])
        return self._mats

    @property
    def cols(self) -> tuple:
        """The sparse columns of each action matrix, sorted by row."""
        if self._cols is None:
            self._cols = tuple(_transpose(rows, self.dim) for rows in self.rows)
        return self._cols

    def act(self, elem: dict) -> ExactMatrix:
        """Matrix of a (sparse) algebra element on this module."""
        return _matrix(self.field, _action_rows(elem.items(), self), self.dim)

    def __eq__(self, other):
        if not isinstance(other, Rep):
            return NotImplemented
        return self is other or (self.dim == other.dim
                                 and self.rows == other.rows)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.dim, self.rows))
        return self._hash

    def __repr__(self):
        return "Rep(dim=%d)" % self.dim


_ABSENT = object()  # what `_memo` reads for a key not yet built


def _memo(b: HopfBundle, key: tuple, build):
    """The value of `build()` for `key`, built once per bundle.

    Everything the engine derives from a bundle and keeps is kept here, in
    `b._cache`, and nowhere else.  A key names content: a tag, then ints and
    modules (a `Rep` hashes and compares by its rows), or tuples of modules
    with ribbon generator kinds and signs (`rt` slices), never a module name
    or an id().  A stored list or dict is handed out as a copy, the dicts
    inside a stored dict too, and everything else it stores (matrices,
    modules, tuples) is immutable, so nothing a caller does to a result can
    change what a later call returns.
    """
    value = b._cache.get(key, _ABSENT)
    if value is _ABSENT:
        value = b._cache[key] = build()
    if isinstance(value, dict):
        return {k: v.copy() if isinstance(v, dict) else v
                for k, v in value.items()}
    return value.copy() if isinstance(value, list) else value


def _nonzero(entries: tuple) -> tuple:
    """The entries (..., c) whose coefficient c is not zero."""
    return tuple(e for e in entries if not e[-1].is_zero())


class HopfBundle:
    """Structure constants of a pivotal (optionally ribbon) Hopf algebra.

    mult is stored as triples (i, j, k, c) meaning e_i * e_j has coefficient c
    on e_k; comult as (i, j, k, c) meaning Delta(e_i) has coefficient c on
    e_j (x) e_k; R and R_inv as (i, j, c) on e_i (x) e_j.  Absent R/ribbon
    mark a pivotal-only bundle: braiding and twist raise CapabilityError.

    The structure is fixed once built, since every `_memo` entry derives from
    it: the vectors and entry lists are tuples (the entry lists without zero
    coefficients), the antipode is an immutable matrix, and assigning an
    attribute raises AttributeError.  `modules` stays a mutable name -> Rep
    map, since the memo keys modules by content, never by name.
    """

    def __init__(self, name, field, dim, unit, mult, comult, counit, antipode,
                 pivotal, R=None, R_inv=None, ribbon=None, modules=None,
                 simples=None, basis_labels=None, metadata=None):
        self.name = name
        self.field = field
        self.dim = dim
        self.unit = tuple(unit)               # CycNum per basis element
        self.mult = tuple(mult)               # (i, j, k, CycNum)
        self.comult = tuple(comult)           # (i, j, k, CycNum)
        self.counit = tuple(counit)
        self.antipode = antipode              # column i = S(e_i)
        self.pivotal = tuple(pivotal)
        self.R = None if R is None else tuple(R)  # (i, j, CycNum)
        self.R_inv = None if R_inv is None else tuple(R_inv)
        self.ribbon = None if ribbon is None else tuple(ribbon)
        self.modules = dict(modules or {})
        self.simples = list(simples or [])
        self.basis_labels = (["e%d" % k for k in range(dim)]
                             if basis_labels is None else list(basis_labels))
        self.metadata = dict(metadata or {})
        self._check_shapes()
        self.mult, self.comult = _nonzero(self.mult), _nonzero(self.comult)
        if self.R is not None:
            self.R, self.R_inv = _nonzero(self.R), _nonzero(self.R_inv)
        self._build_tables()
        self._cache: dict = {}
        self._built = True

    def __setattr__(self, attr, value):
        if getattr(self, "_built", False):
            raise AttributeError("bundle %r is fixed once built; edit its "
                                 "JSON and reload it instead" % self.name)
        object.__setattr__(self, attr, value)

    # -- structural checks (raise StructureError, not axiom failures) ---------

    def _check_shapes(self):
        d = self.dim
        if d < 1:
            raise StructureError("dimension must be >= 1, got %d" % d)
        for vec, what in ((self.unit, "unit"), (self.counit, "counit"),
                          (self.pivotal, "pivotal")):
            if len(vec) != d:
                raise StructureError("%s vector must have length %d" % (what, d))
        for what, entries in (("mult", self.mult), ("comult", self.comult),
                              ("R", (self.R or ()) + (self.R_inv or ()))):
            for entry in entries:
                if not all(0 <= i < d for i in entry[:-1]):
                    raise StructureError("%s index out of range: %r"
                                         % (what, tuple(entry[:-1])))
        if self.antipode.rows != d or self.antipode.cols != d:
            raise StructureError("antipode must be a %dx%d matrix" % (d, d))
        if (self.R is None) != (self.R_inv is None):
            raise StructureError("R and R_inv must be given together")
        if self.ribbon is not None and len(self.ribbon) != d:
            raise StructureError("ribbon vector must have length %d" % d)
        if self.ribbon is not None and self.R is None:
            raise StructureError("ribbon element requires R")
        if len(self.basis_labels) != d:
            raise StructureError("need %d basis labels" % d)
        for k, name in enumerate(self.simples):
            if name not in self.modules:
                raise StructureError("simple %r not in module list" % name)
            if name in self.simples[:k]:
                raise StructureError("simple %r listed twice" % name)
        for name, rep in self.modules.items():
            _check_rep(self, rep, what="module %r" % name)

    def _build_tables(self):
        d = self.dim
        mult_table: list[list[list]] = [[[] for _ in range(d)] for _ in range(d)]
        for (i, j, k, c) in self.mult:
            mult_table[i][j].append((k, c))
        comult_table: list[list] = [[] for _ in range(d)]
        for (i, j, k, c) in self.comult:
            comult_table[i].append((j, k, c))
        self.mult_table = tuple(tuple(map(tuple, row)) for row in mult_table)
        self.comult_table = tuple(map(tuple, comult_table))
        self.antipode_cols = _sparse_cols(self.antipode)

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

    def elem_mult(self, x: dict, y: dict) -> dict:
        table = self.mult_table
        return _sparse_sum((k, a * b * c) for i, a in x.items()
                           for j, b in y.items() for k, c in table[i][j])

    def elem_unit(self) -> dict:
        return self.elem(self.unit)

    def elem_counit(self, x: dict) -> CycNum:
        t = self.field.zero()
        for i, c in x.items():
            t = t + c * self.counit[i]
        return t

    def elem_antipode(self, x: dict) -> dict:
        return _sparse_sum((k, c * s) for i, c in x.items()
                           for k, s in self.antipode_cols[i])

    def elem_comult(self, x: dict) -> dict:
        """Delta(x) as a sparse {(j, k): CycNum} dict."""
        return _sparse_sum(((j, k), c * w) for i, c in x.items()
                           for j, k, w in self.comult_table[i])

    def elem_inverse(self, x: dict) -> dict | None:
        """Two-sided inverse in H, or None: y with x y = 1, solved over the
        sparse columns x e_j, and checked to satisfy y x = 1."""
        one = self.field.one()
        res = _solve_in_basis(
            self.field, [self.elem_mult(x, {j: one}) for j in range(self.dim)],
            [self.elem_unit()])
        if not res.feasible:
            return None
        inv = dict(_sparse_cols(res.particular)[0])
        if self.elem_mult(inv, x) != self.elem_unit():
            return None
        return inv

    def tensor2_mult(self, x: dict, y: dict) -> dict:
        """Product of sparse elements of H (x) H, keys (i, j)."""
        table = self.mult_table
        return _sparse_sum(((k1, k2), a * b * c1 * c2)
                           for (i1, j1), a in x.items()
                           for (i2, j2), b in y.items()
                           for k1, c1 in table[i1][i2]
                           for k2, c2 in table[j1][j2])

    def drinfeld_u(self) -> dict:
        """u = sum S(R2) R1, satisfying S^2(x) = u x u^{-1}."""
        self.require_r()
        one = self.field.one()
        return _memo(self, ("drinfeld_u",), lambda: _sparse_sum(
            (k, c * v) for (i, j, c) in self.R
            for k, v in self.elem_mult(self.elem_antipode({j: one}),
                                       {i: one}).items()))

    def ribbon_elem(self) -> dict:
        self.require_ribbon()
        return self.elem(self.ribbon)

    def ribbon_inverse(self) -> dict:
        self.require_ribbon()
        return self._inverse("ribbon")

    def pivotal_elem(self) -> dict:
        return self.elem(self.pivotal)

    def pivotal_inverse(self) -> dict:
        return self._inverse("pivotal")

    def _inverse(self, which: str, check: bool = True) -> dict | None:
        """The inverse of the "ribbon" or "pivotal" element; when it has
        none, a StructureError, or None without `check`."""
        elem = self.ribbon_elem if which == "ribbon" else self.pivotal_elem
        inv = _memo(self, (which + "_inv",), lambda: self.elem_inverse(elem()))
        if inv is None and check:
            raise StructureError("%s element is not invertible" % which)
        return inv

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


def _check_rep(b: HopfBundle, *reps: Rep, what: str = "module") -> None:
    """Refuse a module without one action matrix per basis element of b, or
    over another field, such as a module of another bundle, with a
    StructureError."""
    for rep in reps:
        if rep.n_actions != b.dim:
            raise StructureError("%s has %d action matrices, bundle %r needs "
                                 "%d" % (what, rep.n_actions, b.name, b.dim))
        if rep.field is not b.field:
            raise StructureError("%s is over %r, bundle %r over %r"
                                 % (what, rep.field, b.name, b.field))


def _decided_on(gens, d: int, loop):
    """The failures of `loop(range(d))`, read from `loop(gens)` when it can.

    `loop(indices)` is a check whose index over S runs over `indices`.  When
    `gens` is a generating set whose lemma hypotheses hold and `loop(gens)`
    finds nothing, the lemma says `loop(range(d))` finds nothing either;
    otherwise `loop(range(d))` runs and its failures are returned as found.
    """
    if gens is not None and next(loop(gens), None) is None:
        return
    yield from loop(range(d))


def validate_rep(b: HopfBundle, rep: Rep) -> list[str]:
    """Check rho(1) = id and rho(e_i) rho(e_j) = sum m_ij^k rho(e_k).

    Decided on i in S by lemma (iii) of the module docstring when H is
    associative and rho(1) = id; otherwise, or when that finds a failure,
    the first failing pair (i, j) of all of them is named.  A module with the
    wrong number of action matrices, or over another field, raises
    StructureError.
    """
    _check_rep(b, rep)
    failures = []
    rows, one, d = rep.rows, b.field.one(), b.dim
    ident = tuple(((r, one),) for r in range(rep.dim))
    if _action_rows(b.elem_unit().items(), rep) != ident:
        failures.append("unit does not act as identity")

    def multiplicative(lefts):
        for i in lefts:
            for j in range(d):
                if _sparse_product(rows[i], rows[j]) != \
                        _action_rows(b.mult_table[i][j], rep):
                    yield "action not multiplicative at (%d, %d)" % (i, j)

    gens = None if failures else _generators(b)
    failures.extend(islice(_decided_on(gens, d, multiplicative), 1))
    return failures


def _generators(b: HopfBundle) -> list[int] | None:
    """The generating set S the checks are decided on, or None.

    S is greedy in basis order: e_i joins S when it is not in the span W of
    the left-nested products of S, and after each addition W is closed under
    left multiplication by S, so at the end the nested products span H.
    Membership is a rank test in one `LinearSystem`.  S is returned only if 1
    is a two-sided unit and (x s) z = x (s z) holds for every s in S and all
    basis x, z, so that H is associative by lemma (i); otherwise None.  It is
    kept by `_memo`, so every check of one bundle reads the same S.
    """
    return _memo(b, ("generators",), lambda: _find_generators(b))


def _find_generators(b: HopfBundle) -> list[int] | None:
    if next(_unit(b), None) is not None:
        return None
    one, unit = b.field.one(), b.elem_unit()
    span = LinearSystem(b.field, b.dim)

    def grows(x):
        rank = span.rank()
        span.add_row(x)
        return span.rank() > rank

    gens: list[int] = []
    # A basis of W made of nested products, and per product the number of
    # elements of S (a prefix, since S only grows) it was multiplied by.
    words, done = [unit], [0]
    grows(unit)
    for i in range(b.dim):
        if span.rank() == b.dim:
            break
        if not grows({i: one}):
            continue
        gens.append(i)
        words.append({i: one})
        done.append(0)
        for w, word in enumerate(words):
            for s in gens[done[w]:]:
                x = b.elem_mult({s: one}, word)
                if grows(x):
                    words.append(x)
                    done.append(0)
            done[w] = len(gens)
    if next(_associativity_at(b, gens), None) is not None:
        return None
    return gens


def _outer(x: dict, y: dict) -> dict:
    """x (x) y as a sparse element of H (x) H."""
    return _sparse_sum(((i, j), a * c) for i, a in x.items()
                       for j, c in y.items())


def _associativity(b):
    """Lemma (i): the generating-set search has checked A_s on S already."""
    if _generators(b) is None:
        yield from _associativity_at(b, range(b.dim))


def _associativity_at(b, middles):
    """(e_i e_j) e_l = e_i (e_j e_l) for all i, l and every j in `middles`.

    Both sides are summed from `mult_table` entries; the sum is linear in
    them, so an entry given as several entries with the same indices counts
    as their sum."""
    table, d = b.mult_table, b.dim
    for i in range(d):
        for j in middles:
            for l in range(d):
                left = _sparse_sum((t, c * c2) for k, c in table[i][j]
                                   for t, c2 in table[k][l])
                right = _sparse_sum((t, c * c2) for k, c in table[j][l]
                                    for t, c2 in table[i][k])
                if left != right:
                    yield ("associativity: (e%d e%d) e%d != e%d (e%d e%d)"
                           % (i, j, l, i, j, l))


def _unit(b):
    one, unit = b.field.one(), b.elem_unit()
    for i in range(b.dim):
        e = {i: one}
        if b.elem_mult(unit, e) != e or b.elem_mult(e, unit) != e:
            yield "unit: 1 * e%d or e%d * 1 != e%d" % (i, i, i)


def _coassociativity(b):
    table = b.comult_table
    for i, delta in enumerate(table):
        left = _sparse_sum(((a, bb, k), c * c2) for (j, k, c) in delta
                           for (a, bb, c2) in table[j])
        right = _sparse_sum(((j, a, bb), c * c2) for (j, k, c) in delta
                            for (a, bb, c2) in table[k])
        if left != right:
            yield "coassociativity: at e%d" % i


def _counit(b):
    one = b.field.one()
    for i, delta in enumerate(b.comult_table):
        lc = _sparse_sum((k, c * b.counit[j]) for (j, k, c) in delta)
        rc = _sparse_sum((j, c * b.counit[k]) for (j, k, c) in delta)
        if lc != {i: one} or rc != {i: one}:
            yield "counit: at e%d" % i


def _bialgebra(b):
    """Lemma (ii): decided on the left factor in S when H is associative,
    Delta(1) = 1 (x) 1 and counit(1) = 1."""
    one, unit, gens = b.field.one(), b.elem_unit(), _generators(b)
    if b.elem_comult(unit) != _outer(unit, unit):
        gens = None
        yield "bialgebra: Delta(1) != 1 (x) 1"
    if b.elem_counit(unit) != one:
        gens = None
        yield "bialgebra: counit(1) != 1"
    delta = [b.elem_comult({i: one}) for i in range(b.dim)]

    def multiplicative(lefts):
        for i in lefts:
            for j in range(b.dim):
                prod = b.elem_mult({i: one}, {j: one})
                if b.elem_comult(prod) != b.tensor2_mult(delta[i], delta[j]):
                    yield ("bialgebra: Delta not multiplicative at (e%d, e%d)"
                           % (i, j))
                if b.elem_counit(prod) != b.counit[i] * b.counit[j]:
                    yield ("bialgebra: counit not multiplicative at (e%d, e%d)"
                           % (i, j))

    yield from _decided_on(gens, b.dim, multiplicative)


def _antipode(b):
    one, unit = b.field.one(), b.elem_unit()
    s_basis = [b.elem_antipode({i: one}) for i in range(b.dim)]
    for i, delta in enumerate(b.comult_table):
        left_s = _sparse_sum(
            (t, c * v) for (j, k, c) in delta
            for t, v in b.elem_mult(s_basis[j], {k: one}).items())
        right_s = _sparse_sum(
            (t, c * v) for (j, k, c) in delta
            for t, v in b.elem_mult({j: one}, s_basis[k]).items())
        target = _sparse_sum((t, b.counit[i] * v) for t, v in unit.items())
        if left_s != target or right_s != target:
            yield "antipode: at e%d" % i


def _r_inverse(b):
    unit = b.elem_unit()
    unit2 = _outer(unit, unit)
    R = {(i, j): c for i, j, c in b.R}
    Rinv = {(i, j): c for i, j, c in b.R_inv}
    if b.tensor2_mult(R, Rinv) != unit2 or b.tensor2_mult(Rinv, R) != unit2:
        yield "quasitriangular: R * R_inv != 1 (x) 1"


def _r_intertwines_delta(b):
    one = b.field.one()
    R = {(i, j): c for i, j, c in b.R}
    for i in range(b.dim):
        delta = b.elem_comult({i: one})
        delta_op = {(k, j): c for (j, k), c in delta.items()}
        if b.tensor2_mult(delta_op, R) != b.tensor2_mult(R, delta):
            yield "quasitriangular: Delta_op != R Delta R^-1 at e%d" % i


def _r_delta_left(b):
    R = b.R
    r13_r23 = _sparse_sum(((i, k, kk), c * c2 * cm) for i, j, c in R
                          for k, l, c2 in R for kk, cm in b.mult_table[j][l])
    delta_r = _sparse_sum(((a, bb, j), c * c2) for i, j, c in R
                          for (a, bb, c2) in b.comult_table[i])
    if delta_r != r13_r23:
        yield "quasitriangular: (Delta (x) id)R != R13 R23"


def _r_delta_right(b):
    R = b.R
    r13_r12 = _sparse_sum(((kk, l, j), c * c2 * cm) for i, j, c in R
                          for k, l, c2 in R for kk, cm in b.mult_table[i][k])
    delta_r = _sparse_sum(((i, a, bb), c * c2) for i, j, c in R
                          for (a, bb, c2) in b.comult_table[j])
    if delta_r != r13_r12:
        yield "quasitriangular: (id (x) Delta)R != R13 R12"


def _ribbon(b):
    one, v = b.field.one(), b.ribbon_elem()
    for i in range(b.dim):
        e = {i: one}
        if b.elem_mult(v, e) != b.elem_mult(e, v):
            yield "ribbon: v not central (fails at e%d)" % i
    u = b.drinfeld_u()
    if b.elem_mult(v, v) != b.elem_mult(u, b.elem_antipode(u)):
        yield "ribbon: v^2 != u S(u)"
    if b.elem_antipode(v) != v:
        yield "ribbon: S(v) != v"
    if b.elem_counit(v) != one:
        yield "ribbon: counit(v) != 1"
    R = {(i, j): c for i, j, c in b.R}
    R21 = {(j, i): c for (i, j), c in R.items()}
    monodromy = b.tensor2_mult(R21, R)
    # Delta(v) = (R21 R)^-1 (v (x) v), checked multiplied through.
    if b.tensor2_mult(monodromy, b.elem_comult(v)) != _outer(v, v):
        yield "ribbon: Delta(v) != (R21 R)^-1 (v (x) v)"


def _pivotal(b):
    one, g = b.field.one(), b.pivotal_elem()
    if b.elem_comult(g) != _outer(g, g):
        yield "pivotal: g not group-like"
    if b.elem_counit(g) != one:
        yield "pivotal: counit(g) != 1"
    if b._inverse("pivotal", check=False) is None:
        yield "pivotal: g not invertible"
        return
    for i in range(b.dim):
        e = {i: one}
        s2 = b.elem_antipode(b.elem_antipode(e))
        if b.elem_mult(s2, g) != b.elem_mult(g, e):
            yield "pivotal: S^2 != g(.)g^-1 (fails at e%d)" % i


def _pivotal_ribbon(b):
    if b._inverse("pivotal", check=False) is None:
        return
    vinv = b._inverse("ribbon", check=False)
    if vinv is None:
        yield "ribbon: v not invertible"
    elif b.elem_mult(b.drinfeld_u(), vinv) != b.pivotal_elem():
        yield "pivotal: g != u v^-1"


def _modules(b):
    for name in sorted(b.modules):
        for msg in validate_rep(b, b.modules[name]):
            yield "module:%s: %s" % (name, msg)


# The axioms in checking order: (name, structure the check needs, check).
# A check takes the bundle and reads its tables, and what it shares with
# other checks (S, the inverse of g) through `_memo`.  It is a generator of
# named failures, so a caller that wants only the first failure of an axiom
# stops its work there.
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
    """Decide every Hopf/quasitriangular/ribbon/pivotal axiom.

    Runs `check(b)` for every check of AXIOMS whose structure the bundle
    carries and returns the sorted list of named failures; empty means the
    bundle is a valid input for everything downstream.  Associativity, the
    bialgebra laws and the module laws are decided on the generating set S
    by lemmas (i)-(iii) of the module docstring, whose hypotheses are the
    two-sided unit, (x s) z = x (s z) for s in S, Delta(1) = 1 (x) 1,
    counit(1) = 1 and rho(1) = id.  When a hypothesis fails, or the check on
    S finds a failure, that check runs over every basis element, so the list
    is the one an exhaustive check returns.  Malformed shapes raise
    StructureError at construction instead of appearing here.  `threads` is
    accepted and ignored.
    """
    failures: set[str] = set()
    for _, needs, check in AXIOMS:
        if needs is None or getattr(b, needs):
            failures.update(check(b))
    return sorted(failures)


# ---------------------------------------------------------------------------
# The module category
# ---------------------------------------------------------------------------


def trivial_rep(b: HopfBundle) -> Rep:
    """The tensor unit: H acts through the counit."""
    return _character(b.field, b.counit)


def _character(field: CycField, values) -> Rep:
    """The 1-dimensional module on which e_i acts by the CycNum values[i]."""
    return Rep.from_rows(field, 1, [(() if c.is_zero() else ((0, c),),)
                                    for c in values])


def regular_rep(b: HopfBundle) -> Rep:
    """H acting on itself by left multiplication."""
    return _memo(b, ("regular",),
                 lambda: _regular_module(b.field, b.dim, b.mult))


def _regular_module(field: CycField, d: int, mult) -> Rep:
    """The regular module of the d-dimensional algebra whose products are
    the entries (i, j, k, c) of e_i e_j = sum c e_k: column j of rho(e_i)
    is e_i e_j.  A bundle constructor builds its "reg" module with it."""
    rows = [[[] for _ in range(d)] for _ in range(d)]
    for (i, k, j), c in sorted(_sparse_sum(((i, k, j), c)
                                           for i, j, k, c in mult).items()):
        rows[i][k].append((j, c))
    return Rep.from_rows(field, d, (tuple(map(tuple, r)) for r in rows))


def _action_rows(terms, m: Rep, n: Rep | None = None) -> tuple:
    """The sparse rows of a linear combination of action matrices.

    Without `n`, `terms` are pairs (i, c) and the result is
    sum c * rho_M(e_i); with it, `terms` are triples (i, j, c) and the result
    is sum c * rho_M(e_i) (x) rho_N(e_j) on M (x) N, in the row-major
    convention of `ExactMatrix.kron`.  Only the factors' rows of the basis
    elements in `terms` are read (`Rep.rows_of`), only their nonzero entries
    are visited, and each product c * a is formed once per row of M.
    """
    if n is None:
        acts = [(c, m.rows_of(i)) for i, c in terms]
        return tuple(_sorted_row(_sparse_sum(
            (s, c * a) for c, rows in acts for s, a in rows[r]))
            for r in range(m.dim))
    n_dim = n.dim
    acts = [(c, m.rows_of(i), n.rows_of(j)) for i, j, c in terms]
    out = []
    for r1 in range(m.dim):
        left = [(c * a, s1 * n_dim, n_rows) for c, m_rows, n_rows in acts
                for s1, a in m_rows[r1]]
        out.extend(_sorted_row(_sparse_sum(
            (base + s2, ca * bb) for ca, base, nr in left for s2, bb in nr[r2]))
            for r2 in range(n_dim))
    return tuple(out)


def tensor_rep(b: HopfBundle, m: Rep, n: Rep) -> Rep:
    """Action on M (x) N through the comultiplication, the rows of each
    basis element built on their first read."""
    _check_rep(b, m, n)
    comult = b.comult_table
    return Rep.deferred(b.field, m.dim * n.dim, b.dim,
                        lambda i: _action_rows(comult[i], m, n))


def dual_rep(b: HopfBundle, m: Rep) -> Rep:
    """Left dual: rho*(e_i) = rho(S(e_i))^T, one module per module content,
    the rows of each basis element built on their first read."""
    _check_rep(b, m)
    antipode = b.antipode_cols
    return _memo(b, ("dual", m), lambda: Rep.deferred(
        b.field, m.dim, b.dim,
        lambda i: _transpose(_action_rows(antipode[i], m), m.dim)))


def _constrained(b: HopfBundle):
    """The basis elements an intertwiner-type condition is imposed on: the
    generating set S, by lemma (iv) of the module docstring, or every basis
    element when there is no S."""
    gens = _generators(b)
    return range(b.dim) if gens is None else gens


def _intertwiner_system(b: HopfBundle, m: Rep, n: Rep,
                        nrhs: int = 0) -> LinearSystem:
    """The rows of rho_N(e_i) F - F rho_M(e_i) = 0 on F: M -> N for i in
    `_constrained(b)`, one per entry (r, c) that does not vanish identically,
    with F[s][t] as column s * dim M + t."""
    _check_rep(b, m, n)
    md = m.dim
    sys = LinearSystem(b.field, n.dim * md, nrhs)
    for i in _constrained(b):
        m_cols = _transpose(m.rows_of(i), md)
        for r, n_row in enumerate(n.rows_of(i)):
            for c, m_col in enumerate(m_cols):
                row = _sparse_sum(chain(((s * md + c, a) for s, a in n_row),
                                        ((r * md + t, -a) for t, a in m_col)))
                if row:
                    sys.add_row(row)
    return sys


def _intertwiner_failure(b: HopfBundle, f: ExactMatrix, m: Rep,
                         n: Rep) -> int | None:
    """The first i of all with rho_N(e_i) f != f rho_M(e_i), or None,
    decided on S through `_decided_on`."""
    rows = _sparse_rows(f)

    def failures(indices):
        for i in indices:
            if _sparse_product(n.rows_of(i), rows) != \
                    _sparse_product(rows, m.rows_of(i)):
                yield i
    return next(_decided_on(_generators(b), b.dim, failures), None)


def _commutators(b: HopfBundle) -> tuple:
    """The nonzero coordinate rows of e_i e_j - e_j e_i for i in
    `_constrained(b)` and every j, in that order, each a tuple of
    (index, CycNum) pairs; a pair inside S is taken once, with i < j, and
    with no S, j runs over the elements after i.  By lemma (iv), a form is
    symmetric if and only if it vanishes on every row."""
    table, d = b.mult_table, b.dim

    def build():
        lefts = _constrained(b)
        return tuple(tuple(row.items()) for row in (
            _sparse_sum(chain(table[i][j], ((k, -c) for k, c in table[j][i])))
            for i in lefts for j in range(d) if j > i or j not in lefts)
            if row)
    return _memo(b, ("commutators",), build)


def hom_space(b: HopfBundle, m: Rep, n: Rep) -> list[ExactMatrix]:
    """Exact basis of the intertwiner space {F : rho_N(e_i) F = F rho_M(e_i)}.

    M and N must be modules of b, as `validate_rep` decides.  The
    constraints are stacked for i in the generating set S only (every basis
    element when there is no S), so only those rows of M and N are read; by
    lemma (iv) of the module docstring they cut out the same space.  Matrices
    are dim(N) x dim(M); the basis is the deterministic kernel basis of the
    constraints, which depends only on that space and the column order.
    """
    out = []
    for col in _sparse_cols(_intertwiner_system(b, m, n).kernel()):
        rows = [[] for _ in range(n.dim)]
        for k, v in col:
            r, c = divmod(k, m.dim)
            rows[r].append((c, v))
        out.append(_matrix(b.field, rows, m.dim))
    return out


def braiding(b: HopfBundle, m: Rep, n: Rep) -> ExactMatrix:
    """c_{M,N} = flip o (rho_M (x) rho_N)(R) : M (x) N -> N (x) M.

    The flip moves row a * dim N + b of (rho_M (x) rho_N)(R) to row
    b * dim M + a.
    """
    b.require_r()
    _check_rep(b, m, n)

    def build():
        acc = _action_rows(b.R, m, n)
        rows = [acc[a * n.dim + bb] for bb in range(n.dim) for a in range(m.dim)]
        return _matrix(b.field, rows, m.dim * n.dim)
    return _memo(b, ("braiding", m, n), build)


def braiding_inverse(b: HopfBundle, m: Rep, n: Rep) -> ExactMatrix:
    """(c_{N,M})^-1 = (rho_N (x) rho_M)(R^-1) o flip : M (x) N -> N (x) M.

    The flip moves column b * dim M + a of (rho_N (x) rho_M)(R^-1) to column
    a * dim N + b.
    """
    b.require_r()
    _check_rep(b, m, n)

    def build():
        perm = [(k % m.dim) * n.dim + k // m.dim for k in range(m.dim * n.dim)]
        rows = [{perm[k]: v for k, v in row}
                for row in _action_rows(b.R_inv, n, m)]
        return _matrix(b.field, rows, m.dim * n.dim)
    return _memo(b, ("braiding_inv", m, n), build)


def twist(b: HopfBundle, m: Rep) -> ExactMatrix:
    """The categorical twist theta_M = rho_M(v^-1).

    With the ribbon axiom Delta(v) = (R21 R)^-1 (v (x) v), acting by v^-1 is
    what satisfies theta_{M(x)N} = (theta_M (x) theta_N) o c_{N,M} o c_{M,N}.
    """
    b.require_ribbon()
    _check_rep(b, m)
    return m.act(b.ribbon_inverse())


def twist_inverse(b: HopfBundle, m: Rep) -> ExactMatrix:
    b.require_ribbon()
    _check_rep(b, m)
    return m.act(b.ribbon_elem())


def _free_cover_system(b: HopfBundle, m: Rep):
    """Equations for an H-linear section sigma of H (x) M_vec ->> M.

    The free cover is a module whose coordinate h * dim M + r is
    e_h (x) delta_r and on which e_i acts on the H factor, so the unknown
    sigma[(h, r), c] is column (h * dim M + r) * dim M + c of
    `_intertwiner_system`; the rows pi o sigma = id follow.
    """
    field, md, reg = b.field, m.dim, regular_rep(b)
    free = Rep.deferred(field, reg.dim * md, reg.n_actions, lambda i: tuple(
        tuple((h * md + r, a) for h, a in row)
        for row in reg.rows_of(i) for r in range(md)))
    sys = _intertwiner_system(b, m, free, 1)
    # pi o sigma = id, with pi(e_h (x) delta_r) = rho(e_h) column r
    one = field.one()
    for cp in range(md):
        for c in range(md):
            row = _sparse_sum(((h * md + r) * md + c, a)
                              for h in range(b.dim) for r, a in m.rows[h][cp])
            sys.add_row(row, {0: one} if cp == c else None)
    return sys


def projective_section(b: HopfBundle, m: Rep) -> ExactMatrix | None:
    """H-linear splitting sigma: M -> H (x) M_vec of the free cover, or None.

    The free cover pi(h (x) w) = rho(h) w always surjects; M is projective
    exactly when pi splits H-linearly, decided by exact solve.  M must be a
    module of b, as `validate_rep` decides: H-linearity is imposed on the
    generating set S only (lemma (iv) of the module docstring).  The regular
    representation splits by h -> h (x) delta_1 and is special-cased.
    """

    def build():
        field = b.field
        if m == regular_rep(b):
            unit_idx = [i for i, c in enumerate(b.unit) if not c.is_zero()]
            if len(unit_idx) == 1 and b.unit[unit_idx[0]] == field.one():
                one = field.one()
                return _matrix(field, [((h, one),) if r == unit_idx[0] else ()
                                       for h in range(b.dim)
                                       for r in range(b.dim)], b.dim)
        res = _free_cover_system(b, m).solve()
        if not res.feasible:
            return None
        # entry (h * md + r, c) of the section is unknown (h * md + r) * md + c
        md, part = m.dim, _sparse_rows(res.particular)
        return _matrix(field, [[(c, v) for c in range(md)
                                for _, v in part[s * md + c]]
                               for s in range(b.dim * md)], md)
    return _memo(b, ("proj_section", m), build)


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
        "mult": [[i, j, k, c.to_obj()] for (i, j, k, c) in b.mult],
        "comult": [[i, j, k, c.to_obj()] for (i, j, k, c) in b.comult],
        "counit": [c.to_obj() for c in b.counit],
        "antipode": [[c.to_obj() for c in row] for row in b.antipode.data],
        "pivotal": [c.to_obj() for c in b.pivotal],
        "modules": {
            name: {
                "dim": rep.dim,
                "action": [[i, r, c, v.to_obj()]
                           for i, rows in enumerate(rep.rows)
                           for r, row in enumerate(rows) for c, v in row],
            }
            for name, rep in sorted(b.modules.items())
        },
        "simples": b.simples,
    }
    if b.has_r:
        obj["R"] = [[i, j, c.to_obj()] for (i, j, c) in b.R]
        obj["R_inv"] = [[i, j, c.to_obj()] for (i, j, c) in b.R_inv]
    if b.has_ribbon:
        obj["ribbon"] = [c.to_obj() for c in b.ribbon]
    if b.metadata:
        obj["metadata"] = b.metadata
    return obj


def bundle_from_obj(obj: dict) -> HopfBundle:
    """The bundle of a JSON object.  Its indices are read as ints here, and
    `HopfBundle` decides the shape rules, such as whether an index of
    `mult`, `comult`, `R` or `R_inv` is in range; the module actions are
    bounds-checked here, since they are read into lists."""
    try:
        field = CycField(_parse_index(obj["cyclotomic_order"]))
        dim = _parse_index(obj["dim"])
        if dim < 1:
            raise StructureError("dimension must be >= 1, got %d" % dim)
        ix = _parse_index
        unit = [CycNum.from_obj(c, field) for c in obj["unit"]]
        mult = [(ix(i), ix(j), ix(k), CycNum.from_obj(c, field))
                for (i, j, k, c) in obj["mult"]]
        comult = [(ix(i), ix(j), ix(k), CycNum.from_obj(c, field))
                  for (i, j, k, c) in obj["comult"]]
        counit = [CycNum.from_obj(c, field) for c in obj["counit"]]
        antipode = ExactMatrix(field, [[CycNum.from_obj(c, field) for c in row]
                                       for row in obj["antipode"]])
        pivotal = [CycNum.from_obj(c, field) for c in obj["pivotal"]]
        R, R_inv = ([(ix(i), ix(j), CycNum.from_obj(c, field))
                     for (i, j, c) in obj[key]] if key in obj else None
                    for key in ("R", "R_inv"))
        ribbon = None
        if "ribbon" in obj:
            ribbon = [CycNum.from_obj(c, field) for c in obj["ribbon"]]
        modules = {}
        for name, mobj in obj.get("modules", {}).items():
            mdim = _parse_index(mobj["dim"])
            rows = [[{} for _ in range(mdim)] for _ in range(dim)]
            for (i, r, c, coeff) in mobj["action"]:
                rows[ix(i, dim)][ix(r, mdim)][ix(c, mdim)] = \
                    CycNum.from_obj(coeff, field)
            modules[name] = Rep.from_rows(field, mdim, [
                tuple(_sorted_row(_sparse_sum(row.items())) for row in mat)
                for mat in rows])
        labels = {key: obj.get(key) for key in ("simples", "basis_labels")}
        for key, value in labels.items():
            if value is not None and not (isinstance(value, list) and all(
                    isinstance(s, str) for s in value)):
                raise StructureError("%s must be a list of strings" % key)
        return HopfBundle(
            name=obj.get("name", "bundle"), field=field, dim=dim, unit=unit,
            mult=mult, comult=comult, counit=counit, antipode=antipode,
            pivotal=pivotal, R=R, R_inv=R_inv, ribbon=ribbon, modules=modules,
            metadata=obj.get("metadata"), **labels)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise StructureError("malformed bundle object: %s" % exc) from exc

