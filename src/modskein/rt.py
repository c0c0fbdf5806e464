"""Colored ribbon graphs in the thickened disk and their evaluation.

A Diagram is a sliced word in the strict ribbon signature: a sequence of
horizontal slices, each a tensor list of generators (identities, cups, caps,
braidings, twists, coupons).  Boundary points are (module, orientation)
pairs; a "-" point is realized by the left dual.  Evaluation is functorial
(slices compose by matrix product) and monoidal (horizontal juxtaposition is
a Kronecker product), which is the whole content of the strictified
Reshetikhin-Turaev evaluation on disks.

Every generator but the coupon is one row of a table: `_STRANDS` gives a
kind's point count and its matrix on the realized points, and `_PAIRINGS`
gives a duality pairing's two signs, whether it is a row (an evaluation) or
a column, and the element it acts by.  A slice's matrix is memoised per
bundle by content, the kinds and modules of its generators, unless it
holds a coupon; a wrapper bound over a `hopf` name is called only when a
slice is built, on a memo miss.  Duality conventions (fixed by the
zig-zag identities):
    Ev(M):      M* (x) M  -> 1      phi (x) m -> phi(m)
    Coev(M):    1 -> M (x) M*       1 -> sum e_a (x) e^a
    EvPiv(M):   M (x) M* -> 1       m (x) phi -> phi(g m)
    CoevPiv(M): 1 -> M* (x) M       1 -> sum e^a (x) g^-1 e_a

One boundary-normal convention is hard-coded ("+" realizes the module, "-"
its left dual, reading bottom to top).  If a bundle/diagram pair ever fails
only the zig-zag identities, suspect the opposite normal convention on the
data's side; the engine records that diagnosis in the error text rather
than trying to auto-resolve it.
"""

from __future__ import annotations

from .cyclo import (CycNum, ExactMatrix, _matrix, _sparse_product,
                    _sparse_rows, _transpose)
from .errors import InadmissibleError, StructureError, TypingError
from .hopf import (HopfBundle, Rep, _action_rows, _intertwiner_failure,
                   _memo, braiding, braiding_inverse, dual_rep, hom_space,
                   is_projective, tensor_rep, trivial_rep, twist, twist_inverse)

__all__ = [
    "Point",
    "Generator",
    "Diagram",
    "SkeinVector",
    "evaluate",
    "skein_module_disk",
    "skein_eq",
    "boundary_rep",
    "diagram_from_obj",
]


class Point(tuple):
    """An oriented boundary point: (module name, '+' or '-')."""

    def __new__(cls, name: str, sign: str):
        if sign not in ("+", "-"):
            raise StructureError("orientation must be '+' or '-', got %r" % sign)
        return super().__new__(cls, (name, sign))

    @property
    def sign(self):
        return self[1]


def _realize(b: HopfBundle, pt: Point) -> Rep:
    rep = b.module(pt[0])
    if pt[1] == "-":
        return dual_rep(b, rep)
    return rep


# The generators of the strict ribbon signature.  A strand maps its points
# to the same points reversed: kind -> (point count, its matrix from the
# bundle and the realized points).  A pairing takes one "+" point, and is
# built on the module that point names: kind -> (the signs of its two
# points, written as a row, the element A it acts by or None for the
# identity), as in the module docstring.  Entries call the `hopf` functions
# by their global names, so a wrapper bound over such a name later is the
# one called, whenever a slice is built: slices are memoised per bundle by
# content (`_slice_matrix`), so only a memo miss calls them.
_STRANDS = {
    "id": (1, lambda b, m: ExactMatrix.identity(b.field, m.dim)),
    "twist": (1, lambda b, m: twist(b, m)),
    "twist_inv": (1, lambda b, m: twist_inverse(b, m)),
    "braid": (2, lambda b, m, n: braiding(b, m, n)),
    "braid_inv": (2, lambda b, m, n: braiding_inverse(b, m, n)),
}
_PAIRINGS = {
    "ev": ("-+", True, None),
    "coev": ("+-", False, None),
    "ev_piv": ("+-", True, HopfBundle.pivotal_elem),
    "coev_piv": ("-+", False, HopfBundle.pivotal_inverse),
}
GENERATOR_KINDS = tuple(_STRANDS) + tuple(_PAIRINGS) + ("coupon",)


class Generator:
    """One strand-level generator inside a slice.

    kind: one of GENERATOR_KINDS; points: the oriented points it refers to,
    as many as its table row says; coupons carry explicit dom/cod point
    lists and an intertwiner matrix.
    """

    __slots__ = ("kind", "points", "dom", "cod", "matrix")

    def __init__(self, kind, points=(), dom=None, cod=None, matrix=None):
        if kind not in GENERATOR_KINDS:
            raise StructureError("unknown generator kind %r" % kind)
        self.kind = kind
        self.points = tuple(Point(*p) for p in points)
        if kind == "coupon":
            self.dom = tuple(Point(*p) for p in (dom or ()))
            self.cod = tuple(Point(*p) for p in (cod or ()))
            if not isinstance(matrix, ExactMatrix):
                raise StructureError("coupon needs an ExactMatrix color")
            self.matrix = matrix
            return
        want = _STRANDS[kind][0] if kind in _STRANDS else 1
        if len(self.points) != want:
            raise StructureError("generator %r takes %d point(s), got %d"
                                 % (kind, want, len(self.points)))
        if kind in _PAIRINGS and self.points[0].sign != "+":
            raise StructureError("pairing %r takes a '+' point naming its "
                                 "module, got %r" % (kind, self.points[0]))
        self.dom, self.cod, self.matrix = None, None, None

    # -- typing ----------------------------------------------------------------

    def signature(self) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
        """(domain points, codomain points)."""
        if self.kind in _STRANDS:
            return self.points, self.points[::-1]
        if self.kind in _PAIRINGS:
            signs, as_row, _ = _PAIRINGS[self.kind]
            pts = tuple(Point(self.points[0][0], s) for s in signs)
            return (pts, ()) if as_row else ((), pts)
        return self.dom, self.cod

    def __repr__(self):
        if self.kind == "coupon":
            return "Coupon(%s -> %s)" % (list(self.dom), list(self.cod))
        return "%s%s" % (self.kind, list(self.points))


def _pairing(b: HopfBundle, m: Rep, as_row: bool, elem) -> ExactMatrix:
    """The pairing whose entry c * dim + a is A[a][c], for A = rho_M(elem(b))
    or the identity, as one row (an evaluation) or one column."""
    if elem is None:
        a_rows = [((a, b.field.one()),) for a in range(m.dim)]
    else:
        a_rows = _action_rows(elem(b).items(), m)
    entries = [(c * m.dim + a, v) for a, row in enumerate(a_rows)
               for c, v in row]
    size = m.dim * m.dim
    if as_row:
        return _matrix(b.field, [dict(entries)], size)
    return _matrix(b.field, _transpose([entries], size), 1)


def _generator_matrix(b: HopfBundle, gen: Generator) -> ExactMatrix:
    if gen.kind in _STRANDS:
        return _STRANDS[gen.kind][1](b, *(_realize(b, p) for p in gen.points))
    if gen.kind in _PAIRINGS:
        _, as_row, elem = _PAIRINGS[gen.kind]
        return _pairing(b, b.module(gen.points[0][0]), as_row, elem)
    return gen.matrix


class Diagram:
    """A sliced I-colored ribbon graph in the thickened disk."""

    def __init__(self, bottom, top, slices, admissible: bool = False):
        self.bottom = tuple(Point(*p) for p in bottom)
        self.top = tuple(Point(*p) for p in top)
        self.slices = [list(sl) for sl in slices]
        self.admissible = admissible

    def check_types(self, b: HopfBundle) -> None:
        """Slice-to-slice boundary typing; raises TypingError naming the slice."""
        current = self.bottom
        for idx, sl in enumerate(self.slices):
            dom = []
            cod = []
            for gen in sl:
                gd, gc = gen.signature()
                dom.extend(gd)
                cod.extend(gc)
            if tuple(dom) != tuple(current):
                raise TypingError(idx, "expected input %s, found %s"
                                  % (list(current), dom))
            for gen in sl:
                if gen.kind == "coupon":
                    self._check_coupon(b, idx, gen)
            current = tuple(cod)
        if current != self.top:
            raise TypingError(len(self.slices),
                              "diagram output %s does not match top boundary %s"
                              % (list(current), list(self.top)))
        if self.admissible:
            for pt in set(self.bottom) | set(self.top) | {
                    p for sl in self.slices for g in sl for p in g.points}:
                if not is_projective(b, b.module(pt[0])):
                    raise InadmissibleError(
                        "admissible diagram colored by non-projective %r" % pt[0])

    def _check_coupon(self, b: HopfBundle, idx: int, gen: Generator) -> None:
        dom_rep = boundary_rep(b, gen.dom)
        cod_rep = boundary_rep(b, gen.cod)
        mat = gen.matrix
        if mat.rows != cod_rep.dim or mat.cols != dom_rep.dim:
            raise TypingError(idx, "coupon matrix is %dx%d, expected %dx%d"
                              % (mat.rows, mat.cols, cod_rep.dim, dom_rep.dim))
        if _intertwiner_failure(b, mat, dom_rep, cod_rep) is not None:
            raise TypingError(idx, "coupon color is not an intertwiner")

    def __repr__(self):
        return "Diagram(%s -> %s, %d slices)" % (
            list(self.bottom), list(self.top), len(self.slices))


def boundary_rep(b: HopfBundle, points) -> Rep:
    """Tensor product of the realized boundary colors (trivial if empty).

    Its action rows are built only when read, so `.dim` costs no product."""
    reps = [_realize(b, Point(*p)) for p in points]
    if not reps:
        return trivial_rep(b)
    out = reps[0]
    for rep in reps[1:]:
        out = tensor_rep(b, out, rep)
    return out


def _slice_matrix(b: HopfBundle, sl) -> ExactMatrix:
    """The Kronecker product of a slice's generator matrices.

    A slice without coupons is memoised per bundle, keyed by each
    generator's kind and its points as (module, sign) pairs: the module a
    name points to, never its realized dual, so a key is hashed without
    building a dual's rows.  A coupon's colour is not in the key, so a slice
    that holds one is built every time.
    """
    def build():
        mat = None
        for gen in sl:
            gmat = _generator_matrix(b, gen)
            mat = gmat if mat is None else mat.kron(gmat)
        return ExactMatrix.identity(b.field, 1) if mat is None else mat

    if any(gen.kind == "coupon" for gen in sl):
        return build()
    return _memo(b, ("slice", tuple(
        (gen.kind, tuple((b.module(name), sign) for name, sign in gen.points))
        for gen in sl)), build)


def evaluate(b: HopfBundle, diagram: Diagram) -> ExactMatrix:
    """The Reshetikhin-Turaev evaluation of a sliced diagram.

    Functorial in vertical stacking and monoidal in horizontal juxtaposition;
    typing errors name the offending slice.
    """
    diagram.check_types(b)
    field = b.field
    dim = boundary_rep(b, diagram.bottom).dim
    total = None  # sparse rows of the slices composed so far
    for sl in diagram.slices:
        rows = _sparse_rows(_slice_matrix(b, sl))
        total = rows if total is None else _sparse_product(rows, total)
    if total is None:
        return ExactMatrix.identity(field, dim)
    return _matrix(field, total, dim)


class SkeinVector:
    """A formal k-linear combination of diagrams with equal boundaries."""

    def __init__(self, terms):
        self.terms = [(c, d) for (c, d) in terms]
        if self.terms:
            b0, t0 = self.terms[0][1].bottom, self.terms[0][1].top
            for _, d in self.terms[1:]:
                if d.bottom != b0 or d.top != t0:
                    raise StructureError("skein vector mixes boundaries")

    def boundaries(self):
        if not self.terms:
            return None
        return self.terms[0][1].bottom, self.terms[0][1].top

    def evaluate(self, b: HopfBundle) -> ExactMatrix:
        if not self.terms:
            raise StructureError("empty skein vector has no boundary")
        first, *rest = (evaluate(b, d).scale(c) for c, d in self.terms)
        return sum(rest, first)


def skein_eq(b: HopfBundle, s1: SkeinVector, s2: SkeinVector) -> bool:
    """The admissible skein relation: equality after RT evaluation, exactly."""
    if s1.boundaries() != s2.boundaries():
        raise StructureError("skein vectors have different boundaries")
    return s1.evaluate(b) == s2.evaluate(b)


def skein_module_disk(b: HopfBundle, bottom, top) -> list[ExactMatrix]:
    """Basis of the relative admissible skein module of the disk.

    For the disk this is the intertwiner space between the ordered tensor
    products of the realized boundary colors.  The doubly-empty boundary is
    inadmissible: only the distinguished (non-representable) presheaf lives
    there, not an honest object.
    """
    bottom = tuple(Point(*p) for p in bottom)
    top = tuple(Point(*p) for p in top)
    if not bottom and not top:
        raise InadmissibleError("inadmissible: no I-colored boundary")
    return hom_space(b, boundary_rep(b, bottom), boundary_rep(b, top))


# ---------------------------------------------------------------------------
# Diagram file format
# ---------------------------------------------------------------------------


def diagram_from_obj(b: HopfBundle, obj: dict) -> Diagram:
    """The diagram of a JSON object, as `rt-eval` reads it; the format is
    read only.  A coupon names its map by coordinates (`coeffs`) or a basis
    `index` in the hom space of its boundaries; a `bundle_ref` key is
    never read.  A malformed object is a StructureError."""
    try:
        slices = []
        for sl in obj["slices"]:
            row = []
            for gobj in sl:
                kind = gobj["kind"]
                if kind == "coupon":
                    dom = [Point(*p) for p in gobj["dom"]]
                    cod = [Point(*p) for p in gobj["cod"]]
                    dom_rep = boundary_rep(b, dom)
                    cod_rep = boundary_rep(b, cod)
                    basis = hom_space(b, dom_rep, cod_rep)
                    if "index" in gobj:
                        index = gobj["index"]
                        if (not isinstance(index, int)
                                or isinstance(index, bool)
                                or not 0 <= index < len(basis)):
                            raise StructureError(
                                "coupon index %r is not an int in [0, %d)"
                                % (index, len(basis)))
                        coeffs = [b.field.zero()] * len(basis)
                        coeffs[index] = b.field.one()
                    elif isinstance(gobj["coeffs"], list):
                        coeffs = [CycNum.from_obj(c, b.field)
                                  for c in gobj["coeffs"]]
                    else:
                        raise StructureError("coupon coeffs must be a list")
                    if len(coeffs) != len(basis):
                        raise StructureError(
                            "coupon has %d coefficients for a %d-dim hom space"
                            % (len(coeffs), len(basis)))
                    mat = ExactMatrix.zeros(b.field, cod_rep.dim, dom_rep.dim)
                    for c, basis_mat in zip(coeffs, basis):
                        mat = mat + basis_mat.scale(c)
                    row.append(Generator("coupon", dom=dom, cod=cod, matrix=mat))
                else:
                    row.append(Generator(kind, points=[Point(*p)
                                                       for p in gobj["points"]]))
            slices.append(row)
        admissible = obj.get("admissible", False)
        if not isinstance(admissible, bool):
            raise StructureError("diagram admissible must be true or false, "
                                 "got %r" % (admissible,))
        return Diagram(bottom=[Point(*p) for p in obj["bottom"]],
                       top=[Point(*p) for p in obj["top"]],
                       slices=slices, admissible=admissible)
    except (LookupError, TypeError, ValueError, AttributeError) as exc:
        raise StructureError("malformed diagram object: %s" % exc) from exc

