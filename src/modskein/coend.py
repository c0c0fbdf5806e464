"""The coend L modeled as H* with the coadjoint action.

For modules over a finite-dimensional Hopf algebra the universal coend of
X (x) X* over the projective ideal is the dual space H* carrying the
coadjoint action

    (h . f)(x) = f(S(h_2) x h_1),

the unique action for which the matrix-coefficient maps
i_M(m (x) phi) = phi(rho_M(-) m) out of M (x) M* are H-linear (with the
mirrored action they are not, as an exact check on any non-cocommutative
bundle shows).  With this convention the invariant vectors Hom(1, L)
coincide on the nose with the symmetric linear forms {f : f(xy) = f(yx)}:
the pivotal twists entering through the duality cancel against the ones in
the dinatural map, so the identification needs no residual twist.  Both
spaces are computed independently and their agreement is asserted.

The q-character of a module -- the image of the module-colored core loop of
the annulus under the canonical map from the classical skein algebra -- is
i_M applied to the coevaluation vector, i.e. the ordinary trace form
x -> tr_M(rho(x)), which is symmetric outright.

The red-to-blue operation resolves coend-colored slots of a morphism
P -> L^{(x)k} (x) X through the regular representation.  The lift exists
because P is projective; it is built constructively from the splitting of
P's free cover (itself found by exact solve) and the linear section
f -> 1 (x) f of the dinatural map, and recomposing with the dinatural maps
returns the input exactly.
"""

from __future__ import annotations

import math
from functools import partial, reduce

from .cyclo import (CycNum, ExactMatrix, LinearSystem, _column_system,
                    _from_cols, _matrix, _sorted_row, _sparse_cols,
                    _sparse_sum)
from .errors import InadmissibleError, StructureError, require_int
from .hopf import (HopfBundle, Rep, _check_rep, _commutators,
                   _intertwiner_failure, _memo, dual_rep, hom_space,
                   projective_section, regular_rep, tensor_rep, trivial_rep)

__all__ = [
    "SLFElem",
    "coadjoint_rep",
    "dinat",
    "slf_basis",
    "is_symmetric_form",
    "qchar",
    "canonical_image_dim",
    "red_to_blue",
    "iterated_comult",
    "apply_factored_action",
    "recompose",
]


class SLFElem:
    """A symmetric linear form f on H, held as the sparse dict `coords` of
    its nonzero values {i: f(e_i)}; membership is checked, not assumed."""

    __slots__ = ("coords",)

    def __init__(self, b: HopfBundle, coords: dict):
        self.coords = dict(coords)
        if any(i not in range(b.dim) for i in self.coords):
            raise StructureError("SLF coordinate index outside range(dim H)")
        if not is_symmetric_form(b, self.coords):
            raise StructureError("form is not symmetric: f(xy) != f(yx)")

    def to_obj(self, b: HopfBundle, render=CycNum.to_obj):
        """[label*, value] per basis element, rendered by `render`."""
        zero = b.field.zero()
        return [[label + "*", render(self.coords.get(i, zero))]
                for i, label in enumerate(b.basis_labels)]

    def __eq__(self, other):
        return isinstance(other, SLFElem) and self.coords == other.coords

    def __repr__(self):
        return "SLFElem(%s)" % (self.coords,)


def is_symmetric_form(b: HopfBundle, coords: dict) -> bool:
    """f(xy) = f(yx) for all x, y, decided on the rows of `_commutators`;
    the form is a sparse {i: f(e_i)} dict."""
    zero = b.field.zero()
    return all(sum((c * coords[k] for k, c in row if k in coords),
                   zero).is_zero() for row in _commutators(b))


def coadjoint_rep(b: HopfBundle) -> Rep:
    """L as an H-module: (h . f)(x) = f(S(h_2) x h_1).

    On dual coordinates, entry (x, t) of rho(e_i) is (e_i . e^t)(e_x), the
    coefficient of e_t in sum c S(e_k) e_x e_j over the terms c e_j (x) e_k
    of Delta(e_i); row x is that one sum, read from the comultiplication,
    antipode and multiplication tables.  The rows of e_i are built when they
    are first read.
    """
    table, antipode, comult, d = (b.mult_table, b.antipode_cols,
                                  b.comult_table, b.dim)

    def action(i):
        return tuple(_sorted_row(_sparse_sum(
            (t, c * c1 * a * c2) for j, k, c in comult[i]
            for y, c1 in table[x][j] for s, a in antipode[k]
            for t, c2 in table[s][y])) for x in range(d))
    return _memo(b, ("coadjoint",),
                 lambda: Rep.deferred(b.field, d, d, action))


def dinat(b: HopfBundle, m: Rep) -> ExactMatrix:
    """The dinatural map i_M : M (x) M* -> L, (m (x) phi) -> phi(rho(-) m).

    Column (a * dim + b) is the matrix coefficient h -> rho_M(e_h)[b][a].
    """
    _check_rep(b, m)
    return _matrix(b.field, [{a * m.dim + bb: v for bb, row in enumerate(rows)
                              for a, v in row} for rows in m.rows],
                   m.dim * m.dim)


def slf_basis(b: HopfBundle) -> list[SLFElem]:
    """Exact basis of {f : f(xy) = f(yx)}.

    Hom(1, L) is computed independently; its dimension must agree and each
    invariant must itself be symmetric -- the two models of the annulus
    skein algebra coincide, and this function asserts both facts.  The
    identification carries no residual pivotal twist in this model (the
    duality twists cancel inside the dinatural maps), so a convention drift
    fails loudly here.
    """
    sys = LinearSystem(b.field, b.dim)
    for row in _commutators(b):
        sys.add_row(dict(row))
    basis = [SLFElem(b, dict(col)) for col in _sparse_cols(sys.kernel())]
    invs = hom_space(b, trivial_rep(b), coadjoint_rep(b))
    if len(invs) != len(basis):
        raise StructureError(
            "SLF dimension %d != coadjoint invariant dimension %d"
            % (len(basis), len(invs)))
    for f in invs:
        if not is_symmetric_form(b, dict(_sparse_cols(f)[0])):
            raise StructureError("coadjoint invariant is not a symmetric form")
    return basis


def qchar(b: HopfBundle, m: Rep) -> SLFElem:
    """The q-character of M: the annulus loop colored by M, as a form on H.

    Concretely i_M(coev) = the trace form x -> tr_M(rho(x)); the pivotal
    element enters the loop's evaluation twice with cancelling exponents,
    so no twist survives.  Membership in the SLF space is checked.  M must
    be a module of b, as `hopf.validate_rep` decides.
    """
    _check_rep(b, m)
    return SLFElem(b, _sparse_sum((i, v) for i, rows in enumerate(m.rows)
                                  for r, row in enumerate(rows)
                                  for c, v in row if c == r))


def canonical_image_dim(b: HopfBundle) -> int:
    """Rank of the span of the simple q-characters: the dimension of the
    image of the classical skein algebra inside the annulus algebra."""
    if not b.simples:
        raise StructureError("bundle has no simple module list")
    return _column_system(b.field, [qchar(b, b.module(name)).coords
                                    for name in b.simples]).rank()


# ---------------------------------------------------------------------------
# Factored tensor actions (used by red-to-blue and the surface module)
# ---------------------------------------------------------------------------


def iterated_comult(b: HopfBundle, i: int, m: int) -> list[tuple[tuple, CycNum]]:
    """Delta^{(m)}(e_i) as a sparse list of (index tuple of length m, coeff)."""
    require_int("m", m)
    if i.__class__ is not int or not 0 <= i < b.dim:
        raise StructureError("e_%r is not a basis element of %r" % (i, b.name))
    if m < 1:
        raise StructureError("need at least one tensor factor")
    if m == 1:
        return [((i,), b.field.one())]
    return _memo(b, ("itcom", i, m), lambda: list(_sparse_sum(
        ((j,) + tail, c * c2) for (j, k, c) in b.comult_table[i]
        for tail, c2 in iterated_comult(b, k, m - 1)).items()))


def apply_factored_action(b: HopfBundle, factors: list[Rep], i: int,
                          vec: dict) -> dict:
    """Apply rho_{F1 (x) ... (x) Fm}(e_i) to a sparse vector {pos: CycNum}.

    Returns the image as a sparse vector; positions are row-major in the
    factors, as in `ExactMatrix.kron`.  A factor on which e_k acts by the
    identity is skipped.  An index i outside range(dim H) is refused.
    """
    dims = [f.dim for f in factors]
    blocks = [_action_blocks(b, f) for f in factors]
    return _sparse_sum(
        (pos, c * v) for idxs, c in iterated_comult(b, i, len(factors))
        for pos, v in _contract_blocks(
            [blk[k] for blk, k in zip(blocks, idxs)], dims, dims,
            vec).items())


def _action_blocks(b: HopfBundle, f: Rep) -> tuple:
    """Per basis element e_k, the sparse columns of rho_F(e_k), or None
    where e_k acts by the identity (decided on the rows, once per module)."""
    def build():
        one = b.field.one()
        ident = tuple(((r, one),) for r in range(f.dim))
        return tuple(None if rows == ident else cols
                     for rows, cols in zip(f.rows, f.cols))
    return _memo(b, ("action_blocks", f), build)


def _contract_blocks(block_cols, dims_in, dims_out, vec: dict) -> dict:
    """Apply (x)blocks to the sparse vector vec, block t mapping dims_in[t]
    to dims_out[t].  A block is given by its sparse columns, or is None for
    the identity."""
    cur_dims = list(dims_in)
    for t, cols in enumerate(block_cols):
        if cols is None:
            continue
        right = math.prod(cur_dims[t + 1:])
        vec = _sparse_sum(_block_terms(vec, cols, cur_dims[t], dims_out[t],
                                       right))
        cur_dims[t] = dims_out[t]
    return vec


def _block_terms(vec: dict, cols, mid_in: int, mid_out: int, right: int):
    """The terms of one block applied to vec: position (l, s, r) goes to
    (l, rr, r) with weight cols[s][rr]."""
    for pos, v in vec.items():
        ls, r = divmod(pos, right)
        l, s = divmod(ls, mid_in)
        base = l * mid_out * right + r
        for rr, a in cols[s]:
            yield base + rr * right, a * v


# ---------------------------------------------------------------------------
# Red-to-blue
# ---------------------------------------------------------------------------


def red_to_blue(b: HopfBundle, f: ExactMatrix, p_rep: Rep, k: int,
                x_rep: Rep) -> list[tuple[CycNum, ExactMatrix]]:
    """Resolve the k coend slots of f: P -> L^{(x)k} (x) X through H_reg.

    Returns [(1, fhat)] with fhat: P -> (H (x) H*)^{(x)k} (x) X an H-linear
    lift; composing every resolved slot with the dinatural map of the regular
    representation recomposes to f exactly.  A single term suffices because
    the regular representation's dinatural map is onto.  P and X must be
    modules of b, as `hopf.validate_rep` decides: f is checked against the
    product L (x) ... (x) L (x) X, nested to the left, by
    `hopf._intertwiner_failure`, which reads only the rows of S when f
    passes and otherwise names the first failing basis element of all.
    """
    require_int("k", k)
    if k < 0:
        raise StructureError("k must be >= 0")
    field, d = b.field, b.dim
    cod = reduce(partial(tensor_rep, b), [coadjoint_rep(b)] * k + [x_rep])
    if f.rows != cod.dim or f.cols != p_rep.dim:
        raise StructureError("morphism must be %dx%d, got %dx%d"
                             % (cod.dim, p_rep.dim, f.rows, f.cols))
    failing = _intertwiner_failure(b, f, p_rep, cod)
    if failing is not None:
        raise StructureError(
            "morphism is not an intertwiner (fails at e%d)" % failing)

    section = projective_section(b, p_rep)
    if section is None:
        raise InadmissibleError("inadmissible: lift requires projectivity")

    if k == 0:
        return [(field.one(), f)]

    reg = regular_rep(b)
    reg_dual = dual_rep(b, reg)
    lift_factors = [reg, reg_dual] * k + [x_rep]
    lift_dim = d ** (2 * k) * x_rep.dim

    f_cols = [dict(col) for col in _sparse_cols(f)]
    # linear (non-H-linear) section of the dinatural map: phi -> 1 (x) phi,
    # as sparse columns: column bb is sum_h unit_h e_(h * d + bb)
    unit = b.elem_unit().items()
    sigma0 = [tuple((h * d + bb, u) for h, u in unit) for bb in range(d)]
    w_cols = [_contract_blocks([sigma0] * k + [None],
                               [d] * k + [x_rep.dim],
                               [d * d] * k + [x_rep.dim], col)
              for col in f_cols]

    # column r of fhat is sum_(h, j) section[h * md + j][r] e_h . w_j
    md = p_rep.dim
    fhat_cols = [
        _sparse_sum((pos, c * v) for s, c in sec_col
                    for pos, v in apply_factored_action(
                        b, lift_factors, s // md, w_cols[s % md]).items())
        for sec_col in _sparse_cols(section)]
    return [(field.one(), _from_cols(field, [c.items() for c in fhat_cols],
                                     lift_dim))]


def recompose(b: HopfBundle, terms: list[tuple[CycNum, ExactMatrix]], k: int,
              x_rep: Rep) -> ExactMatrix:
    """Apply dinat(H_reg) in every resolved slot: the inverse direction of
    red_to_blue, used to verify the roundtrip."""
    if not terms:
        raise StructureError("empty term list has no morphism to recompose")
    require_int("k", k)
    if k < 0:
        raise StructureError("k must be >= 0")
    d = b.dim
    blocks = [_sparse_cols(dinat(b, regular_rep(b)))] * k + [None]
    in_dims = [d * d] * k + [x_rep.dim]
    out_dims = [d] * k + [x_rep.dim]
    term_cols = [(c, _sparse_cols(fhat)) for c, fhat in terms]
    cols = [_sparse_sum((pos, c * v) for c, fcols in term_cols
                        for pos, v in _contract_blocks(
                            blocks, in_dims, out_dims, dict(fcols[j])).items())
            for j in range(terms[0][1].cols)]
    return _from_cols(b.field, [c.items() for c in cols], d ** k * x_rep.dim)
