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

from itertools import chain

from .cyclo import CycNum, ExactMatrix, LinearSystem, _sparse_sum
from .errors import InadmissibleError, StructureError
from .hopf import (HopfBundle, Rep, dual_rep, hom_space, projective_section,
                   regular_rep, trivial_rep)

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
]


class SLFElem:
    """A symmetric linear form on H; membership is checked, not assumed."""

    __slots__ = ("coords",)

    def __init__(self, b: HopfBundle, coords, check: bool = True):
        self.coords = list(coords)
        if len(self.coords) != b.dim:
            raise StructureError("SLF coordinate length != dim H")
        if check and not is_symmetric_form(b, self.coords):
            raise StructureError("form is not symmetric: f(xy) != f(yx)")

    def evaluate(self, b: HopfBundle, elem: dict) -> CycNum:
        t = b.field.zero()
        for i, c in elem.items():
            t = t + c * self.coords[i]
        return t

    def to_obj(self, b: HopfBundle):
        return [[b.basis_labels[i] + "*", self.coords[i].to_obj()]
                for i in range(b.dim)]

    def __eq__(self, other):
        return isinstance(other, SLFElem) and self.coords == other.coords

    def __repr__(self):
        return "SLFElem(%s)" % (self.coords,)


def is_symmetric_form(b: HopfBundle, coords) -> bool:
    field = b.field
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            s = field.zero()
            for k, c in b.mult_table[i][j]:
                s = s + c * coords[k]
            for k, c in b.mult_table[j][i]:
                s = s - c * coords[k]
            if not s.is_zero():
                return False
    return True


def coadjoint_rep(b: HopfBundle) -> Rep:
    """L as an H-module: (h . f)(x) = f(S(h_2) x h_1)."""
    if "coadjoint" in b._cache:
        return b._cache["coadjoint"]
    field = b.field
    d = b.dim
    one = field.one()
    mats = []
    for i in range(d):
        mat = ExactMatrix.zeros(field, d, d)
        for (j, k, c) in b.comult_table[i]:
            sk = b.elem_antipode({k: one})
            for x in range(d):
                t = b.elem_mult(sk, b.elem_mult({x: one}, {j: one}))
                # (e_i . f)(e_x) = sum_bidx [coeff of e_bidx in S(e_k) e_x e_j] f(e_bidx),
                # so on dual coordinates rho_coad(e_i)[x][bidx] is that coefficient.
                for bidx, coeff in t.items():
                    mat.data[x][bidx] = mat.data[x][bidx] + c * coeff
        mats.append(mat)
    rep = Rep(d, mats)
    b._cache["coadjoint"] = rep
    return rep


def dinat(b: HopfBundle, m: Rep) -> ExactMatrix:
    """The dinatural map i_M : M (x) M* -> L, (m (x) phi) -> phi(rho(-) m).

    Column (a * dim + b) is the matrix coefficient h -> rho_M(e_h)[b][a].
    """
    field = b.field
    out = ExactMatrix.zeros(field, b.dim, m.dim * m.dim)
    for h in range(b.dim):
        mat = m.mats[h]
        row = out.data[h]
        for a in range(m.dim):
            for bb in range(m.dim):
                row[a * m.dim + bb] = mat.data[bb][a]
    return out


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
    for i in range(b.dim):
        for j in range(i + 1, b.dim):
            row = _sparse_sum(chain(b.mult_table[i][j],
                                    ((k, -c) for k, c in b.mult_table[j][i])))
            if row:
                sys.add_row(row)
    kern = sys.kernel()
    basis = [SLFElem(b, kern.col(j)) for j in range(kern.cols)]
    invs = hom_space(b, trivial_rep(b), coadjoint_rep(b))
    if len(invs) != len(basis):
        raise StructureError(
            "SLF dimension %d != coadjoint invariant dimension %d"
            % (len(basis), len(invs)))
    for f in invs:
        if not is_symmetric_form(b, f.col(0)):
            raise StructureError("coadjoint invariant is not a symmetric form")
    return basis


def qchar(b: HopfBundle, m: Rep) -> SLFElem:
    """The q-character of M: the annulus loop colored by M, as a form on H.

    Concretely i_M(coev) = the trace form x -> tr_M(rho(x)); the pivotal
    element enters the loop's evaluation twice with cancelling exponents,
    so no twist survives.  Membership in the SLF space is checked.
    """
    coords = [m.mats[h].trace() for h in range(b.dim)]
    return SLFElem(b, coords)


def canonical_image_dim(b: HopfBundle) -> int:
    """Rank of the span of the simple q-characters: the dimension of the
    image of the classical skein algebra inside the annulus algebra."""
    if not b.simples:
        raise StructureError("bundle has no simple module list")
    rows = [qchar(b, b.module(name)).coords for name in b.simples]
    return ExactMatrix.from_rows(b.field, rows).rank()


# ---------------------------------------------------------------------------
# Factored tensor actions (used by red-to-blue and the surface module)
# ---------------------------------------------------------------------------


def iterated_comult(b: HopfBundle, i: int, m: int) -> list[tuple[tuple, CycNum]]:
    """Delta^{(m)}(e_i) as a sparse list of (index tuple of length m, coeff)."""
    if m < 1:
        raise StructureError("need at least one tensor factor")
    key = ("itcom", m)
    cache = b._cache.setdefault(key, {})
    if i in cache:
        return cache[i]
    if m == 1:
        out = [((i,), b.field.one())]
    else:
        out = list(_sparse_sum(
            ((j,) + tail, c * c2) for (j, k, c) in b.comult_table[i]
            for tail, c2 in iterated_comult(b, k, m - 1)).items())
    cache[i] = out
    return out


def apply_factored_action(b: HopfBundle, factors: list[Rep], i: int,
                          vec: list) -> list:
    """Apply rho_{F1 (x) ... (x) Fm}(e_i) to a dense coordinate vector."""
    field = b.field
    m = len(factors)
    dims = [f.dim for f in factors]
    total = 1
    for dd in dims:
        total *= dd
    out = [field.zero()] * total
    for (idxs, c) in iterated_comult(b, i, m):
        contrib = _contract_blocks(
            field, [f.mats[k] for f, k in zip(factors, idxs)], dims, dims, vec)
        for pos in range(total):
            if not contrib[pos].is_zero():
                out[pos] = out[pos] + c * contrib[pos]
    return out


def _contract_blocks(field, block_mats, dims_in, dims_out, vec):
    """Apply (x)block_mats to vec where block t maps dims_in[t] -> dims_out[t]."""
    cur_dims = list(dims_in)
    for t, mat in enumerate(block_mats):
        if mat is None:
            continue
        left = 1
        for dd in cur_dims[:t]:
            left *= dd
        mid_in = cur_dims[t]
        right = 1
        for dd in cur_dims[t + 1:]:
            right *= dd
        mid_out = dims_out[t]
        out = [field.zero()] * (left * mid_out * right)
        for l in range(left):
            for s in range(mid_in):
                for r in range(right):
                    v = vec[(l * mid_in + s) * right + r]
                    if v.is_zero():
                        continue
                    for rr in range(mid_out):
                        a = mat.data[rr][s]
                        if not a.is_zero():
                            idx = (l * mid_out + rr) * right + r
                            out[idx] = out[idx] + a * v
        vec = out
        cur_dims[t] = mid_out
    return vec


# ---------------------------------------------------------------------------
# Red-to-blue
# ---------------------------------------------------------------------------


def red_to_blue(b: HopfBundle, f: ExactMatrix, p_rep: Rep, k: int,
                x_rep: Rep) -> list[tuple[CycNum, ExactMatrix]]:
    """Resolve the k coend slots of f: P -> L^{(x)k} (x) X through H_reg.

    Returns [(1, fhat)] with fhat: P -> (H (x) H*)^{(x)k} (x) X an H-linear
    lift; composing every resolved slot with the dinatural map of the regular
    representation recomposes to f exactly.  A single term suffices because
    the regular representation's dinatural map is onto.
    """
    field = b.field
    d = b.dim
    coad = coadjoint_rep(b)
    cod_factors = [coad] * k + [x_rep]
    cod_dim = d ** k * x_rep.dim
    if f.rows != cod_dim or f.cols != p_rep.dim:
        raise StructureError("morphism must be %dx%d, got %dx%d"
                             % (cod_dim, p_rep.dim, f.rows, f.cols))

    # intertwiner check (factored on the codomain side, plain on the domain)
    for i in range(b.dim):
        rhs = f * p_rep.mats[i]
        for j in range(p_rep.dim):
            col = [f.data[r][j] for r in range(cod_dim)]
            lhs_col = apply_factored_action(b, cod_factors, i, col)
            for r in range(cod_dim):
                if lhs_col[r] != rhs.data[r][j]:
                    raise StructureError(
                        "morphism is not an intertwiner (fails at e%d)" % i)

    section = projective_section(b, p_rep)
    if section is None:
        raise InadmissibleError("inadmissible: lift requires projectivity")

    if k == 0:
        return [(field.one(), f)]

    reg = regular_rep(b)
    dreg = dual_rep(b, reg)
    lift_factors = []
    for _ in range(k):
        lift_factors.extend([reg, dreg])
    lift_factors.append(x_rep)
    lift_dim = d ** (2 * k) * x_rep.dim

    # linear (non-H-linear) section of the dinatural map: phi -> 1 (x) phi
    unit = b.unit
    sigma0 = ExactMatrix.zeros(field, d * d, d)
    for h in range(d):
        if unit[h].is_zero():
            continue
        for bb in range(d):
            sigma0.data[h * d + bb][bb] = unit[h]
    in_dims = [d] * k + [x_rep.dim]
    out_dims = [d * d] * k + [x_rep.dim]
    w_cols = []
    for j in range(p_rep.dim):
        col = [f.data[r][j] for r in range(cod_dim)]
        w_cols.append(_contract_blocks(field, [sigma0] * k + [None],
                                       in_dims, out_dims, col))

    fhat = ExactMatrix.zeros(field, lift_dim, p_rep.dim)
    md = p_rep.dim
    for r in range(md):
        acc = [field.zero()] * lift_dim
        for h in range(d):
            for j in range(md):
                c = section.data[h * md + j][r]
                if c.is_zero():
                    continue
                moved = apply_factored_action(b, lift_factors, h, w_cols[j])
                for pos in range(lift_dim):
                    if not moved[pos].is_zero():
                        acc[pos] = acc[pos] + c * moved[pos]
        for pos in range(lift_dim):
            fhat.data[pos][r] = acc[pos]
    return [(field.one(), fhat)]


def recompose(b: HopfBundle, terms: list[tuple[CycNum, ExactMatrix]], k: int,
              x_rep: Rep) -> ExactMatrix:
    """Apply dinat(H_reg) in every resolved slot: the inverse direction of
    red_to_blue, used to verify the roundtrip."""
    field = b.field
    d = b.dim
    i_reg = dinat(b, regular_rep(b))
    in_dims = [d * d] * k + [x_rep.dim]
    out_dims = [d] * k + [x_rep.dim]
    acc = None
    for (c, fhat) in terms:
        cols = []
        for j in range(fhat.cols):
            col = [fhat.data[r][j] for r in range(fhat.rows)]
            cols.append(_contract_blocks(field, [i_reg] * k + [None],
                                         in_dims, out_dims, col))
        mat = ExactMatrix.zeros(field, d ** k * x_rep.dim, fhat.cols)
        for j, col in enumerate(cols):
            for r in range(len(col)):
                mat.data[r][j] = col[r]
        mat = mat.scale(c)
        acc = mat if acc is None else acc + mat
    return acc
