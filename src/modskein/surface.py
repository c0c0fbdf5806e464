"""Modified skein algebras of punctured surfaces as invariants of the coend.

For a connected genus-g surface with n >= 1 punctures the modified skein
algebra is Hom(1, L^{(x)(2g+n-1)}) with the product of the braided tensor
powers of the coend algebra L.  The coend multiplication is characterized by

    mu o (i_X (x) i_Y) = i_{X(x)Y} o (id_X (x) c_{X*, Y(x)Y*})

with (X (x) Y)* identified with Y* (x) X*; instantiating X = Y = H_reg and
splitting i_H by f -> 1 (x) f makes mu an explicit finite sum over the
R-matrix and the comultiplication.  Tensor powers multiply factor-wise with
the positive braiding mediating the middle swap; the algebra-vs-opposite
ambiguity left by the mirror braiding choice is documented, not resolved.

`skalg(g, n)` depends on (g, n) only through m = 2g + n - 1: a handle's two
loops get the braided product of two more punctures, so (1, 1) and (0, 3)
give the same algebra, though factorization homology tells them apart.

The product of L^{(x)m} is kept as sparse columns: for basis vectors e_i,
e_j of L^{(x)m}, `_power_mult(b, m)[(i, j)]` is e_i e_j as a {k: CycNum} dict,
present only when nonzero.  Each column is summed straight from the
definition above out of the columns of mu, of mu_{m-1} and of the braiding;
no identity factor or dense product of the tensor powers is formed.

Every step after the invariant basis walks nonzero entries only, so its cost
is the number of products of nonzero constants, not a power of the
dimension: `_power_mult` pairs each nonzero braiding entry with the nonzero
columns of mu and mu_{m-1} it meets, `skalg` solves only for the nonzero
products of invariants, and `check_associativity` multiplies each nonzero
structure constant by the nonzero constants it meets, instead of visiting
all d^3 triples of a d-dimensional algebra.
"""

from __future__ import annotations

from itertools import product

from .cyclo import (ExactMatrix, _column_system, _matrix, _solve_in_basis,
                    _sparse_cols, _sparse_sum)
from .errors import StructureError, require_int
from .hopf import (HopfBundle, Rep, _memo, braiding, hom_space, tensor_rep,
                   trivial_rep)
from .coend import coadjoint_rep, qchar

__all__ = [
    "AlgebraPresentation",
    "coend_mult",
    "skalg",
    "skalg_dimension",
    "char_map",
    "algebra_to_obj",
]


def coend_mult(b: HopfBundle) -> ExactMatrix:
    """The multiplication L (x) L -> L of the coend algebra, as a d x d^2 matrix.

    Column (i*d + j) is the product e^i * e^j evaluated on the basis of H:

        (e^i * e^j)(h) = sum_{R, Delta beta, Delta h}
            e^i(S(alpha) h_1) e^j(S(beta_2) h_2 beta_1)

    which is the section-free unwinding of the defining composite above.
    With R = alpha (x) beta and the coadjoint action
    (beta . f)(x) = f(S(beta_2) x beta_1) it reads

        (e^i * e^j)(h) = sum_R sum_(h) e^i(S(alpha) h_1) (beta . e^j)(h_2),

    so row h pairs the coefficients of S(alpha) h_1 with row h_2 of the
    action of beta in `coadjoint_rep`, which keeps the coadjoint formula in
    one place.
    """
    b.require_r()

    def build():
        d, one = b.dim, b.field.one()
        coad = coadjoint_rep(b)
        r_terms = b.R
        s_alpha_h = {alpha: [b.elem_mult(b.elem_antipode({alpha: one}),
                                         {h: one}) for h in range(d)]
                     for alpha in {alpha for alpha, _, _ in r_terms}}
        return _matrix(b.field, [_sparse_sum(
            (i * d + j, c_r * c_h * u * w) for alpha, beta, c_r in r_terms
            for h1, h2, c_h in b.comult_table[h]
            for i, u in s_alpha_h[alpha][h1].items()
            for j, w in coad.rows_of(beta)[h2]) for h in range(d)], d * d)
    return _memo(b, ("coend_mult",), build)


def _power_rep(b: HopfBundle, m: int) -> Rep:
    """L^{(x)m}, built as L^{(x)(m-1)} (x) L."""
    return _memo(b, ("coend_power", m), lambda: coadjoint_rep(b) if m == 1
                 else tensor_rep(b, _power_rep(b, m - 1), coadjoint_rep(b)))


def _power_mult(b: HopfBundle, m: int) -> dict:
    """mu_m : L^{(x)m} (x) L^{(x)m} -> L^{(x)m} as sparse columns.

    mu_m = (mu (x) mu_{m-1}) o (id_L (x) c_{L^{m-1}, L} (x) id_{L^{m-1}}).
    The result maps (i, j) to e_i e_j as a {k: CycNum} dict, for nonzero
    products only; for m = 1 these are the columns of `coend_mult`.  For
    m > 1, with D = d^(m-1), column (a*D + r, b*D + s) sums, over the nonzero
    entries (b'*D + r', c) of column r*d + b of c_{L^{m-1}, L}, the sparse
    tensor products c * mu[(a, b')] (x) mu_{m-1}[(r', s)] (keys k1*D + k2).
    """

    def build():
        d = b.dim
        if m == 1:
            return {divmod(c, d): dict(col)
                    for c, col in enumerate(_sparse_cols(coend_mult(b))) if col}
        mu, prev = _power_mult(b, 1), _power_mult(b, m - 1)
        swap = braiding(b, _power_rep(b, m - 1), coadjoint_rep(b))
        swap_cols = _sparse_cols(swap)
        dm1 = d ** (m - 1)
        mu_by_second, prev_by_first = _index_pairs(mu, 1), _index_pairs(prev, 0)
        # one sum keyed (column, k); per column the terms come in the order
        # (t, k1, k2) of the definition, and columns are then sorted
        terms = _sparse_sum(
            (((a * dm1 + r, bb * dm1 + s), k1 * dm1 + k2), c * c1 * c2)
            for r, bb in product(range(dm1), range(d))
            for t, c in swap_cols[r * d + bb]
            for a, col1 in mu_by_second.get(t // dm1, ())
            for s, col2 in prev_by_first.get(t % dm1, ())
            for k1, c1 in col1.items() for k2, c2 in col2.items())
        cols: dict = {}
        for (key, k), v in terms.items():
            cols.setdefault(key, {})[k] = v
        return {key: cols[key] for key in sorted(cols)}
    return _memo(b, ("coend_power_mult", m), build)


def _index_pairs(cols: dict, side: int) -> dict:
    """Nonzero sparse columns {(i, j): col} indexed by one factor: for
    side 0, i -> [(j, col), ...]; for side 1, j -> [(i, col), ...]."""
    index: dict = {}
    for pair, col in cols.items():
        if col:
            index.setdefault(pair[side], []).append((pair[1 - side], col))
    return index


def _apply_mu(cols: dict, x: dict, y: dict) -> dict:
    """The product of sparse vectors x and y under sparse columns `cols`
    (as built by `_power_mult`, or structure constants): the sum of
    x_i y_j cols[(i, j)]."""
    none = {}
    return _sparse_sum((k, a * bb * c) for i, a in x.items()
                       for j, bb in y.items()
                       for k, c in cols.get((i, j), none).items())


class AlgebraPresentation:
    """Basis, exact structure constants and unit of a computed skein algebra.

    Each vector is a sparse {k: CycNum} dict without zero values:
    `basis_vectors[t]` is v_t in L^{(x)m}, of dimension `ambient_dim`, and
    `structure[(i, j)]`, the product v_i v_j, and `unit_coords`, the unit,
    are written in the basis v.
    """

    def __init__(self, bundle_name, g, n, basis_vectors, structure,
                 unit_coords, *, field, ambient_dim):
        self.bundle_name = bundle_name
        self.g = g
        self.n = n
        self.basis_vectors = basis_vectors  # list of {k: CycNum} in L^m
        self.structure = structure          # dict[(i, j)] -> {k: CycNum}
        self.unit_coords = unit_coords      # {k: CycNum}
        self.field = field
        self.ambient_dim = ambient_dim

    @property
    def dim(self) -> int:
        return len(self.basis_vectors)

    # -- law checks (all exact) ---------------------------------------------

    def check_unit(self) -> bool:
        mu, unit, one = self.structure, self.unit_coords, self.field.one()
        return all(_apply_mu(mu, unit, e) == e == _apply_mu(mu, e, unit)
                   for e in ({i: one} for i in range(self.dim)))

    def check_associativity(self) -> bool:
        """(v_i v_j) v_k == v_i (v_j v_k) for every triple, expanded through
        the structure constants.

        Both sides of all triples are summed at once, keyed (i, j, k, s):
        each nonzero v_i v_j = sum c v_t meets the nonzero v_t v_k, and each
        nonzero v_j v_k = sum c v_t meets the nonzero v_i v_t.  A triple
        whose two sides vanish contributes no key, so the cost is the number
        of products of nonzero constants, not d^3.
        """
        st = self.structure
        by_first, by_second = _index_pairs(st, 0), _index_pairs(st, 1)
        left = _sparse_sum(((i, j, k, s), c * c2)
                           for (i, j), col in st.items()
                           for t, c in col.items()
                           for k, col2 in by_first.get(t, ())
                           for s, c2 in col2.items())
        right = _sparse_sum(((i, j, k, s), c * c2)
                            for (j, k), col in st.items()
                            for t, c in col.items()
                            for i, col2 in by_second.get(t, ())
                            for s, c2 in col2.items())
        return left == right

    def is_commutative(self) -> bool:
        st = self.structure
        return all(st[(i, j)] == st[(j, i)]
                   for i in range(self.dim) for j in range(self.dim))

    def __repr__(self):
        return "AlgebraPresentation(%s, g=%d, n=%d, dim=%d)" % (
            self.bundle_name, self.g, self.n, self.dim)


def skalg_dimension(b: HopfBundle, g: int, n: int) -> int:
    """dim Hom(1, L^{(x)(2g+n-1)}), available on pivotal-only bundles too."""
    m = _surface_power(g, n)
    return len(hom_space(b, trivial_rep(b), _power_rep(b, m)))


def _surface_power(g: int, n: int) -> int:
    require_int("g", g)
    require_int("n", n)
    if n < 1:
        raise StructureError(
            "closed surfaces (n = 0) are unsupported: the invariants-of-coend "
            "formula needs at least one puncture")
    if g < 0:
        raise StructureError("genus must be non-negative")
    m = 2 * g + n - 1
    if m < 1:
        raise StructureError(
            "need 2g + n - 1 >= 1 (the disk g=0, n=1 has no coend factor)")
    return m


def skalg(b: HopfBundle, g: int, n: int, threads: int = 1) -> AlgebraPresentation:
    """The modified skein algebra of the genus-g surface with n punctures.

    Computes the exact invariant basis of L^{(x)(2g+n-1)}, restricts the
    braided-power product to it (closure is asserted), and returns the
    presentation with the coordinates of eps^{(x)m} as the unit.  Requires a
    quasitriangular bundle; n = 0 is out of scope.  `threads` is accepted
    and ignored.
    """
    m = _surface_power(g, n)
    b.require_r()
    power = _power_rep(b, m)
    vecs = [dict(_sparse_cols(mat)[0])
            for mat in hom_space(b, trivial_rep(b), power)]
    mu_m = _power_mult(b, m)

    # Express the nonzero products (and the unit) back in the invariant
    # basis: one shared solve with their right-hand sides stacked, the unit
    # last.  A zero product has zero coordinates.
    targets = {(i, j): xy for (i, x), (j, y) in product(enumerate(vecs),
                                                        repeat=2)
               if (xy := _apply_mu(mu_m, x, y))}
    res = _solve_in_basis(b.field, vecs,
                          list(targets.values()) + [_eps_power(b, m)])
    if not res.feasible:
        raise StructureError(
            "invariants are not closed under the braided product "
            "(convention drift); this should be impossible")
    coords = [dict(col) for col in _sparse_cols(res.particular)]
    structure = {pair: {} for pair in product(range(len(vecs)), repeat=2)}
    structure.update(zip(targets, coords))
    alg = AlgebraPresentation(b.name, g, n, vecs, structure, coords[-1],
                              field=b.field, ambient_dim=power.dim)
    if not alg.check_unit() or not alg.check_associativity():
        raise StructureError("computed algebra fails unit/associativity laws")
    return alg


def _eps_power(b: HopfBundle, m: int) -> dict:
    """eps^{(x)m}, the unit of L^{(x)m}, as a sparse vector."""
    vec = eps = _sparse_sum(enumerate(b.counit))
    for _ in range(m - 1):
        vec = {i * b.dim + j: a * c for i, a in vec.items()
               for j, c in eps.items()}
    return vec


def char_map(b: HopfBundle, alg: AlgebraPresentation) -> dict:
    """The canonical map from the classical skein algebra of the annulus.

    Expresses the q-character of each simple in the invariant basis of the
    annulus algebra, reports the rank of the image, and verifies
    multiplicativity qchar(M) * qchar(N) = qchar(M (x) N) exactly for every
    pair in the bundle's module list (the executable statement that the map
    is an algebra homomorphism).  The modules must be modules of b, as
    `hopf.validate_rep` decides.  qchar(M (x) N) is read from the
    comultiplication, chi_{M(x)N}(e_i) = sum c chi_M(e_j) chi_N(e_k) over the
    terms c e_j (x) e_k of Delta(e_i), since the trace of a Kronecker product
    is the product of the traces; no product module is built.
    """
    if alg.g != 0 or alg.n != 2:
        raise StructureError("char_map needs the annulus algebra (g=0, n=2)")
    if alg.field is not b.field or alg.ambient_dim != b.dim:
        raise StructureError("presentation is not one of bundle %r" % b.name)
    if not b.simples:
        raise StructureError("bundle has no simple module list")
    # one q-character per module, the simples' first; b.module names a
    # simple missing from the module list
    qchars = {name: qchar(b, b.module(name))
              for name in dict.fromkeys(b.simples + list(b.modules))}
    res = _solve_in_basis(b.field, alg.basis_vectors,
                          [qchars[name].coords for name in b.simples])
    if not res.feasible:
        raise StructureError(
            "q-characters do not lie in the invariant space "
            "(internal consistency error: convention mismatch)")
    images = {name: dict(col)
              for name, col in zip(b.simples, _sparse_cols(res.particular))}

    mu = _power_mult(b, 1)
    mult_report = {}
    for name_m, name_n in product(sorted(b.modules), repeat=2):
        chi_m, chi_n = qchars[name_m].coords, qchars[name_n].coords
        rhs = _sparse_sum((i, c * chi_m[j] * chi_n[k])
                          for i, delta in enumerate(b.comult_table)
                          for j, k, c in delta if j in chi_m and k in chi_n)
        mult_report[(name_m, name_n)] = _apply_mu(mu, chi_m, chi_n) == rhs
    return {
        "images": images,
        "qchars": {name: qchars[name] for name in b.simples},
        "rank": _column_system(b.field, list(images.values())).rank(),
        "multiplicative": all(mult_report.values()),
        "multiplicativity_report": mult_report,
    }


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def algebra_to_obj(alg: AlgebraPresentation) -> dict:
    """The `skalg` payload of a presentation, its vectors rendered densely;
    the format is written only."""
    zero = alg.field.zero()
    sc = [[i, j, k, c.to_obj()]
          for (i, j), coeffs in sorted(alg.structure.items())
          for k, c in sorted(coeffs.items())]
    return {
        "bundle": alg.bundle_name,
        "g": alg.g,
        "n": alg.n,
        "dim": alg.dim,
        "basis_labels": ["v%d" % t for t in range(alg.dim)],
        "basis_vectors": [[vec.get(k, zero).to_obj()
                           for k in range(alg.ambient_dim)]
                          for vec in alg.basis_vectors],
        "unit": [alg.unit_coords.get(t, zero).to_obj()
                 for t in range(alg.dim)],
        "structure_constants": sc,
        "provenance": {"model": "invariants of L^(x)%d"
                       % (2 * alg.g + alg.n - 1)},
    }
