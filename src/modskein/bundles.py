"""Constructors for the bundles shipped with the engine.

* trivial    -- the 1-dimensional Hopf algebra (smoke test degenerate case).
* z2         -- the group algebra Q[Z/2] with R = 1 (x) 1 (cocommutative,
                semisimple: the classical degeneration).
* sweedler   -- the 4-dimensional Sweedler algebra with its quasitriangular
                family R_lambda (triangular, ribbon with v = 1); the smallest
                non-semisimple ribbon example.
* z4         -- Q(i)[Z/4] with the bicharacter R-matrix and Gauss-sum ribbon
                element; non-triangular, with a non-involutive twist, so it
                pins braiding/twist conventions that z2 and sweedler cannot.
* uqsl2      -- the restricted quantum group of sl2 at a primitive 2p-th root
                of unity (dim 2p^3), generated from the E, F, K presentation;
                pivotal-only unless the candidate R-matrix survives validation.
                Its product, coproduct and simple modules each come from one
                walk over the PBW monomials, and its structure is built
                directly over Q(zeta_2p), or over Q(zeta_4p) for the trial
                bundle that carries the candidate R.

trivial, z2 and z4 are cyclic group algebras and come from one builder,
`_cyclic_bundle`, which gives each of them its characters and its regular
module "reg" (for trivial, "reg" equals "triv").
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, islice

from .cyclo import (CycField, CycNum, ExactMatrix, _from_cols, _matrix,
                    _sparse_sum, parse_rational)
from .errors import StructureError, require_int
from .hopf import (AXIOMS, R_INVERSE_FREE, HopfBundle, Rep, _character,
                   _regular_module, validate_bundle)

__all__ = ["trivial_bundle", "z2_bundle", "sweedler_bundle", "z4_bundle",
           "uqsl2_bundle"]


def _cyclic_bundle(name, field, root, chars, R=None, R_inv=None,
                   ribbon=None) -> HopfBundle:
    """The group algebra of Z/n = <g> over `field`, n = len(chars).

    The basis is g^a, labelled 1, g, g2, ..., with Delta(g^a) = g^a (x) g^a,
    S(g^a) = g^-a and pivot 1; R = R_inv = 1 (x) 1 and the ribbon element 1
    unless given.  The simples are the characters g^a -> root^(ab), named
    chars[b], and the regular module is "reg".
    """
    n = len(chars)
    one = field.one()
    unit = [one] + [field.zero()] * (n - 1)
    mult = [(a, c, (a + c) % n, one) for a in range(n) for c in range(n)]
    modules = {chars[bb]: _character(field, [root ** ((a * bb) % n)
                                             for a in range(n)])
               for bb in range(n)}
    modules["reg"] = _regular_module(field, n, mult)
    return HopfBundle(
        name=name, field=field, dim=n,
        unit=unit, mult=mult, comult=[(a, a, a, one) for a in range(n)],
        counit=[one] * n,
        antipode=_matrix(field, [(((-a) % n, one),) for a in range(n)], n),
        pivotal=unit, R=R or [(0, 0, one)], R_inv=R_inv or [(0, 0, one)],
        ribbon=ribbon or unit, modules=modules, simples=list(chars),
        basis_labels=["1", "g", *("g%d" % a for a in range(2, n))][:n])


def trivial_bundle() -> HopfBundle:
    field = CycField(1)
    return _cyclic_bundle("trivial", field, field.one(), ["triv"])


def z2_bundle() -> HopfBundle:
    field = CycField(1)
    return _cyclic_bundle("z2", field, field.from_rational(-1),
                          ["triv", "sgn"])


def sweedler_bundle(lam=Fraction(1)) -> HopfBundle:
    """Sweedler's H4 with the quasitriangular structure R_lambda.

    Basis 1, g, x, gx with g^2 = 1, x^2 = 0, xg = -gx.  The family R_lambda
    is triangular, so v = 1 is a ribbon element and the pivot is g.  lambda
    is read by `cyclo.parse_rational`, so a float is refused.
    """
    field = CycField(1)
    one = field.one()
    lam = parse_rational(lam)

    # basis index <-> (k, s) with element g^k x^s
    idx = {(0, 0): 0, (1, 0): 1, (0, 1): 2, (1, 1): 3}

    mult = []
    for (k, s), i in idx.items():
        for (l, t), j in idx.items():
            if s + t >= 2:
                continue  # x^2 = 0
            sign = -1 if (s and l) else 1  # x g = -g x
            target = idx[((k + l) % 2, s + t)]
            mult.append((i, j, target, field.from_rational(sign)))

    # Delta(1) = 1x1, Delta(g) = gxg, Delta(x) = x(x)1 + g(x)x,
    # Delta(gx) = gx(x)g + 1(x)gx
    comult = [
        (0, 0, 0, one),
        (1, 1, 1, one),
        (2, 2, 0, one), (2, 1, 2, one),
        (3, 3, 1, one), (3, 0, 3, one),
    ]
    counit = [one, one, field.zero(), field.zero()]
    # S: 1 -> 1, g -> g, x -> -gx, gx -> x  (columns are images)
    antipode = ExactMatrix(field, [
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 0, 1],
        [0, 0, -1, 0],
    ])

    # The unique quasitriangular family for this comultiplication convention
    # (solved exactly from the three R axioms; the x-part kernel is 1-dim).
    half = Fraction(1, 2)
    lh = lam * half
    R = [(0, 0, field.from_rational(half)),
         (0, 1, field.from_rational(half)),
         (1, 0, field.from_rational(half)),
         (1, 1, field.from_rational(-half))]
    if lh:
        R += [(2, 2, field.from_rational(lh)),
              (2, 3, field.from_rational(-lh)),
              (3, 2, field.from_rational(lh)),
              (3, 3, field.from_rational(lh))]
    # The family is triangular: R^-1 = R_21 (the validator re-checks this).
    R_inv = [(j, i, c) for (i, j, c) in R]

    zero = field.zero()
    triv = _character(field, [one, one, zero, zero])
    sgn = _character(field, [one, -one, zero, zero])
    # projective cover of triv: basis e+, x e+ with e+ = (1+g)/2
    pp_g = ExactMatrix(field, [[1, 0], [0, -1]])
    pp_x = ExactMatrix(field, [[0, 0], [1, 0]])
    proj_plus = Rep(2, [ExactMatrix.identity(field, 2), pp_g, pp_x, pp_g * pp_x])
    # projective cover of sgn: basis e-, x e-
    pm_g = ExactMatrix(field, [[-1, 0], [0, 1]])
    pm_x = ExactMatrix(field, [[0, 0], [1, 0]])
    proj_minus = Rep(2, [ExactMatrix.identity(field, 2), pm_g, pm_x, pm_g * pm_x])

    return HopfBundle(
        name="sweedler", field=field, dim=4,
        unit=[one, field.zero(), field.zero(), field.zero()],
        mult=mult, comult=comult, counit=counit, antipode=antipode,
        pivotal=[field.zero(), one, field.zero(), field.zero()],
        R=R, R_inv=R_inv,
        ribbon=[one, field.zero(), field.zero(), field.zero()],
        modules={"triv": triv, "sgn": sgn, "proj_plus": proj_plus,
                 "proj_minus": proj_minus,
                 "reg": _regular_module(field, 4, mult)},
        simples=["triv", "sgn"],
        basis_labels=["1", "g", "x", "gx"],
        metadata={"lambda": str(lam)})


def z4_bundle() -> HopfBundle:
    """Q(i)[Z/4] with R = (1/4) sum i^{-cd} g^c (x) g^d and ribbon v = u.

    The monodromy is nontrivial (non-triangular) and v has order 4, so the
    twist is genuinely non-involutive: theta on the character chi_b is i^{b^2}.
    """
    field = CycField(4)
    one = field.one()
    i_unit = field.zeta()
    quarter = field.from_rational(Fraction(1, 4))

    R = []
    R_inv = []
    for c in range(4):
        for d in range(4):
            R.append((c, d, quarter * i_unit ** ((-c * d) % 4)))
            R_inv.append((c, d, quarter * i_unit ** ((c * d) % 4)))

    # v = u = (1-i)/2 + (1+i)/2 g^2  (Gauss sums of the quadratic form)
    half = field.from_rational(Fraction(1, 2))
    ribbon = [half * (one - i_unit), field.zero(),
              half * (one + i_unit), field.zero()]
    return _cyclic_bundle("z4", field, i_unit,
                          ["chi0", "chi1", "chi2", "chi3"],
                          R=R, R_inv=R_inv, ribbon=ribbon)


# ---------------------------------------------------------------------------
# Restricted quantum sl2 at a 2p-th root of unity
# ---------------------------------------------------------------------------


class _UqRewriter:
    """Normal ordering engine for the presentation E^a F^b K^c.

    Relations: K E = q^2 E K, K F = q^-2 F K, [E, F] = (K - K^-1)/(q - q^-1),
    E^p = F^p = 0, K^{2p} = 1, with q a primitive 2p-th root of unity.
    Elements are sparse {(a, b, c): CycNum} dicts.
    """

    def __init__(self, p: int, field: CycField, q: CycNum):
        self.p = p
        self.field = field
        self.q = q
        self.qinv = q.inverse()
        self.denom_inv = (q - self.qinv).inverse()
        self._qpow: dict[int, CycNum] = {}

    def qpow(self, n: int) -> CycNum:
        n = n % (2 * self.p)
        if n not in self._qpow:
            self._qpow[n] = self.q ** n
        return self._qpow[n]

    def qint(self, n: int) -> CycNum:
        return (self.qpow(n) - self.qpow(-n)) * self.denom_inv

    def rmul_K(self, elem: dict, times: int = 1) -> dict:
        times %= 2 * self.p
        return {(a, b, (c + times) % (2 * self.p)): v
                for (a, b, c), v in elem.items()}

    def rmul_F(self, elem: dict) -> dict:
        return _sparse_sum(((a, b + 1, c), v * self.qpow(-2 * c))
                           for (a, b, c), v in elem.items() if b + 1 < self.p)

    def rmul_E(self, elem: dict) -> dict:
        return _sparse_sum(self._rmul_E_terms(elem))

    def _rmul_E_terms(self, elem: dict):
        for (a, b, c), v in elem.items():
            v = v * self.qpow(2 * c)
            if a + 1 < self.p:
                yield (a + 1, b, c), v
            if b >= 1:
                # F^b E = E F^b - [b] F^{b-1} (q^{1-b} K - q^{b-1} K^-1)/(q-q^-1)
                coef = v * self.qint(b) * self.denom_inv
                yield ((a, b - 1, (c + 1) % (2 * self.p)),
                       -coef * self.qpow(-(b - 1)))
                yield ((a, b - 1, (c - 1) % (2 * self.p)),
                       coef * self.qpow(b - 1))

    def rmul_monomial(self, elem: dict, mono: tuple) -> dict:
        a, b, c = mono
        for _ in range(a):
            elem = self.rmul_E(elem)
        for _ in range(b):
            elem = self.rmul_F(elem)
        if c:
            elem = self.rmul_K(elem, c)
        return elem

    def antipode_monomial(self, mono: tuple) -> dict:
        # S(E^a F^b K^c) = K^{-c} (-KF)^b (-EK^{-1})^a
        a, b, c = mono
        elem = {(0, 0, (-c) % (2 * self.p)): self.field.one()}
        for _ in range(b):
            elem = {k: -v for k, v in self.rmul_F(self.rmul_K(elem)).items()}
        for _ in range(a):
            elem = {k: -v for k, v in
                    self.rmul_K(self.rmul_E(elem), 2 * self.p - 1).items()}
        return elem

    def t2_mul(self, x: dict, y: dict) -> dict:
        """Multiply sparse elements of H (x) H keyed by monomial pairs."""
        one = self.field.one()
        return _sparse_sum(
            ((k1, k2), v * w * c1 * c2)
            for (m1, m2), v in x.items() for (n1, n2), w in y.items()
            for k1, c1 in self.rmul_monomial({m1: one}, n1).items()
            for k2, c2 in self.rmul_monomial({m2: one}, n2).items())


def _powers(x, times, n: int):
    """x, times(x), ..., times^(n-1)(x), each formed from the one before."""
    return accumulate(range(n - 1), lambda y, _: times(y), initial=x)


def _pbw_walk(x, p: int, times_E, times_F, times_K):
    """x E^a F^b K^c for every PBW monomial, in basis order (a, b < p,
    c < 2p), where times_G(y) is y G; each prefix x E^a F^b is formed once."""
    return [z for xa in _powers(x, times_E, p)
            for xb in _powers(xa, times_F, p)
            for z in _powers(xb, times_K, 2 * p)]


def _uqsl2_structure(p: int, order: int):
    """The pivotal restricted quantum group over Q(zeta_order), with q =
    zeta_order^(order/2p); order must be a multiple of 2p.

    Returns (rewriter, index map of the monomials, HopfBundle arguments).
    """
    field = CycField(order)
    rw = _UqRewriter(p, field, field.zeta(order // (2 * p)))
    zero, one = field.zero(), field.one()
    monomials = [(a, b, c)
                 for a in range(p) for b in range(p) for c in range(2 * p)]
    index = {m: i for i, m in enumerate(monomials)}
    d = len(monomials)

    mult = [(i, j, index[mono], c)
            for i, mi in enumerate(monomials)
            for j, prod in enumerate(_pbw_walk({mi: one}, p, rw.rmul_E,
                                               rw.rmul_F, rw.rmul_K))
            for mono, c in prod.items()]

    # Delta on generators; extended multiplicatively in H (x) H.
    dE = {((1, 0, 0), (0, 0, 1)): one, ((0, 0, 0), (1, 0, 0)): one}
    dF = {((0, 1, 0), (0, 0, 0)): one,
          ((0, 0, 2 * p - 1), (0, 1, 0)): one}
    dK = {((0, 0, 1), (0, 0, 1)): one}
    comult = [(i, index[m1], index[m2], v)
              for i, delta in enumerate(_pbw_walk(
                  {((0, 0, 0), (0, 0, 0)): one}, p,
                  lambda t: rw.t2_mul(t, dE), lambda t: rw.t2_mul(t, dF),
                  lambda t: rw.t2_mul(t, dK)))
              for (m1, m2), v in delta.items()]

    pivotal = [zero] * d
    pivotal[index[(0, 0, (p + 1) % (2 * p))]] = one
    modules = {"X%s%d" % ("+" if alpha == 1 else "-", s):
               _uqsl2_simple(rw, alpha, s)
               for alpha in (1, -1) for s in range(1, p + 1)}
    return rw, index, dict(
        name="uqsl2_p%d" % p, field=field, dim=d,
        unit=[one if m == (0, 0, 0) else zero for m in monomials],
        mult=mult, comult=comult,
        counit=[one if (m[0] == 0 and m[1] == 0) else zero for m in monomials],
        antipode=_from_cols(field, [
            [(index[m2], c) for m2, c in rw.antipode_monomial(mono).items()]
            for mono in monomials], d),
        pivotal=pivotal, modules=modules, simples=list(modules),
        basis_labels=["E%dF%dK%d" % m for m in monomials],
        metadata={"p": p, "q": "zeta_%d" % (2 * p),
                  "presentation": "E^a F^b K^c, a,b < p, c < 2p"})


def uqsl2_bundle(p: int, with_r: bool = False) -> HopfBundle:
    """Restricted quantum sl2 at a primitive 2p-th root of unity; dim 2p^3.

    The bundle carries the PBW basis E^a F^b K^c, the standard Hopf structure,
    the pivot K^{p+1}, and the 2p simple modules X^{+/-}_s.  Its product,
    coproduct and simple modules each come from one PBW walk, and it is
    built over Q(zeta_2p).  With `with_r` a candidate R-matrix (Cartan Gauss
    sum x quasi-R-matrix) is built with the structure directly over
    Q(zeta_4p) and validated; it is attached only if every axiom passes,
    otherwise the validator outcome is recorded in metadata and the bundle
    stays pivotal-only.
    """
    require_int("p", p)
    if p < 2:
        raise StructureError("p must be >= 2")
    _, _, structure = _uqsl2_structure(p, 2 * p)
    if with_r:
        trial = _candidate_trial(p)
        # The axioms that need no R^-1 first, each up to its first failure;
        # only a candidate passing them is worth the full validator.
        report = [failure for name, _, check in AXIOMS
                  if name in R_INVERSE_FREE
                  for failure in islice(check(trial), 1)]
        report = report or validate_bundle(trial)
        if not report:
            return trial
        structure["metadata"]["r_candidate"] = {
            "attempted": True, "attached": False,
            "validator_failures": report}
    return HopfBundle(**structure)


def _uqsl2_simple(rw: _UqRewriter, alpha: int, s: int) -> Rep:
    """The simple X^alpha_s: dim s, highest K-weight alpha q^{s-1}."""
    field = rw.field
    aq = field.from_rational(alpha)
    # E e_j = aq [j][s-j] e_(j-1) and F e_j = e_(j+1); [j] != 0 for 0 < j < p
    matE = _matrix(field, [((j + 1, aq * rw.qint(j + 1) * rw.qint(s - j - 1)),)
                           for j in range(s - 1)] + [()], s)
    matF = _matrix(field, [()] + [((j, field.one()),)
                                  for j in range(s - 1)], s)
    matK = _matrix(field, [((j, aq * rw.qpow(s - 1 - 2 * j)),)
                           for j in range(s)], s)
    return Rep(s, _pbw_walk(ExactMatrix.identity(field, s), rw.p,
                            lambda m: m * matE, lambda m: m * matF,
                            lambda m: m * matK))


def _candidate_trial(p: int) -> HopfBundle:
    """The pivotal structure built over Q(zeta_4p), with the textbook
    candidate R = D Theta, R^-1 = (S (x) id)R and ribbon element
    v = g^-1 u, u = sum S(R2) R1, all computed on monomials."""
    rw, index, structure = _uqsl2_structure(p, 4 * p)
    field4 = rw.field
    one, zero = field4.one(), field4.zero()
    zeta = field4.zeta()  # zeta_4p, a square root of q

    # Cartan factor D = (1/2p) sum_{i,j<2p} zeta^{-ij} K^i (x) K^j
    inv2p = field4.from_rational(Fraction(1, 2 * p))
    D = {((0, 0, i), (0, 0, j)): inv2p * zeta ** ((-i * j) % (4 * p))
         for i in range(2 * p) for j in range(2 * p)}
    # quasi-R-matrix Theta = sum_m c_m E^m (x) F^m
    Theta: dict = {((0, 0, 0), (0, 0, 0)): one}
    fact = one
    for m in range(1, p):
        fact = fact * rw.qint(m)
        Theta[((m, 0, 0), (0, m, 0))] = ((rw.q - rw.qinv) ** m
                                         * fact.inverse()
                                         * rw.qpow(m * (m - 1) // 2))
    R = rw.t2_mul(D, Theta)
    R_inv = _sparse_sum(((k, m2), c * s) for (m1, m2), c in R.items()
                        for k, s in rw.antipode_monomial(m1).items())
    u = _sparse_sum((k, c * w) for (m1, m2), c in R.items()
                    for k, w in rw.rmul_monomial(rw.antipode_monomial(m2),
                                                 m1).items())
    # g = K^(p+1), so g^-1 = K^(p-1)
    v = _sparse_sum((k, c * w) for m, c in u.items()
                    for k, w in rw.rmul_monomial({(0, 0, p - 1): one},
                                                 m).items())

    def pairs(x):
        return [(index[m1], index[m2], c) for (m1, m2), c in sorted(x.items())]

    return HopfBundle(R=pairs(R), R_inv=pairs(R_inv),
                      ribbon=[v.get(m, zero) for m in index], **structure)

