"""The restricted quantum group against its tables derived one at a time.

`uqsl2_bundle` forms every table in one PBW walk and builds its structure
over the field it is needed in.  The references here derive the same tables
one monomial at a time, and the structure over Q(zeta_4p) by embedding the
one over Q(zeta_2p) entry by entry; the walk must give the same entries in
the same order, and the direct build the same structure.
"""

import re

import pytest

from modskein import bundles
from modskein.bundles import uqsl2_bundle
from modskein.cyclo import CycField, CycNum, ExactMatrix, _matrix, _sparse_rows
from modskein.errors import StructureError
from modskein.hopf import Rep


def _reference_tables(p):
    """(mult, comult, {simple name: Rep}) of `uqsl2_bundle(p)`: each
    product, coproduct and module action re-derived from the generators."""
    field = CycField(2 * p)
    rw = bundles._UqRewriter(p, field, field.zeta())
    one = field.one()
    monomials = [(a, b, c)
                 for a in range(p) for b in range(p) for c in range(2 * p)]
    index = {m: i for i, m in enumerate(monomials)}

    mult = [(i, j, index[mono], c)
            for i, mi in enumerate(monomials)
            for j, mj in enumerate(monomials)
            for mono, c in rw.rmul_monomial({mi: one}, mj).items()]

    dE = {((1, 0, 0), (0, 0, 1)): one, ((0, 0, 0), (1, 0, 0)): one}
    dF = {((0, 1, 0), (0, 0, 0)): one,
          ((0, 0, 2 * p - 1), (0, 1, 0)): one}
    dK = {((0, 0, 1), (0, 0, 1)): one}
    comult = []
    for i, (a, b, c) in enumerate(monomials):
        acc = {((0, 0, 0), (0, 0, 0)): one}
        for _ in range(a):
            acc = rw.t2_mul(acc, dE)
        for _ in range(b):
            acc = rw.t2_mul(acc, dF)
        for _ in range(c):
            acc = rw.t2_mul(acc, dK)
        comult += [(i, index[m1], index[m2], v) for (m1, m2), v in acc.items()]

    simples = {}
    for alpha in (1, -1):
        aq = field.from_rational(alpha)
        for s in range(1, p + 1):
            matE = _matrix(field, [
                ((j + 1, aq * rw.qint(j + 1) * rw.qint(s - j - 1)),)
                for j in range(s - 1)] + [()], s)
            matF = _matrix(field, [()] + [((j, one),) for j in range(s - 1)],
                           s)
            matK = _matrix(field, [((j, aq * rw.qpow(s - 1 - 2 * j)),)
                                   for j in range(s)], s)
            mats = []
            for (a, b, c) in monomials:
                m = ExactMatrix.identity(field, s)
                for _ in range(a):
                    m = m * matE
                for _ in range(b):
                    m = m * matF
                for _ in range(c):
                    m = m * matK
                mats.append(m)
            simples["X%s%d" % ("+" if alpha == 1 else "-", s)] = Rep(s, mats)
    return mult, comult, simples


def _embedded(x, field):
    """x with every CycNum in it embedded in `field`; x is a CycNum, an
    ExactMatrix, a Rep, or a list, tuple or dict of them or of other values,
    which are kept as they are."""
    if isinstance(x, CycNum):
        return x.embed(field.order)
    if isinstance(x, (list, tuple)):
        return type(x)(_embedded(y, field) for y in x)
    if isinstance(x, dict):
        return {k: _embedded(y, field) for k, y in x.items()}
    if isinstance(x, ExactMatrix):
        return _matrix(field, _embedded(_sparse_rows(x), field), x.cols)
    if isinstance(x, Rep):
        return Rep.from_rows(field, x.dim, _embedded(x.rows, field))
    return x


@pytest.mark.parametrize("p", [2, 3])
def test_the_pbw_walk_gives_the_tables_derived_one_monomial_at_a_time(p):
    b = uqsl2_bundle(p)
    mult, comult, simples = _reference_tables(p)
    assert b.mult == tuple(mult)
    assert b.comult == tuple(comult)
    assert b.simples == list(simples)
    for name, rep in simples.items():
        assert b.module(name).rows == rep.rows


@pytest.mark.parametrize("p", [2, 3])
def test_the_candidate_trial_is_the_structure_built_over_q_zeta_4p(p):
    b, trial = uqsl2_bundle(p), bundles._candidate_trial(p)
    assert trial.field is CycField(4 * p)
    fields = ("name", "dim", "unit", "mult", "comult", "counit", "antipode",
              "pivotal", "modules", "simples", "basis_labels", "metadata")
    assert {f: getattr(trial, f) for f in fields} == _embedded(
        {f: getattr(b, f) for f in fields}, trial.field)


@pytest.mark.parametrize("p", [2.5, "3", None, True])
def test_uqsl2_p_must_be_an_int(p):
    with pytest.raises(StructureError,
                       match="^p must be an int, not %s$" % re.escape(repr(p))):
        uqsl2_bundle(p)
