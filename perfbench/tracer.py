"""Spans and counters around the public functions of the modskein layers.

The tracer is installed only for traced runs, so end-to-end numbers carry no
tracing cost.  It wraps every public function defined in `cyclo`, `hopf`,
`bundles`, `coend`, `surface` and `rt`, and rebinds the wrapper in every
`modskein` module that bound the original: `surface` and `rt` import
`tensor_rep`, `braiding` and friends with `from .hopf import ...`, and
patching `hopf` alone would miss their calls.  A few class methods get spans
too (METHODS), and `CycNum` arithmetic is counted but not timed, because it
runs millions of times and a clock read per operation would swamp it.

A span's self time is its duration minus the time its child spans cover.
Bookkeeping done after a call (content hashes, nonzero counts) is charged to
no span, so it shows only in the tracing overhead.
"""

from __future__ import annotations

import inspect
import sys
import time
import weakref

LAYERS = ("cyclo", "hopf", "bundles", "coend", "surface", "rt")

# (module, class, method) -> span name
METHODS = {
    ("cyclo", "ExactMatrix", "__mul__"): "cyclo.ExactMatrix.mul",
    ("cyclo", "ExactMatrix", "kron"): "cyclo.ExactMatrix.kron",
    ("cyclo", "LinearSystem", "add_row"): "cyclo.LinearSystem.add_row",
    ("cyclo", "LinearSystem", "kernel"): "cyclo.LinearSystem.kernel",
    ("cyclo", "LinearSystem", "solve"): "cyclo.LinearSystem.solve",
    ("surface", "AlgebraPresentation", "check_associativity"):
        "surface.check_associativity",
    ("surface", "AlgebraPresentation", "check_unit"): "surface.check_unit",
}

# CycNum method -> counter.  `__radd__` and `__rmul__` are aliases of
# `__add__` and `__mul__` in the class body, so each alias is patched on its
# own; `__rsub__` is `(-self) + other` and is counted through `__add__`.
SCALAR_OPS = {"__add__": "add", "__radd__": "add", "__sub__": "add",
              "__mul__": "mul", "__rmul__": "mul", "inverse": "inverse"}

COUNTERS = ("cyclo.CycNum.add", "cyclo.CycNum.mul", "cyclo.CycNum.inverse",
            "row_nnz", "rows", "rank", "max_coeff_bits",
            "tensor_entries", "tensor_nnz")


def _coeff_bits(matrix) -> int:
    best = 0
    for row in matrix.data:
        for e in row:
            for c in e.coeffs:
                if c:
                    best = max(best, c.numerator.bit_length(),
                               c.denominator.bit_length())
    return best


class Tracer:
    """Per-pass span statistics and counters; `reset` starts a new pass."""

    def __init__(self):
        self.spans: dict[str, list] = {}   # name -> [calls, self seconds]
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.covered = [0.0]               # seconds inside top-level spans
        self.distinct = {"hopf.tensor_rep": set(), "hopf.braiding": set()}
        self._stack: list[float] = []      # child seconds of each open span
        self._rows = weakref.WeakKeyDictionary()  # LinearSystem -> rows added
        self._finished = weakref.WeakSet()        # systems already summarised
        self._undo: list[tuple] = []

    def reset(self) -> None:
        for stat in self.spans.values():
            stat[0], stat[1] = 0, 0.0
        for key in self.counts:
            self.counts[key] = 0
        self.covered[0] = 0.0
        for seen in self.distinct.values():
            seen.clear()
        self._rows.clear()

    def snapshot(self) -> dict:
        return {"spans": {k: tuple(v) for k, v in self.spans.items()},
                "counts": dict(self.counts),
                "distinct": {k: len(v) for k, v in self.distinct.items()}}

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, after=None):
        stat = self.spans.setdefault(name, [0, 0.0])
        stack, covered, clock = self._stack, self.covered, time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            stack.append(0.0)
            done = False
            try:
                out = fn(*args, **kwargs)
                done = True
                return out
            finally:
                t1 = clock()
                stat[0] += 1
                stat[1] += t1 - t0 - stack.pop()
                if done and after is not None:
                    after(args, kwargs, out)
                elapsed = clock() - t0
                if stack:
                    stack[-1] += elapsed
                else:
                    covered[0] += elapsed

        return wrapper

    def _counter(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- bookkeeping hooks -----------------------------------------------------

    def _after_add_row(self, args, kwargs, out):
        system, coeffs = args[0], args[1]
        rhs = args[2] if len(args) > 2 else kwargs.get("rhs")
        self.counts["row_nnz"] += len(coeffs) + len(rhs or ())
        self._rows[system] = self._rows.get(system, 0) + 1

    def _after_elimination(self, args, kwargs, out):
        system = args[0]
        if system not in self._finished:
            self._finished.add(system)
            self.counts["rows"] += self._rows.get(system, 0)
            self.counts["rank"] += system.rank()
        mats = [out] if hasattr(out, "data") else [out.kernel, out.particular]
        for mat in mats:
            if mat is not None:
                self.counts["max_coeff_bits"] = max(
                    self.counts["max_coeff_bits"], _coeff_bits(mat))

    def _distinct_key(self, args):
        b, m, n = args[:3]
        return b.name, hash(m), hash(n)

    def _after_tensor_rep(self, args, kwargs, out):
        self.distinct["hopf.tensor_rep"].add(self._distinct_key(args))
        for mat in out.mats:
            self.counts["tensor_entries"] += mat.rows * mat.cols
            self.counts["tensor_nnz"] += sum(
                1 for row in mat.data for e in row if any(e.coeffs))

    def _after_braiding(self, args, kwargs, out):
        self.distinct["hopf.braiding"].add(self._distinct_key(args))

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        hooks = {
            "cyclo.LinearSystem.add_row": self._after_add_row,
            "cyclo.LinearSystem.kernel": self._after_elimination,
            "cyclo.LinearSystem.solve": self._after_elimination,
            "hopf.tensor_rep": self._after_tensor_rep,
            "hopf.braiding": self._after_braiding,
        }
        package = [mod for name, mod in sorted(sys.modules.items())
                   if name == "modskein" or name.startswith("modskein.")]
        for layer in LAYERS:
            mod = sys.modules["modskein." + layer]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = "%s.%s" % (layer, attr)
                wrapped = self._span(name, fn, hooks.get(name))
                for holder in package:
                    for key, val in list(vars(holder).items()):
                        if val is fn:
                            self._patch(holder, key, wrapped)
        for (layer, cls_name, meth), name in METHODS.items():
            cls = getattr(sys.modules["modskein." + layer], cls_name)
            self._patch(cls, meth, self._span(name, vars(cls)[meth],
                                              hooks.get(name)))
        cycnum = sys.modules["modskein.cyclo"].CycNum
        for meth, op in SCALAR_OPS.items():
            self._patch(cycnum, meth, self._counter("cyclo.CycNum." + op,
                                                    vars(cycnum)[meth]))

    def _patch(self, holder, attr, value) -> None:
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, value = self._undo.pop()
            setattr(holder, attr, value)


# Per-layer metrics of a traced run: name -> (unit, value from one pass's
# snapshot).  Times ("s") are reported as the median over passes; every other
# value is a count or a ratio of counts and must repeat exactly from pass to
# pass.  Every workload ends with the "smoke" part, which calls every span
# named here, so no metric reads 0 on a workload.
def _calls(span):
    return lambda s: s["spans"].get(span, (0, 0.0))[0]


def _self_s(span):
    return lambda s: s["spans"].get(span, (0, 0.0))[1]


def _layer_self_s(layer):
    return lambda s: sum(v[1] for k, v in s["spans"].items()
                         if k.startswith(layer + "."))


def _count(key):
    return lambda s: s["counts"][key]


def _ratio(num, den):
    return lambda s: num(s) / den(s) if den(s) else 0.0


def _distinct(span):
    return _ratio(lambda s: s["distinct"][span], _calls(span))


PER_LAYER = {
    "cyclo.CycNum.mul.count": ("count", _count("cyclo.CycNum.mul")),
    "cyclo.CycNum.add.count": ("count", _count("cyclo.CycNum.add")),
    "cyclo.CycNum.inverse.count": ("count", _count("cyclo.CycNum.inverse")),
    "cyclo.LinearSystem.row_nnz": ("count", _count("row_nnz")),
    "cyclo.LinearSystem.pivot_frac": ("ratio", _ratio(_count("rank"),
                                                      _count("rows"))),
    "cyclo.LinearSystem.max_coeff_bits": ("bits", _count("max_coeff_bits")),
    "hopf.tensor_rep.out_nnz_frac": ("ratio", _ratio(_count("tensor_nnz"),
                                                     _count("tensor_entries"))),
    "hopf.tensor_rep.distinct_frac": ("ratio", _distinct("hopf.tensor_rep")),
    "hopf.braiding.distinct_frac": ("ratio", _distinct("hopf.braiding")),
}
for _span in ("cyclo.ExactMatrix.mul", "cyclo.ExactMatrix.kron",
              "cyclo.LinearSystem.add_row", "cyclo.LinearSystem.solve",
              "hopf.validate_bundle", "hopf.tensor_rep", "hopf.braiding",
              "hopf.hom_space", "hopf.projective_section", "rt.evaluate",
              "coend.red_to_blue", "surface.skalg",
              "surface.check_associativity"):
    PER_LAYER[_span + ".calls"] = ("count", _calls(_span))
for _span in ("cyclo.ExactMatrix.mul", "cyclo.ExactMatrix.kron",
              "cyclo.LinearSystem.add_row", "cyclo.LinearSystem.kernel",
              "cyclo.LinearSystem.solve",
              "hopf.validate_bundle", "hopf.validate_rep", "hopf.tensor_rep",
              "hopf.braiding", "hopf.hom_space", "hopf.projective_section",
              "rt.evaluate", "rt.boundary_rep",
              "coend.coadjoint_rep", "coend.slf_basis", "coend.qchar",
              "coend.red_to_blue", "coend.apply_factored_action",
              "coend.recompose",
              "surface.coend_mult", "surface.skalg", "surface.char_map",
              "surface.check_associativity", "surface.check_unit",
              "bundles.uqsl2_bundle"):
    PER_LAYER[_span + ".self_s"] = ("s", _self_s(_span))
for _layer in LAYERS:
    PER_LAYER[_layer + ".self_s"] = ("s", _layer_self_s(_layer))
