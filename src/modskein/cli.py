"""Command-line surface: bundle generation, validation and evaluation.

All numeric output is exact ("p/q" strings and cyclotomic coefficient
records); `--float` adds a decimal rendering column that is clearly marked
non-authoritative.  Every command is bit-reproducible for identical inputs
and engine version: there is no randomness anywhere and all pivot orders are
fixed.  Every command computes its payload afresh and writes nothing but
stdout and `--out`.  Every command that computes on a bundle validates it
first, and exits 1 with the named failures when it is not valid.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bundles import uqsl2_bundle
from .coend import qchar, red_to_blue, slf_basis
from .cyclo import CycNum, ExactMatrix, _matrix, _parse_index, _sparse_rows
from .errors import (CapabilityError, InadmissibleError, ModskeinError,
                     StructureError, TypingError)
from .hopf import (HopfBundle, bundle_from_obj, regular_rep, save_bundle,
                   trivial_rep, validate_bundle)
from .rt import evaluate, load_diagram
from .surface import algebra_to_obj, char_map, skalg

EXIT_OK = 0
EXIT_FAIL = 1       # axiom failures, typing and admissibility errors
EXIT_USAGE = 2      # unreadable/malformed inputs


def _canonical_payload(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
            ).encode("utf-8")


def _matrix_obj(mat: ExactMatrix, with_float: bool = False) -> dict:
    entries = [(r, c, v) for r, row in enumerate(_sparse_rows(mat))
               for c, v in row]
    obj = {"rows": mat.rows, "cols": mat.cols,
           "entries": [[r, c, v.to_obj()] for r, c, v in entries],
           "order": mat.field.order}
    if with_float:
        obj["float_approx"] = [[r, c, _float_str(v)] for r, c, v in entries]
        obj["float_note"] = "decimal rendering is non-authoritative"
    return obj


def _float_str(v: CycNum) -> str:
    z = v.to_complex()
    if abs(z.imag) < 1e-12:
        return "%.12g" % z.real
    return "%.12g%+.12gj" % (z.real, z.imag)


def _matrix_from_obj(obj: dict, field) -> ExactMatrix:
    """The matrix of a job's {rows, cols, entries} record; a repeated (r, c)
    keeps its last value."""
    nrows, ncols = _parse_index(obj["rows"]), _parse_index(obj["cols"])
    rows: list[dict] = [{} for _ in range(nrows)]
    for (r, c, v) in obj["entries"]:
        rows[_parse_index(r, nrows)][_parse_index(c, ncols)] = \
            CycNum.from_obj(v, field)
    return _matrix(field, [{c: v for c, v in row.items() if not v.is_zero()}
                           for row in rows], ncols)


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _bundle_from_bytes(data: bytes) -> HopfBundle:
    try:
        return bundle_from_obj(json.loads(data.decode("utf-8")))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise StructureError("malformed bundle JSON: %s" % exc)


def _emit(args, payload_bytes: bytes, csv_row: str | None = None) -> None:
    """Write the payload to --out, and print it, or under --format csv the
    CSV header and `csv_row` when the command has one."""
    if args.out:
        with open(args.out, "wb") as fh:
            fh.write(payload_bytes)
    if args.format == "csv" and csv_row is not None:
        print("bundle,g,n,dim,image_rank")
        print(csv_row)
    elif args.format == "json" or args.out is None:
        sys.stdout.write(payload_bytes.decode("utf-8"))


def _slf_payload(bundle: HopfBundle, args) -> dict:
    basis = slf_basis(bundle)
    return {"bundle": bundle.name, "dim": len(basis),
            "basis": [f.to_obj(bundle) for f in basis]}


def _skalg_payload(bundle: HopfBundle, args) -> dict:
    return algebra_to_obj(skalg(bundle, args.g, args.n))


def _char_map_payload(bundle: HopfBundle, args) -> dict:
    alg = skalg(bundle, 0, 2)
    cm = char_map(bundle, alg)
    return {
        "bundle": bundle.name, "g": 0, "n": 2, "dim": alg.dim,
        "image_rank": cm["rank"],
        "multiplicative": cm["multiplicative"],
        "images": {name: [c.to_obj() for c in coords]
                   for name, coords in sorted(cm["images"].items())},
        "qchars": {name: form.to_obj(bundle)
                   for name, form in sorted(cm["qchars"].items())},
    }


# The payload builders: command -> (checked bundle, args) -> payload object.
# `slf`, `skalg` and `char-map` compute through this one table.
PAYLOADS = {
    "slf": _slf_payload,
    "skalg": _skalg_payload,
    "char-map": _char_map_payload,
}


def _payload(args):
    """(bundle, payload object) of args.command on the checked args.bundle."""
    bundle = _load_checked(args)
    return bundle, PAYLOADS[args.command](bundle, args)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    bundle = _bundle_from_bytes(_read_bytes(args.bundle))
    failures = validate_bundle(bundle)
    if args.format == "text":
        if failures:
            for f in failures:
                print("FAIL %s" % f)
        else:
            print("VALID %s (dim %d)" % (bundle.name, bundle.dim))
    else:
        print(json.dumps({"bundle": bundle.name, "valid": not failures,
                          "failures": failures}, indent=1))
    return EXIT_OK if not failures else EXIT_FAIL


def cmd_gen_uqsl2(args) -> int:
    bundle = uqsl2_bundle(args.p, with_r=args.with_r)
    save_bundle(bundle, args.out)
    failures = validate_bundle(bundle)
    note = {"bundle": bundle.name, "dim": bundle.dim, "out": args.out,
            "has_r": bundle.has_r, "valid": not failures,
            "failures": failures}
    if "r_candidate" in bundle.metadata:
        note["r_candidate"] = bundle.metadata["r_candidate"]
    if args.format == "text":
        print("wrote %s (dim %d, %s)" % (
            args.out, bundle.dim,
            "ribbon" if bundle.has_ribbon else "pivotal-only"))
        if failures:
            for f in failures:
                print("FAIL %s" % f)
    else:
        print(json.dumps(note, indent=1))
    return EXIT_OK if not failures else EXIT_FAIL


def _load_checked(args) -> HopfBundle:
    """Read, parse and validate args.bundle.

    Every command that computes on a bundle loads it here, so none computes
    on a bundle that fails an axiom; the failures are named in the error
    (exit 1).
    """
    bundle = _bundle_from_bytes(_read_bytes(args.bundle))
    failures = validate_bundle(bundle)
    if failures:
        raise ModskeinError("bundle %r is not valid:\n%s" % (
            bundle.name, "\n".join("FAIL %s" % f for f in failures)))
    return bundle


def _resolve_module(bundle: HopfBundle, name: str):
    if name == "regular":
        return regular_rep(bundle)
    if name == "trivial":
        return trivial_rep(bundle)
    return bundle.module(name)


def cmd_slf(args) -> int:
    bundle, obj = _payload(args)
    if args.float_col:
        obj = _add_float_columns(bundle, obj)
    _emit(args, _canonical_payload(obj))
    if args.format == "text":
        print("slf dim %d" % obj["dim"], file=sys.stderr)
    return EXIT_OK


def _add_float_columns(bundle, obj):
    out = dict(obj)
    if "basis" in obj:
        out["float_approx"] = [
            [[label, _float_str(CycNum.from_obj(v, bundle.field))]
             for (label, v) in vec]
            for vec in obj["basis"]]
        out["float_note"] = "decimal rendering is non-authoritative"
    if "values" in obj:
        out["float_approx"] = [
            [label, _float_str(CycNum.from_obj(v, bundle.field))]
            for (label, v) in obj["values"]]
        out["float_note"] = "decimal rendering is non-authoritative"
    return out


def cmd_qchar(args) -> int:
    bundle = _load_checked(args)
    rep = _resolve_module(bundle, args.module)
    form = qchar(bundle, rep)
    obj = {"bundle": bundle.name, "module": args.module,
           "values": form.to_obj(bundle)}
    if args.float_col:
        obj = _add_float_columns(bundle, obj)
    _emit(args, _canonical_payload(obj))
    return EXIT_OK


def cmd_skalg(args) -> int:
    _, obj = _payload(args)
    _emit(args, _canonical_payload(obj), "%s,%d,%d,%d," % (
        obj["bundle"], obj["g"], obj["n"], obj["dim"]))
    if args.format == "text":
        print("skalg dim %d" % obj["dim"], file=sys.stderr)
    return EXIT_OK


def cmd_char_map(args) -> int:
    _, obj = _payload(args)
    _emit(args, _canonical_payload(obj), "%s,0,2,%d,%d" % (
        obj["bundle"], obj["dim"], obj["image_rank"]))
    return EXIT_OK


def cmd_rt_eval(args) -> int:
    bundle = _load_checked(args)
    diagram = load_diagram(bundle, args.diagram)
    mat = evaluate(bundle, diagram)
    obj = _matrix_obj(mat, with_float=args.float_col)
    _emit(args, _canonical_payload(obj))
    return EXIT_OK


def cmd_red_to_blue(args) -> int:
    bundle = _load_checked(args)
    try:
        with open(args.job, "r", encoding="utf-8") as fh:
            job = json.load(fh)
        p_rep = _resolve_module(bundle, job["P"])
        x_rep = _resolve_module(bundle, job.get("X", "trivial"))
        k = job["k"]
        if not isinstance(k, int) or isinstance(k, bool):
            raise TypeError("k %r is not an int" % (k,))
        f = _matrix_from_obj(job["f"], bundle.field)
    except (OSError, KeyError, TypeError, ValueError) as exc:
        print("error: malformed job file: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    terms = red_to_blue(bundle, f, p_rep, k, x_rep)
    obj = {"bundle": bundle.name, "k": k,
           "terms": [{"coefficient": c.to_obj(),
                      "matrix": _matrix_obj(m, with_float=args.float_col)}
                     for (c, m) in terms]}
    _emit(args, _canonical_payload(obj))
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modskein",
        description="Exact modified skein algebras for ribbon Hopf algebra "
                    "bundles.")
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--format", choices=("json", "text", "csv"),
                        default="json")
    parser.add_argument("--float", dest="float_col", action="store_true",
                        help="add a non-authoritative decimal column")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check every bundle axiom")
    p.add_argument("bundle")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("gen-uqsl2",
                       help="generate the restricted quantum sl2 bundle")
    p.add_argument("p", type=int)
    p.add_argument("out")
    p.add_argument("--with-r", action="store_true",
                   help="attempt the candidate R-matrix (validator decides)")
    p.set_defaults(fn=cmd_gen_uqsl2)

    p = sub.add_parser("slf", help="basis of symmetric linear forms")
    p.add_argument("bundle")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_slf)

    p = sub.add_parser("qchar", help="q-character of a module")
    p.add_argument("bundle")
    p.add_argument("module")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_qchar)

    p = sub.add_parser("skalg", help="modified skein algebra of a surface")
    p.add_argument("bundle")
    p.add_argument("g", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_skalg)

    p = sub.add_parser("char-map",
                       help="canonical map from the classical annulus algebra")
    p.add_argument("bundle")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_char_map)

    p = sub.add_parser("rt-eval", help="evaluate a diagram file")
    p.add_argument("bundle")
    p.add_argument("diagram")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_rt_eval)

    p = sub.add_parser("red-to-blue", help="resolve coend slots of a morphism")
    p.add_argument("bundle")
    p.add_argument("job")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_red_to_blue)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TypingError as exc:
        print("typing error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except (CapabilityError, InadmissibleError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except (StructureError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ModskeinError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
