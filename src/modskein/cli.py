"""Command-line surface: bundle generation, validation and evaluation.

All numeric output is exact ("p/q" strings and cyclotomic coefficient
records); `--float` adds a decimal rendering column that is clearly marked
non-authoritative.  Every command is bit-reproducible for identical inputs
and engine version: there is no randomness anywhere and all pivot orders are
fixed.  Every command computes its payload afresh and writes nothing but
stdout and `--out`.  Every command that computes on a bundle validates it
first, and exits 1 with the named failures when it is not valid.

The six payload commands are the rows of one table, `PAYLOADS`, and run
through one function, `cmd_payload`.  Every input file (bundle, diagram,
job) is read by `_read_json`, and every output file (`--out`, the bundle of
`gen-uqsl2`) is written by `_write`; no other module of the engine opens a
file.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .bundles import uqsl2_bundle
from .coend import qchar, red_to_blue, slf_basis
from .cyclo import CycNum, ExactMatrix, _matrix, _parse_index, _sparse_rows
from .errors import ModskeinError, StructureError, TypingError
from .hopf import (HopfBundle, bundle_from_obj, bundle_to_obj, regular_rep,
                   trivial_rep, validate_bundle)
from .rt import diagram_from_obj, evaluate
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
        obj.update(_float_columns([[r, c, _float_str(v)]
                                   for r, c, v in entries]))
    return obj


def _float_str(v: CycNum) -> str:
    """The decimal rendering of v; a real or imaginary part below 1e-12 is
    the noise of `to_complex` and renders as 0."""
    z = v.to_complex()
    real, imag = (x if abs(x) >= 1e-12 else 0.0 for x in (z.real, z.imag))
    if imag == 0.0:
        return "%.12g" % real
    return "%.12g%+.12gj" % (real, imag)


def _float_columns(approx: list) -> dict:
    return {"float_approx": approx,
            "float_note": "decimal rendering is non-authoritative"}


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


def _read_json(path: str, what: str):
    """The JSON value in the `what` file at `path`.  Every input file is
    read here; one that cannot be read or is not JSON is a StructureError
    that names the file."""
    try:
        with open(path, "rb") as fh:
            return json.loads(fh.read().decode("utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StructureError("cannot read %s file %s: %s"
                             % (what, path, exc)) from exc


def _write(path: str, payload: bytes) -> None:
    """Write `payload` to the file at `path`; every output file is written
    here."""
    with open(path, "wb") as fh:
        fh.write(payload)


def _load_checked(args) -> HopfBundle:
    """Read, parse and validate args.bundle.

    Every command that computes on a bundle loads it here, so none computes
    on a bundle that fails an axiom; the failures are named in the error
    (exit 1).
    """
    bundle = bundle_from_obj(_read_json(args.bundle, "bundle"))
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


def _job_from_obj(bundle: HopfBundle, obj) -> tuple:
    """(P, k, X, f) of a red-to-blue job object."""
    try:
        p_rep = _resolve_module(bundle, obj["P"])
        x_rep = _resolve_module(bundle, obj.get("X", "trivial"))
        return p_rep, obj["k"], x_rep, _matrix_from_obj(obj["f"],
                                                         bundle.field)
    except (LookupError, TypeError, ValueError) as exc:
        raise StructureError("malformed job file: %s" % exc) from exc


def _form_floats(bundle: HopfBundle, form) -> list:
    """The decimal rendering of a form, labelled as in `form.to_obj`."""
    return [[label + "*", _float_str(c)]
            for label, c in zip(bundle.basis_labels, form.coords)]


# ---------------------------------------------------------------------------
# Payload commands
# ---------------------------------------------------------------------------


def _slf_payload(bundle: HopfBundle, args) -> dict:
    basis = slf_basis(bundle)
    obj = {"bundle": bundle.name, "dim": len(basis),
           "basis": [f.to_obj(bundle) for f in basis]}
    if args.float_col:
        obj.update(_float_columns([_form_floats(bundle, f) for f in basis]))
    return obj


def _qchar_payload(bundle: HopfBundle, args) -> dict:
    form = qchar(bundle, _resolve_module(bundle, args.module))
    obj = {"bundle": bundle.name, "module": args.module,
           "values": form.to_obj(bundle)}
    if args.float_col:
        obj.update(_float_columns(_form_floats(bundle, form)))
    return obj


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


def _rt_eval_payload(bundle: HopfBundle, args) -> dict:
    diagram = diagram_from_obj(bundle, _read_json(args.diagram, "diagram"))
    return _matrix_obj(evaluate(bundle, diagram), with_float=args.float_col)


def _red_to_blue_payload(bundle: HopfBundle, args) -> dict:
    p_rep, k, x_rep, f = _job_from_obj(bundle, _read_json(args.job, "job"))
    terms = red_to_blue(bundle, f, p_rep, k, x_rep)
    return {"bundle": bundle.name, "k": k,
            "terms": [{"coefficient": c.to_obj(),
                       "matrix": _matrix_obj(m, with_float=args.float_col)}
                      for (c, m) in terms]}


# The payload commands: command -> (help, arguments after the bundle as
# (name, type) pairs, builder, CSV row, text summary).  A builder takes the
# checked bundle and the parsed args and returns the payload object, with
# its `--float` columns when the command renders them.  The CSV row and the
# text summary are %-formats over that object; a command without a CSV row
# prints its payload under `--format csv`.
PAYLOADS = {
    "slf": ("basis of symmetric linear forms", (),
            _slf_payload, None, "slf dim %(dim)d"),
    "qchar": ("q-character of a module", (("module", str),),
              _qchar_payload, None, None),
    "skalg": ("modified skein algebra of a surface",
              (("g", int), ("n", int)), _skalg_payload,
              "%(bundle)s,%(g)d,%(n)d,%(dim)d,", "skalg dim %(dim)d"),
    "char-map": ("canonical map from the classical annulus algebra", (),
                 _char_map_payload,
                 "%(bundle)s,%(g)d,%(n)d,%(dim)d,%(image_rank)d", None),
    "rt-eval": ("evaluate a diagram file", (("diagram", str),),
                _rt_eval_payload, None, None),
    "red-to-blue": ("resolve coend slots of a morphism", (("job", str),),
                    _red_to_blue_payload, None, None),
}


def cmd_payload(args) -> int:
    """Build args.command's payload on the checked bundle; write it to
    --out, and print it, or under --format csv the command's CSV row when
    it has one; under --format text, the summary goes to stderr."""
    _, _, build, csv_row, summary = PAYLOADS[args.command]
    obj = build(_load_checked(args), args)
    payload = _canonical_payload(obj)
    if args.out:
        _write(args.out, payload)
    if args.format == "csv" and csv_row is not None:
        print("bundle,g,n,dim,image_rank")
        print(csv_row % obj)
    elif args.format == "json" or args.out is None:
        sys.stdout.write(payload.decode("utf-8"))
    if args.format == "text" and summary is not None:
        print(summary % obj, file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Bundle commands
# ---------------------------------------------------------------------------


def _report(args, note: dict, headline: str | None) -> int:
    """Print a bundle command's note: under --format text, `headline` and a
    FAIL line per failure, else the note as JSON.  Exit 1 on a failure."""
    failures = note["failures"]
    if args.format == "text":
        if headline is not None:
            print(headline)
        for f in failures:
            print("FAIL %s" % f)
    else:
        print(json.dumps(note, indent=1))
    return EXIT_OK if not failures else EXIT_FAIL


def cmd_validate(args) -> int:
    bundle = bundle_from_obj(_read_json(args.bundle, "bundle"))
    failures = validate_bundle(bundle)
    return _report(args, {"bundle": bundle.name, "valid": not failures,
                          "failures": failures},
                   None if failures else
                   "VALID %s (dim %d)" % (bundle.name, bundle.dim))


def cmd_gen_uqsl2(args) -> int:
    bundle = uqsl2_bundle(args.p, with_r=args.with_r)
    _write(args.out, (json.dumps(bundle_to_obj(bundle), indent=1) + "\n"
                      ).encode("utf-8"))
    failures = validate_bundle(bundle)
    note = {"bundle": bundle.name, "dim": bundle.dim, "out": args.out,
            "has_r": bundle.has_r, "valid": not failures,
            "failures": failures}
    if "r_candidate" in bundle.metadata:
        note["r_candidate"] = bundle.metadata["r_candidate"]
    return _report(args, note, "wrote %s (dim %d, %s)" % (
        args.out, bundle.dim,
        "ribbon" if bundle.has_ribbon else "pivotal-only"))


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

    for name, (help_text, params, *_) in PAYLOADS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("bundle")
        for param, kind in params:
            p.add_argument(param, type=kind)
        p.add_argument("--out")
        p.set_defaults(fn=cmd_payload)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except TypingError as exc:
        print("typing error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL
    except (StructureError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except ModskeinError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
