"""Command-line surface: exit codes, formats, determinism, the README's
command list."""

import argparse
import ast
import json
import os
import re
import subprocess
import sys
from itertools import chain
from pathlib import Path

import pytest

import modskein
from modskein.bundles import sweedler_bundle, z2_bundle, z4_bundle
from modskein.cli import PAYLOADS, _float_str, build_parser, main
from modskein.cyclo import CycField
from modskein.hopf import bundle_to_obj
from test_hopf import _index_as, _perturbed


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    sw = root / "sweedler.json"
    sw.write_text(json.dumps(bundle_to_obj(sweedler_bundle())))
    z2 = root / "z2.json"
    z2.write_text(json.dumps(bundle_to_obj(z2_bundle())))
    return {"root": root, "sweedler": str(sw), "z2": str(z2)}


def run_cli(*argv, env=None, cwd=None):
    cmd = [sys.executable, "-m", "modskein.cli", *argv]
    return subprocess.run(cmd, capture_output=True, text=True, env=env,
                          cwd=cwd)


def test_validate_exit_codes(work):
    r = run_cli("validate", work["sweedler"])
    assert r.returncode == 0
    assert json.loads(r.stdout)["valid"]

    # corrupted bundle: exit 1 and a named axiom
    obj = bundle_to_obj(sweedler_bundle())
    for entry in obj["mult"]:
        if entry[:3] == [1, 1, 0] or tuple(entry[:3]) == (1, 1, 0):
            entry[3] = "3"
            break
    bad = work["root"] / "bad.json"
    bad.write_text(json.dumps(obj))
    r = run_cli("validate", str(bad))
    assert r.returncode == 1
    failures = json.loads(r.stdout)["failures"]
    assert failures and any("associativity" in f or "unit" in f
                            for f in failures)

    # missing file: exit 2
    r = run_cli("validate", str(work["root"] / "missing.json"))
    assert r.returncode == 2
    # unparsable file: exit 2
    junk = work["root"] / "junk.json"
    junk.write_text("{not json")
    r = run_cli("validate", str(junk))
    assert r.returncode == 2


def test_threads_flag_is_rejected(work):
    r = run_cli("--threads=2", "validate", work["sweedler"])
    assert r.returncode == 2
    assert "unrecognized arguments: --threads=2" in r.stderr


# The flags and the subcommand of the deleted results cache are unknown now.
@pytest.mark.parametrize("argv, error", [
    (("--cache-dir=D", "validate", "sweedler"),
     "unrecognized arguments: --cache-dir=D"),
    (("slf", "sweedler", "--verify"), "unrecognized arguments: --verify"),
    (("cache", "verify"), "invalid choice: 'cache'"),
], ids=["cache-dir", "verify", "cache-subcommand"])
def test_the_removed_cache_surface_is_rejected(work, argv, error):
    argv = [work.get(a, a) for a in argv]
    r = run_cli(*argv)
    assert r.returncode == 2 and r.stdout == ""
    assert error in r.stderr


def test_commands_write_nothing_but_their_output(work, tmp_path):
    # Run from an empty directory, with every directory that a results cache
    # could default to empty: only the --out file may appear.
    dirs = {name: tmp_path / name for name in ("cwd", "home", "xdg", "env")}
    for d in dirs.values():
        d.mkdir()
    env = {"HOME": str(dirs["home"]), "XDG_CACHE_HOME": str(dirs["xdg"]),
           "MODSKEIN_CACHE_DIR": str(dirs["env"]),
           "PYTHONPATH": str(Path(modskein.__file__).resolve().parents[1])}
    for argv in (("slf", work["z2"]), ("skalg", work["z2"], "0", "2"),
                 ("char-map", work["z2"])):
        out = tmp_path / ("%s.json" % argv[0])
        r = run_cli(*argv, "--out", str(out), env={**os.environ, **env},
                    cwd=dirs["cwd"])
        assert r.returncode == 0, r.stderr
        assert r.stdout == out.read_text(encoding="utf-8"), argv
        assert json.loads(r.stdout)["bundle"] == "z2"
    assert {name: list(d.iterdir()) for name, d in dirs.items()} == {
        name: [] for name in dirs}


def test_readme_lists_every_command_and_global_flag():
    # The README's "Command line" block names every subcommand in a
    # `modskein <cmd>` line, and its "Global flags" sentence names the
    # parser's global options, and nothing else.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(
        encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    listed = {m.group(1) for m in re.finditer(r"^modskein ([a-z][\w-]*)",
                                              block, re.M)}
    flags_line = section.split("Global flags:", 1)[1].split(".", 1)[0]
    named = set(re.findall(r"`(--[\w-]+)", flags_line))
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    options = {o for a in parser._actions for o in a.option_strings
               if o.startswith("--") and o not in ("--help", "--version")}
    assert listed == set(sub.choices)
    assert named == options == {"--format", "--float"}


def test_gen_uqsl2(work):
    out = work["root"] / "uq2.json"
    r = run_cli("gen-uqsl2", "2", str(out))
    assert r.returncode == 0
    note = json.loads(r.stdout)
    assert note["dim"] == 16 and note["valid"] and not note["has_r"]
    r2 = run_cli("validate", str(out))
    assert r2.returncode == 0

    out_r = work["root"] / "uq2r.json"
    r = run_cli("gen-uqsl2", "2", str(out_r), "--with-r")
    note = json.loads(r.stdout)
    assert note["valid"]
    cand = note["r_candidate"]
    assert cand["attempted"] and not cand["attached"]
    assert any("quasitriangular" in f for f in cand["validator_failures"])


def test_gen_uqsl2_below_p_2_is_a_named_usage_error(work):
    out = work["root"] / "uq1.json"
    r = run_cli("gen-uqsl2", "1", str(out))
    assert r.returncode == 2
    assert r.stderr == "error: p must be >= 2\n" and r.stdout == ""
    assert not out.exists()


def test_skalg_is_deterministic(work):
    r1 = run_cli("skalg", work["sweedler"], "0", "2")
    assert r1.returncode == 0
    r2 = run_cli("skalg", work["sweedler"], "0", "2")
    assert r2.returncode == 0 and r2.stdout == r1.stdout
    obj = json.loads(r1.stdout)
    assert obj["dim"] == 2 and obj["g"] == 0 and obj["n"] == 2


def test_skalg_csv_summary(work):
    r = run_cli("--format", "csv", "skalg", work["z2"], "0", "2")
    lines = r.stdout.strip().splitlines()
    assert lines[0] == "bundle,g,n,dim,image_rank"
    assert lines[1] == "z2,0,2,2,"


def test_char_map_csv(work):
    r = run_cli("--format", "csv", "char-map", work["z2"])
    lines = r.stdout.strip().splitlines()
    assert lines[1] == "z2,0,2,2,2"


@pytest.mark.parametrize("argv, row", [
    (("skalg", "z2", "0", "2"), "z2,0,2,2,"), (("char-map", "z2"), "z2,0,2,2,2")])
def test_csv_with_out_prints_the_row_and_writes_the_payload(work, argv, row):
    out = work["root"] / ("%s.out.json" % argv[0])
    r = run_cli("--format", "csv", argv[0], work[argv[1]], *argv[2:],
                "--out", str(out))
    assert r.returncode == 0
    assert r.stdout == "bundle,g,n,dim,image_rank\n%s\n" % row
    payload = run_cli(argv[0], work[argv[1]], *argv[2:]).stdout
    assert out.read_text(encoding="utf-8") == payload
    assert json.loads(payload)["bundle"] == "z2"


def test_slf_and_qchar(work):
    r = run_cli("slf", work["sweedler"])
    obj = json.loads(r.stdout)
    assert obj["dim"] == 2
    labels = [lbl for (lbl, _) in obj["basis"][0]]
    assert labels == ["1*", "g*", "x*", "gx*"]
    r = run_cli("qchar", work["sweedler"], "proj_plus")
    vals = dict(json.loads(r.stdout)["values"])
    assert vals["1*"] == "2"      # plain trace of the 2-dim projective cover
    r = run_cli("--float", "qchar", work["sweedler"], "proj_plus")
    obj = json.loads(r.stdout)
    assert "float_approx" in obj and "non-authoritative" in obj["float_note"]


def test_rt_eval_and_typing_exit(work):
    diag = {
        "bundle_ref": "sweedler",
        "bottom": [["proj_plus", "+"]], "top": [["proj_plus", "+"]],
        "slices": [
            [{"kind": "coev", "points": [["proj_plus", "+"]]},
             {"kind": "id", "points": [["proj_plus", "+"]]}],
            [{"kind": "id", "points": [["proj_plus", "+"]]},
             {"kind": "ev", "points": [["proj_plus", "+"]]}],
        ]}
    dpath = work["root"] / "zig.json"
    dpath.write_text(json.dumps(diag))
    r = run_cli("rt-eval", work["sweedler"], str(dpath))
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert obj["entries"] == [[0, 0, "1"], [1, 1, "1"]]

    bad = dict(diag)
    bad["slices"] = [diag["slices"][1]]
    bpath = work["root"] / "badslice.json"
    bpath.write_text(json.dumps(bad))
    r = run_cli("rt-eval", work["sweedler"], str(bpath))
    assert r.returncode == 1
    assert "slice 0" in r.stderr


def test_rt_eval_r3_pair_agrees(work):
    def braid_diag(order):
        a, bb, c = [["triv", "+"], ["proj_plus", "+"], ["proj_minus", "+"]]
        if order == "lhs":
            slices = [
                [{"kind": "braid", "points": [a, bb]},
                 {"kind": "id", "points": [c]}],
                [{"kind": "id", "points": [bb]},
                 {"kind": "braid", "points": [a, c]}],
                [{"kind": "braid", "points": [bb, c]},
                 {"kind": "id", "points": [a]}],
            ]
        else:
            slices = [
                [{"kind": "id", "points": [a]},
                 {"kind": "braid", "points": [bb, c]}],
                [{"kind": "braid", "points": [a, c]},
                 {"kind": "id", "points": [bb]}],
                [{"kind": "id", "points": [c]},
                 {"kind": "braid", "points": [a, bb]}],
            ]
        return {"bundle_ref": "sweedler", "bottom": [a, bb, c],
                "top": [c, bb, a], "slices": slices}

    outs = []
    for order in ("lhs", "rhs"):
        p = work["root"] / ("r3_%s.json" % order)
        p.write_text(json.dumps(braid_diag(order)))
        r = run_cli("rt-eval", work["sweedler"], str(p))
        outs.append(r.stdout)
    assert outs[0] == outs[1]


def test_red_to_blue_cli(work):
    from modskein.coend import coadjoint_rep
    from modskein.hopf import hom_space, regular_rep
    b = sweedler_bundle()
    f = hom_space(b, regular_rep(b), coadjoint_rep(b))[0]
    job = {"P": "regular", "k": 1, "X": "trivial",
           "f": {"rows": 4, "cols": 4,
                 "entries": [[r, c, f.data[r][c].to_obj()]
                             for r in range(4) for c in range(4)
                             if not f.data[r][c].is_zero()]}}
    jpath = work["root"] / "job.json"
    jpath.write_text(json.dumps(job))
    r = run_cli("red-to-blue", work["sweedler"], str(jpath))
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    assert len(obj["terms"]) == 1
    assert obj["terms"][0]["coefficient"] == "1"

    # non-projective P is rejected with the admissibility error, exit 1
    job_bad = dict(job)
    job_bad["P"] = "triv"
    job_bad["f"] = {"rows": 4, "cols": 1, "entries": []}
    bpath = work["root"] / "job_bad.json"
    bpath.write_text(json.dumps(job_bad))
    r = run_cli("red-to-blue", work["sweedler"], str(bpath))
    assert r.returncode == 1
    assert "projectivity" in r.stderr


def test_red_to_blue_job_drops_zeros_and_keeps_the_last_repeat(work):
    # an explicit "0" entry is no entry, and a repeated (r, c) keeps the
    # value listed last: the payload is byte-identical to the clean job's
    clean = _intertwiner_job(False)
    entries = clean["f"]["entries"]
    r, c, v = entries[0]
    held = {(e[0], e[1]) for e in entries}
    zero_at = next((i, j) for i in range(4) for j in range(4)
                   if (i, j) not in held)
    dirty = json.loads(json.dumps(clean))
    dirty["f"]["entries"] = ([[zero_at[0], zero_at[1], "0"], [r, c, "5"]]
                             + entries + [[r, c, "0"], [r, c, v]])
    outs = []
    for name, job in (("clean", clean), ("dirty", dirty)):
        path = work["root"] / ("job_%s.json" % name)
        path.write_text(json.dumps(job))
        res = run_cli("red-to-blue", work["sweedler"], str(path))
        assert res.returncode == 0, res.stderr
        outs.append(res.stdout.encode("utf-8"))
    assert outs[0] == outs[1]


def test_red_to_blue_cli_negative_k_is_a_usage_error(work):
    job = {"P": "regular", "k": -1, "X": "trivial",
           "f": {"rows": 4, "cols": 4, "entries": []}}
    jpath = work["root"] / "job_negative_k.json"
    jpath.write_text(json.dumps(job))
    r = run_cli("red-to-blue", work["sweedler"], str(jpath))
    assert r.returncode == 2
    assert "k must be >= 0" in r.stderr
    assert "Traceback" not in r.stderr


def _intertwiner_job(wrap):
    """A red-to-blue job on sweedler whose f is a regular -> coadjoint
    intertwiner; with `wrap`, each entry's row and column are written
    4 lower, which names the same entry if negative indices wrap."""
    from modskein.coend import coadjoint_rep
    from modskein.hopf import hom_space, regular_rep
    b = sweedler_bundle()
    f = hom_space(b, regular_rep(b), coadjoint_rep(b))[0]
    shift = 4 if wrap else 0
    return {"P": "regular", "k": 1, "X": "trivial",
            "f": {"rows": 4, "cols": 4,
                  "entries": [[r - shift, c - shift, f.data[r][c].to_obj()]
                              for r in range(4) for c in range(4)
                              if not f.data[r][c].is_zero()]}}


def _bad_bundle(edit):
    obj = bundle_to_obj(sweedler_bundle())
    edit(obj)
    return obj


def _bad_job(edit):
    job = _intertwiner_job(False)
    edit(job)
    return job


def _coupon_diagram(coeffs):
    """A one-coupon diagram on sweedler's proj_plus with `coeffs`."""
    pp = ["proj_plus", "+"]
    return {"bottom": [pp], "top": [pp], "slices": [[
        {"kind": "coupon", "dom": [pp], "cod": [pp], "coeffs": coeffs}]]}


def _one_generator_diagram(kind, n):
    """A one-slice diagram whose only generator is `kind` on n triv points."""
    pts = [["triv", "+"]] * n
    return {"bottom": pts, "top": pts,
            "slices": [[{"kind": kind, "points": pts}]]}


# Malformed inputs: (command, the file's content).  Each must end in a named
# error with exit 2, not in a traceback or in a silent wrong read.
MALFORMED = {
    "negative action index": ("validate", lambda: _bad_bundle(
        lambda o: o["modules"]["triv"]["action"].append([-1, 0, 0, "5"]))),
    "mult index not an int": ("validate", lambda: _bad_bundle(
        lambda o: o["mult"][0].__setitem__(0, "a"))),
    "float coefficient": ("validate", lambda: _bad_bundle(
        lambda o: o["mult"][0].__setitem__(3, 0.5))),
    "zero denominator": ("validate", lambda: _bad_bundle(
        lambda o: o["mult"][0].__setitem__(3, "1/0"))),
    "cyclotomic order 0": ("validate", lambda: _bad_bundle(
        lambda o: o.__setitem__("cyclotomic_order", 0))),
    "negative f index": ("red-to-blue", lambda: _intertwiner_job(True)),
    "f index not an int": ("red-to-blue", lambda: _bad_job(
        lambda j: j["f"]["entries"][0].__setitem__(0, "a"))),
    "f zero denominator": ("red-to-blue", lambda: _bad_job(
        lambda j: j["f"]["entries"][0].__setitem__(2, "1/0"))),
    "float mult index": ("validate", lambda: _bad_bundle(
        _index_as("mult", 1, 1.7))),
    "bool comult index": ("validate", lambda: _bad_bundle(
        _index_as("comult", 1, True))),
    "float module dim": ("validate", lambda: _bad_bundle(
        lambda o: o["modules"]["reg"].__setitem__("dim", 4.0))),
    "float f index": ("red-to-blue", lambda: _bad_job(
        lambda j: _index_as("entries", 1, 1.5)(j["f"]))),
    "float f cols": ("red-to-blue", lambda: _bad_job(
        lambda j: j["f"].__setitem__("cols", 4.0))),
    "float k": ("red-to-blue", lambda: _bad_job(
        lambda j: j.__setitem__("k", 1.5))),
    "float coupon coefficient": ("rt-eval",
                                 lambda: _coupon_diagram([0.5])),
    "coupon coefficients as a dict": ("rt-eval",
                                      lambda: _coupon_diagram({"1": "1"})),
    "id with two points": ("rt-eval", lambda: _one_generator_diagram("id", 2)),
    "braid with one point": ("rt-eval",
                             lambda: _one_generator_diagram("braid", 1)),
    "ev with no points": ("rt-eval", lambda: _one_generator_diagram("ev", 0)),
    "ev on a minus point": ("rt-eval", lambda: {
        "bottom": [["proj_plus", "-"], ["proj_plus", "+"]], "top": [],
        "slices": [[{"kind": "ev", "points": [["proj_plus", "-"]]}]]}),
    "admissible as a string": ("rt-eval", lambda: {
        **_one_generator_diagram("id", 1), "admissible": "false"}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_is_a_usage_error(work, case):
    command, content = MALFORMED[case]
    path = work["root"] / ("malformed_%s.json" % case.replace(" ", "_"))
    path.write_text(json.dumps(content()))
    argv = ((command, str(path)) if command == "validate"
            else (command, work["sweedler"], str(path)))
    r = run_cli(*argv)
    assert r.returncode == 2, (r.stdout, r.stderr)
    assert r.stderr.startswith("error: ")
    assert "Traceback" not in r.stderr


# An input file that cannot be read, or is not UTF-8 JSON, is a usage error
# that names the file, whichever command reads it and in whichever role.
@pytest.mark.parametrize("content", [None, b"{not json", b"\xff\xfe\x00"],
                         ids=["missing", "not JSON", "not UTF-8"])
@pytest.mark.parametrize("argv, what", [
    (("validate", "FILE"), "bundle"),
    (("slf", "FILE"), "bundle"),
    (("rt-eval", "sweedler", "FILE"), "diagram"),
    (("red-to-blue", "sweedler", "FILE"), "job"),
], ids=["validate", "slf", "rt-eval", "red-to-blue"])
def test_an_unreadable_input_file_is_named(tmp_path, capsys, work, argv,
                                           what, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_bytes(content)
    argv = [str(path) if a == "FILE" else work.get(a, a) for a in argv]
    code, out, err = run_main(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: cannot read %s file %s: " % (what, path))
    assert err.count("\n") == 1


def test_every_payload_command_comes_from_the_table():
    # The subcommands are the payload table's and the two bundle commands,
    # and every payload command takes --out.
    parser = build_parser()
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(PAYLOADS) | {"validate", "gen-uqsl2"}
    for name in PAYLOADS:
        options = {o for a in sub.choices[name]._actions
                   for o in a.option_strings}
        assert "--out" in options, name


def test_only_the_cli_reads_files():
    # Outside `cli`, the engine opens no file, for reading or for writing,
    # and never loads JSON from a file or a path.
    src = Path(modskein.__file__).parent
    calls = {}
    for path in sorted(src.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            if name in ("open", "load", "dump", "read_text", "read_bytes",
                        "write_text", "write_bytes"):
                calls.setdefault(path.name, []).append(node.lineno)
    assert calls == {}


# The modules whose public names a command, a demo or the benchmark must
# use; `bundles` is left out, since its names are shipped data.
SURFACE_MODULES = ("cyclo", "hopf", "rt", "coend", "surface", "errors")


def _public_names(tree) -> set:
    """The names in a module's `__all__`, or, without one, its public
    top-level classes and functions."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]):
            return set(ast.literal_eval(node.value))
    return {node.name for node in tree.body
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            and not node.name.startswith("_")}


def _used_names(node, own=frozenset()):
    """The names and attributes referenced in `node`, except inside the
    definition (a function, a class or a method) of the same name."""
    if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        own = own | {node.name}
    name = getattr(node, "id", getattr(node, "attr", None))
    if isinstance(node, (ast.Name, ast.Attribute)) and name not in own:
        yield name
    for child in ast.iter_child_nodes(node):
        yield from _used_names(child, own)


def _public_methods(tree, classes) -> set:
    """Class.method for the public non-dunder methods of `classes`."""
    return {"%s.%s" % (node.name, f.name) for node in tree.body
            if isinstance(node, ast.ClassDef) and node.name in classes
            for f in node.body
            if isinstance(f, ast.FunctionDef) and not f.name.startswith("_")}


def test_every_public_engine_name_is_used_outside_the_tests():
    # A name or attribute in the engine, the demos or the benchmark counts
    # as a use, except inside the definition of that name; an import and an
    # `__all__` string do not.  A method counts by its attribute name.
    root = Path(__file__).resolve().parent.parent
    src = Path(modskein.__file__).parent
    used = set()
    for path in sorted(chain(src.glob("*.py"), (root / "demos").glob("*.py"),
                             (root / "perfbench").glob("*.py"))):
        used.update(_used_names(ast.parse(path.read_text(encoding="utf-8"))))
    unused = {}
    for mod in SURFACE_MODULES:
        tree = ast.parse((src / (mod + ".py")).read_text(encoding="utf-8"))
        names = _public_names(tree)
        unused[mod] = sorted(names - used) + sorted(
            m for m in _public_methods(tree, names)
            if m.split(".")[1] not in used)
    assert unused == {mod: [] for mod in SURFACE_MODULES}


def _mutant_z4_r():
    obj = bundle_to_obj(z4_bundle())
    obj["R"][0][-1] = _perturbed(obj["R"][0][-1])
    return obj


def _mutant_sweedler_ribbon():
    obj = bundle_to_obj(sweedler_bundle())
    obj["ribbon"][0] = _perturbed(obj["ribbon"][0])
    return obj


@pytest.mark.parametrize("make, named", [
    (_mutant_z4_r, "quasitriangular"),
    (_mutant_sweedler_ribbon, "ribbon:"),
])
def test_commands_refuse_an_invalid_bundle(work, tmp_path, make, named):
    obj = make()
    path = tmp_path / "mutant.json"
    path.write_text(json.dumps(obj))
    r = run_cli("validate", str(path))
    assert r.returncode == 1
    failures = json.loads(r.stdout)["failures"]
    assert any(f.startswith(named) for f in failures)
    module = sorted(obj["modules"])[0]
    strand = [module, "+"]
    diag = tmp_path / "id.json"
    diag.write_text(json.dumps({
        "bundle_ref": obj["name"], "bottom": [strand], "top": [strand],
        "slices": [[{"kind": "id", "points": [strand]}]]}))
    job = tmp_path / "job.json"
    job.write_text(json.dumps({
        "P": "regular", "k": 1, "X": "trivial",
        "f": {"rows": obj["dim"], "cols": obj["dim"], "entries": []}}))
    for argv in (["skalg", str(path), "0", "2"], ["char-map", str(path)],
                 ["slf", str(path)], ["qchar", str(path), module],
                 ["rt-eval", str(path), str(diag)],
                 ["red-to-blue", str(path), str(job)]):
        r = run_cli(*argv)
        assert r.returncode == 1, argv
        assert r.stdout == "", argv
        assert "is not valid" in r.stderr, argv
        assert ["FAIL %s" % f for f in failures] == \
            r.stderr.strip().splitlines()[1:], argv


# -- in-process runs of `main` ----------------------------------------------------

def run_main(capsys, *argv):
    """(exit code, stdout, stderr) of `main(argv)` in this process."""
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_main_leaves_the_environment_unchanged(work, capsys):
    before = dict(os.environ)
    code, _, _ = run_main(capsys, "slf", work["z2"])
    assert code == 0
    assert dict(os.environ) == before


def _without(*keys):
    def edit(obj):
        for key in keys:
            del obj[key]
    return edit


# Shape errors of a sweedler bundle file: (edit, the message it must name).
SHAPE_ERRORS = {
    "dim 0": (lambda o: o.__setitem__("dim", 0),
              "dimension must be >= 1, got 0"),
    "short unit": (lambda o: o["unit"].pop(),
                   "unit vector must have length 4"),
    "short counit": (lambda o: o["counit"].pop(),
                     "counit vector must have length 4"),
    "short pivotal": (lambda o: o["pivotal"].pop(),
                      "pivotal vector must have length 4"),
    "mult index 4": (lambda o: o["mult"].append([0, 0, 4, "1"]),
                     "mult index out of range: (0, 0, 4)"),
    "comult index 4": (lambda o: o["comult"].append([4, 0, 0, "1"]),
                       "comult index out of range: (4, 0, 0)"),
    "R index 4": (lambda o: o["R"].append([0, 4, "1"]),
                  "R index out of range: (0, 4)"),
    "R_inv index 4": (lambda o: o["R_inv"].append([4, 0, "1"]),
                      "R index out of range: (4, 0)"),
    "3x4 antipode": (lambda o: o["antipode"].pop(),
                     "antipode must be a 4x4 matrix"),
    "R without R_inv": (_without("R_inv"),
                        "R and R_inv must be given together"),
    "R_inv without R": (_without("R"), "R and R_inv must be given together"),
    "short ribbon": (lambda o: o["ribbon"].pop(),
                     "ribbon vector must have length 4"),
    "ribbon without R": (_without("R", "R_inv"),
                         "ribbon element requires R"),
    "three basis labels": (lambda o: o["basis_labels"].pop(),
                           "need 4 basis labels"),
    "basis labels as a string": (
        lambda o: o.__setitem__("basis_labels", "abcd"),
        "basis_labels must be a list of strings"),
    "simples as a string": (lambda o: o.__setitem__("simples", "triv"),
                            "simples must be a list of strings"),
    "simple that is not a string": (lambda o: o["simples"].append(0),
                                  "simples must be a list of strings"),
    "unknown simple": (lambda o: o["simples"].append("nope"),
                       "simple 'nope' not in module list"),
    "no basis labels": (lambda o: o.__setitem__("basis_labels", []),
                        "need 4 basis labels"),
    "simple listed twice": (
        lambda o: o.__setitem__("simples", ["triv", "triv"]),
        "simple 'triv' listed twice"),
}


@pytest.mark.parametrize("case", sorted(SHAPE_ERRORS))
def test_a_shape_error_is_a_named_usage_error(tmp_path, capsys, case):
    edit, message = SHAPE_ERRORS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_bad_bundle(edit)))
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == "error: %s\n" % message


def test_a_bool_coefficient_is_a_named_usage_error(tmp_path, capsys):
    # JSON true is a Python int; read as the rational 1 it would load a
    # valid bundle, so it must be refused like a float
    path = tmp_path / "bool_unit.json"
    path.write_text(json.dumps(_bad_bundle(
        lambda o: o["unit"].__setitem__(0, True))))
    code, out, err = run_main(capsys, "validate", str(path))
    assert code == 2 and out == ""
    assert err == ("error: malformed bundle object: cannot parse an exact "
                   "rational from True\n")


def test_validate_text_format(work, tmp_path, capsys):
    code, out, _ = run_main(capsys, "--format", "text", "validate",
                            work["sweedler"])
    assert code == 0 and out == "VALID sweedler (dim 4)\n"
    obj = bundle_to_obj(sweedler_bundle())
    obj["pivotal"] = ["1", "0", "0", "0"]
    path = tmp_path / "bad_pivotal.json"
    path.write_text(json.dumps(obj))
    code, out, _ = run_main(capsys, "validate", str(path))
    failures = json.loads(out)["failures"]
    assert code == 1 and failures
    code, out, _ = run_main(capsys, "--format", "text", "validate", str(path))
    assert code == 1
    assert out.splitlines() == ["FAIL %s" % f for f in failures]


def test_float_str_renders_noise_below_1e_12_as_0():
    # cos(2 pi / 4) and cos(2 pi * 2 / 8) are about 6e-17 and 2e-16 in
    # binary, and must not be printed as a real part.
    z4, z8 = CycField(4), CycField(8)
    assert _float_str(z4.zeta()) == "0+1j"
    assert _float_str(z4.zeta(3)) == "0-1j"
    assert _float_str(z8.zeta(2)) == "0+1j"
    assert _float_str(z4.zeta(2)) == "-1"
    assert _float_str(z8.zeta()) == "0.707106781187+0.707106781187j"


# `--float` adds a decimal column; a command that renders none refuses it
# before it reads or writes a file.
@pytest.mark.parametrize("argv", [
    ("validate", "sweedler"), ("gen-uqsl2", "2", "OUT"),
    ("skalg", "z2", "0", "2"), ("char-map", "z2"),
], ids=["validate", "gen-uqsl2", "skalg", "char-map"])
def test_float_is_refused_where_no_decimal_column_renders(work, tmp_path,
                                                          capsys, argv):
    out_path = tmp_path / "out.json"
    argv = [str(out_path) if a == "OUT" else work.get(a, a) for a in argv]
    code, out, err = run_main(capsys, "--float", *argv)
    assert code == 2 and out == "" and not out_path.exists()
    assert err == ("error: %s renders no decimal column; --float is "
                   "refused\n" % argv[0])


def test_slf_float_column_renders_every_basis_entry(work, capsys):
    _, exact, _ = run_main(capsys, "slf", work["sweedler"])
    code, out, _ = run_main(capsys, "--float", "slf", work["sweedler"])
    assert code == 0
    exact, obj = json.loads(exact), json.loads(out)
    assert obj.pop("float_note") == "decimal rendering is non-authoritative"
    rendered = obj.pop("float_approx")
    assert obj == exact
    assert rendered == [[["1*", "1"], ["g*", "0"], ["x*", "0"], ["gx*", "0"]],
                        [["1*", "0"], ["g*", "1"], ["x*", "0"], ["gx*", "0"]]]
