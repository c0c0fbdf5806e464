"""Golden payloads: sha256 of the canonical JSON that the CLI writes.

The payloads of every payload command, with and without `--float`, are
the engine's product.  Any refactor of the kernel, the module layer or the
CLI must leave them byte-identical; a deliberate change of convention
updates the hashes here in the same commit that changes the output.
"""

import hashlib
import json

import pytest

from modskein.bundles import sweedler_bundle, z2_bundle, z4_bundle
from modskein.cli import main
from modskein.coend import coadjoint_rep
from modskein.hopf import bundle_to_obj, hom_space, regular_rep, tensor_rep

GOLDEN = {
    ("slf", "z2", ()):
        "01be6133d1be2f6857e555ed4669c4f2a8fc3de6773863a04966b24261941fd9",
    ("slf", "sweedler", ()):
        "50ee4b74a1cd078a2556f1455c1218e78253e55d5d2d66f70741a0397de2d0a1",
    ("slf", "z4", ()):
        "3bb1b820559fad57e391adcca6fa34b5f7d9b952fe120ce8f54d04446541d98b",
    ("slf", "uqsl2_p2", ()):
        "2aa9adc3cc6969323f464e5b97a3b36b065ff6926573b675891dbd3d80998e58",
    ("skalg", "z2", ("0", "2")):
        "79d859d415d541f729c6b87927006a9a70aa81a6175d4ef5ac19e820b046a770",
    ("skalg", "sweedler", ("0", "2")):
        "63603f2a2fd1108b71a12b9b780bf867745c0056ffbb54a45f82705254566e5d",
    ("skalg", "z4", ("0", "2")):
        "28ffecd7ea7bd3d7fe78ee80a25d3b3ebed8ccf6a7560eb54c2319de7e04f164",
    ("skalg", "sweedler", ("1", "1")):
        "aba4a2d4ffcb32c3d6afc74a4989a5b8ab87d6b973783609866c8c9fd8027045",
    ("char-map", "z2", ()):
        "40b9b1fe9737427e701bcb870eb27f062daddc415e71f2fa5abb8ce4f5437c18",
    ("char-map", "sweedler", ()):
        "15aeca02d992a0ef6e4808b15be8485656f82827d50538857b68611791a33631",
    ("char-map", "z4", ()):
        "9fee25b26c99fd1a6d385cb44a133efd1b2990ff2226a94b6cdfd8fafc1da583",
    # Products on L^(x)3 (sweedler at g = 1, n = 2) and on L^(x)2 over Q(i).
    ("skalg", "sweedler", ("1", "2")):
        "6723d30b4e0deda6fc988ad1e51274a60f065e459849570fc18c4ab550cdc58e",
    ("skalg", "z4", ("1", "1")):
        "98a217a872f2171ef1ba55960dc6f270ea849b056df2652eb4018b003fd7a97e",
    ("skalg", "z4", ("0", "3")):
        "cc90650659c96f58de7d68b12490d349743354afb2ea37e00b0bfc85ce5ffb22",
    # The largest shipped algebras: dim 64 on L^(x)3 over Q(i), and dim 68
    # on L^(x)4 (sweedler at g = 2, n = 1).
    ("skalg", "z4", ("1", "2")):
        "d434a7a7bc8d2feb78829007adabe6dfd2fb37baed0a3acb18288d8ddccdbb41",
    ("skalg", "sweedler", ("2", "1")):
        "9ff7139c2bcaf6cf2d1f1f38d01c5802d4d313187c2b8e0c2113c82d71786fa3",
    # q-characters: of a projective cover, and of the regular module.
    ("qchar", "sweedler", ("proj_plus",)):
        "a787f843b3580799ebe5d94b2bb5f3d7f368ed8ca65d05dc30470f77d7f9e608",
    ("qchar", "z2", ("regular",)):
        "2a321d8a7b02f1d110579f0df3e4e2ce9970f8d4475c183cc2f45b53d34ee2c3",
}

# sha256 of the bundle file written by `gen-uqsl2 p`, keyed by (p, flags),
# without and with the candidate R.  The order of its mult and comult
# entries is the order in which the normal-ordering rewriter's sparse sums
# first meet each key.
GEN_UQSL2_GOLDEN = {
    (2, ()):
        "67ec6b5098f747ba8dc65bcdeefdc84dc00a2ef4ef8bd9434db2d46cbc596b9f",
    (2, ("--with-r",)):
        "6c0330d7d73ac3b2ba389892a8e50b20bf8d20c9306e0c6762ef77c774d92953",
    (3, ()):
        "af78d3ac4291cfbf7cd9e34d21afa85b0e9697e76ae3926eebafe826475bbf1f",
    (3, ("--with-r",)):
        "7408461511e0ce1c943d8c55feaadaf5b77eac7f2bee1e574ecd4ce64b32c9e1",
}


@pytest.fixture(scope="module")
def bundle_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    paths = {}
    for name, maker in (("z2", z2_bundle), ("sweedler", sweedler_bundle),
                        ("z4", z4_bundle)):
        path = root / ("%s.json" % name)
        path.write_text(json.dumps(bundle_to_obj(maker())))
        paths[name] = str(path)
    paths["uqsl2_p2"] = str(root / "uqsl2_p2.json")
    assert main(["--format", "text", "gen-uqsl2", "2",
                 paths["uqsl2_p2"]]) == 0
    return root, paths


def _payload_sha(tmp_path, bundle_path, argv, flags=()):
    out = tmp_path / "payload.json"
    code = main(["--format", "text", *flags, argv[0], bundle_path] + argv[1:]
                + ["--out", str(out)])
    assert code == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


# Parametrized test ids are positional ("args5"): the first eleven entries
# are sorted and the later ones follow in order, so an added payload never
# renames the test of an older one.
GOLDEN_CASES = sorted(list(GOLDEN)[:11]) + list(GOLDEN)[11:]


@pytest.mark.parametrize("op,bundle,args", GOLDEN_CASES)
def test_golden_payload(bundle_files, tmp_path, op, bundle, args):
    _, paths = bundle_files
    got = _payload_sha(tmp_path, paths[bundle], [op] + list(args))
    assert got == GOLDEN[(op, bundle, args)]


# Ids are positional ("flags2"), so an added case never renames an older one.
@pytest.mark.parametrize("p,flags", list(GEN_UQSL2_GOLDEN),
                         ids=["flags%d" % i
                              for i in range(len(GEN_UQSL2_GOLDEN))])
def test_golden_gen_uqsl2_bundle(tmp_path, p, flags):
    out = tmp_path / "uq.json"
    assert main(["--format", "text", "gen-uqsl2", str(p), str(out)]
                + list(flags)) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == GEN_UQSL2_GOLDEN[(p, flags)]


# The disk layer: `rt-eval` and `red-to-blue` payloads on job files that
# `_disk_job` writes.  Keys are (op, bundle, job name).
DISK_GOLDEN = {
    ("rt-eval", "sweedler", "r3-lhs"):
        "9443e41fa8bd9c15f97d63dcbdb9d2b121c8bdbebde5f5ef8ddd53a59036ed8d",
    ("rt-eval", "sweedler", "r3-rhs"):
        "9443e41fa8bd9c15f97d63dcbdb9d2b121c8bdbebde5f5ef8ddd53a59036ed8d",
    ("rt-eval", "z4", "ev-coev-twist-braid-inv"):
        "92330e70337fc52905a1db66d1590cf7f910519afb379bda016dcc3bd97a10d1",
    ("red-to-blue", "sweedler", "regular-k1"):
        "a175854468505fb33a60130de5e791435331a95ec9c71fb4ce7dbb35ecfc1014",
    ("red-to-blue", "z4", "chi1-k2"):
        "a5f0cccee7f86b0600f07f56afb60de94fe7bc54ea719fcd42cc4d2151ce33cd",
}


def _gen(kind, *points):
    return {"kind": kind, "points": [list(p) for p in points]}


def _r3_diagram(side):
    """One side of the braid relation on strands colored reg, proj_plus, sgn."""
    a, b, c = ("reg", "+"), ("proj_plus", "+"), ("sgn", "+")
    if side == "lhs":
        slices = [[_gen("braid", a, b), _gen("id", c)],
                  [_gen("id", b), _gen("braid", a, c)],
                  [_gen("braid", b, c), _gen("id", a)]]
    else:
        slices = [[_gen("id", a), _gen("braid", b, c)],
                  [_gen("braid", a, c), _gen("id", b)],
                  [_gen("id", c), _gen("braid", a, b)]]
    return {"bottom": [list(a), list(b), list(c)],
            "top": [list(c), list(b), list(a)], "slices": slices}


def _z4_diagram():
    """A z4 diagram through ev, coev, twist and braid_inv."""
    rp, rm, x = ("reg", "+"), ("reg", "-"), ("chi1", "+")
    return {"bottom": [list(rm), list(rp), list(x)],
            "top": [list(rp), list(rm), list(x)],
            "slices": [[_gen("ev", rp), _gen("twist", x)],
                       [_gen("id", x), _gen("coev", rp)],
                       [_gen("braid_inv", x, rp), _gen("twist", rm)],
                       [_gen("twist", rp), _gen("braid_inv", x, rm)]]}


def _rtb_job(b, p_name, x_name, k):
    """A red-to-blue job on f = sum (t + 1) * (t-th basis vector of
    Hom(P, L^(x)k (x) X))."""
    p_rep = regular_rep(b) if p_name == "regular" else b.module(p_name)
    x_rep = b.module(x_name) if x_name != "trivial" else None
    target = coadjoint_rep(b)
    for _ in range(k - 1):
        target = tensor_rep(b, target, coadjoint_rep(b))
    if x_rep is not None:
        target = tensor_rep(b, target, x_rep)
    basis = hom_space(b, p_rep, target)
    f = basis[0]
    for t, mat in enumerate(basis[1:], start=1):
        f = f + mat.scale(t + 1)
    return {"P": p_name, "X": x_name, "k": k,
            "f": {"rows": f.rows, "cols": f.cols,
                  "entries": [[r, c, f.data[r][c].to_obj()]
                              for r in range(f.rows) for c in range(f.cols)
                              if not f.data[r][c].is_zero()]}}


def _disk_job(bundle, job):
    if job == "r3-lhs":
        return _r3_diagram("lhs")
    if job == "r3-rhs":
        return _r3_diagram("rhs")
    if job == "ev-coev-twist-braid-inv":
        return _z4_diagram()
    if job == "regular-k1":
        return _rtb_job(sweedler_bundle(), "regular", "trivial", 1)
    return _rtb_job(z4_bundle(), "chi1", "chi1", 2)


@pytest.mark.parametrize("op,bundle,job", sorted(DISK_GOLDEN))
def test_golden_disk_payload(bundle_files, tmp_path, op, bundle, job):
    _, paths = bundle_files
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(_disk_job(bundle, job)))
    got = _payload_sha(tmp_path, paths[bundle], [op, str(job_path)])
    assert got == DISK_GOLDEN[(op, bundle, job)]


# The payloads under `--float`: the exact payload plus its non-authoritative
# decimal columns.  Keys are (op, bundle, args); the argument of `rt-eval`
# and `red-to-blue` names a job that `_disk_job` writes.
FLOAT_GOLDEN = {
    ("slf", "sweedler", ()):
        "abe61342c1a0aaa153eaeeef2b17a07f81b3328abb0474b36e43034813771940",
    ("slf", "z4", ()):
        "e84c478885a200d4fb439e081879cff318d1515f3f34932e5031c9d0d347d7ea",
    ("qchar", "sweedler", ("proj_plus",)):
        "7f1ac52fdb2820cd09c16a68a2ef1e3ef4b9621623c9a77fb32ae2f564e6f56a",
    ("qchar", "z4", ("chi1",)):
        "43e50c5de40a33665331942ff264a7d4a4f4a92b213b223534b0b91dc342da57",
    ("rt-eval", "sweedler", ("r3-lhs",)):
        "b9730eb5bad1e1f79ecb095275aabe4a6f28e69e2969a2c712366d0fa1fa4d93",
    ("rt-eval", "z4", ("ev-coev-twist-braid-inv",)):
        "c3c5ad6be8a9ec74eee3c7ab9fdfd3bf5d3273e54d8841dc0364d54d1780c5ac",
    ("red-to-blue", "sweedler", ("regular-k1",)):
        "708982f28217777764630171b9860b3f4671f9239a6c0e49f510136c8639f93d",
}


def _job_args(tmp_path, bundle, op, args):
    """args, with the job name of `rt-eval` and `red-to-blue` replaced by
    the path of its file."""
    if op not in ("rt-eval", "red-to-blue"):
        return list(args)
    job_path = tmp_path / "job.json"
    job_path.write_text(json.dumps(_disk_job(bundle, args[0])))
    return [str(job_path)]


@pytest.mark.parametrize("op,bundle,args", list(FLOAT_GOLDEN))
def test_golden_float_payload(bundle_files, tmp_path, op, bundle, args):
    _, paths = bundle_files
    got = _payload_sha(tmp_path, paths[bundle],
                       [op] + _job_args(tmp_path, bundle, op, args),
                       flags=("--float",))
    assert got == FLOAT_GOLDEN[(op, bundle, args)]


# Under `--format text` and `--format csv` without `--out`, a command prints
# its JSON payload, unless it has a CSV row (`skalg`, `char-map`) and the
# format is csv; `slf` and `skalg` add a text summary on stderr.  Keys are
# the golden of the payload printed: (op, bundle, args) in GOLDEN, or
# (op, bundle, job) in DISK_GOLDEN.
FALLBACK = [
    ("text", ("slf", "z2", ()), "slf dim 2\n"),
    ("csv", ("slf", "z2", ()), ""),
    ("text", ("skalg", "z2", ("0", "2")), "skalg dim 2\n"),
    ("text", ("char-map", "z2", ()), ""),
    ("text", ("qchar", "sweedler", ("proj_plus",)), ""),
    ("csv", ("qchar", "sweedler", ("proj_plus",)), ""),
    ("text", ("rt-eval", "sweedler", "r3-lhs"), ""),
    ("csv", ("rt-eval", "sweedler", "r3-lhs"), ""),
    ("text", ("red-to-blue", "sweedler", "regular-k1"), ""),
    ("csv", ("red-to-blue", "sweedler", "regular-k1"), ""),
]


@pytest.mark.parametrize("fmt,key,summary", FALLBACK,
                         ids=["%s-%s" % (f, k[0]) for f, k, _ in FALLBACK])
def test_text_and_csv_fall_back_to_the_payload(bundle_files, tmp_path,
                                               capsys, fmt, key, summary):
    _, paths = bundle_files
    op, bundle, args = key
    if key in DISK_GOLDEN:
        want, args = DISK_GOLDEN[key], (args,)
    else:
        want = GOLDEN[key]
    argv = [op, paths[bundle]] + _job_args(tmp_path, bundle, op, args)
    assert main(["--format", fmt] + argv) == 0
    out, err = capsys.readouterr()
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want
    assert err == summary
