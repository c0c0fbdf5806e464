"""The results cache: entries become visible only once complete."""

import os
import shutil
import subprocess
import sys
import time

import pytest

from modskein import cache
from modskein.errors import StructureError


def test_stale_lock_neither_delays_store_nor_hides_payload(tmp_path):
    cache_dir = str(tmp_path)
    (tmp_path / ".lock").write_bytes(b"")   # left behind by a crashed writer
    key = cache.cache_key(b"input", "slf", {})
    t0 = time.monotonic()
    cache.store(cache_dir, key, b"payload", "slf", {}, b"input")
    assert time.monotonic() - t0 < 5
    assert cache.lookup(cache_dir, key) == b"payload"


def test_entry_without_payload_is_not_served(tmp_path):
    cache_dir = str(tmp_path)
    key = cache.cache_key(b"input", "slf", {})
    cache.store(cache_dir, key, b"payload", "slf", {}, b"input")
    # a writer that died after `input` and `meta.json` but before `payload`
    os.unlink(os.path.join(cache_dir, key[:2], key, "payload"))
    assert cache.lookup(cache_dir, key) is None
    report = cache.verify_all(cache_dir, lambda *a: b"payload")
    assert [r["status"] for r in report] == ["skipped"]


def test_changed_engine_fingerprint_changes_key_and_skips_entry(
        tmp_path, monkeypatch):
    cache_dir = str(tmp_path)
    key = cache.cache_key(b"input", "slf", {})
    cache.store(cache_dir, key, b"payload", "slf", {}, b"input")
    assert [r["status"] for r in
            cache.verify_all(cache_dir, lambda *a: b"payload")] == ["ok"]
    # the same input, operation and parameters under an edited engine
    monkeypatch.setattr(cache, "engine_fingerprint", lambda: "0" * 64)
    assert cache.cache_key(b"input", "slf", {}) != key
    recomputed = []
    report = cache.verify_all(cache_dir, lambda *a: recomputed.append(a))
    assert [r["status"] for r in report] == ["skipped"]
    assert recomputed == []


def test_engine_fingerprint_follows_the_sources(tmp_path):
    # a copy of the package, fingerprinted before and after a one-byte edit
    pkg = tmp_path / "modskein"
    shutil.copytree(os.path.dirname(cache.__file__), pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))

    def fingerprint():
        return subprocess.run(
            [sys.executable, "-c",
             "from modskein import cache; print(cache.engine_fingerprint())"],
            env=dict(os.environ, PYTHONPATH=str(tmp_path)), check=True,
            capture_output=True, text=True).stdout.strip()

    before = fingerprint()
    assert before == cache.engine_fingerprint()
    with open(pkg / "cyclo.py", "a") as fh:
        fh.write("\n")
    assert fingerprint() != before


def _two_entries(cache_dir):
    keys = [cache.cache_key(b"input", op, {}) for op in ("slf", "char-map")]
    for key, op in zip(keys, ("slf", "char-map")):
        cache.store(cache_dir, key, b"payload", op, {}, b"input")
    return keys


@pytest.mark.parametrize("damage", [
    lambda meta: meta.write_bytes(b"{not json"),
    lambda meta: meta.write_bytes(b"\xff\xfe"),
    lambda meta: meta.write_text('["a list"]'),
    lambda meta: meta.write_text('{"op": ["slf"], "params": {}}'),
    lambda meta: meta.unlink(),
], ids=["undecodable", "not utf-8", "not an object", "op not a string",
        "missing"])
def test_an_unreadable_entry_is_corrupt_and_the_walk_goes_on(tmp_path, damage):
    cache_dir = str(tmp_path)
    keys = _two_entries(cache_dir)
    damage(tmp_path / keys[0][:2] / keys[0] / "meta.json")
    report = {r["key"]: r for r in
              cache.verify_all(cache_dir, lambda *a: b"payload")}
    assert report[keys[0]]["status"] == "corrupt" and report[keys[0]]["reason"]
    assert report[keys[1]]["status"] == "ok"


def test_a_failing_recompute_is_corrupt_and_the_walk_goes_on(tmp_path):
    cache_dir = str(tmp_path)
    keys = _two_entries(cache_dir)

    def recompute(op, params, input_bytes):
        if op == "slf":
            raise StructureError("unknown cached operation %r" % op)
        return b"payload"

    report = {r["key"]: r for r in cache.verify_all(cache_dir, recompute)}
    assert report[keys[0]] == {"key": keys[0], "status": "corrupt",
                               "reason": "unknown cached operation 'slf'"}
    assert report[keys[1]]["status"] == "ok"
