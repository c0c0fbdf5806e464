"""The results cache: entries become visible only once complete."""

import os
import time

from modskein import cache


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
