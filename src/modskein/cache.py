"""Content-addressed results cache for expensive computations.

A cache entry is keyed by the SHA-256 of (input file bytes, operation name,
canonical parameter JSON, engine fingerprint).  The fingerprint hashes the
engine's source files, so any edit to the engine, released or not, makes the
old entries unreachable, and `verify_all` skips them.  The entry directory
stores the payload, the input bytes (so `cache verify` can recompute without
the original paths), and a small metadata record.  Each file is written to a
temporary file and renamed into place, `payload` last; readers look only at
`payload`, so concurrent invocations never see a half-written entry and no
lock is needed (a crashed writer leaves nothing that blocks the next one).
Eviction is manual.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import time

from .errors import ModskeinError

ENV_VAR = "MODSKEIN_CACHE_DIR"


def default_cache_dir() -> str:
    env = os.environ.get(ENV_VAR)
    if env:
        return env
    base = os.environ.get("XDG_CACHE_HOME",
                          os.path.join(os.path.expanduser("~"), ".cache"))
    return os.path.join(base, "modskein")


@functools.cache
def engine_fingerprint() -> str:
    """SHA-256 over the names and bytes of the `modskein/*.py` sources."""
    h = hashlib.sha256()
    src = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                data = fh.read()
            h.update(b"%s\x00%d\x00" % (name.encode("utf-8"), len(data)))
            h.update(data)
    return h.hexdigest()


def cache_key(input_bytes: bytes, op: str, params: dict) -> str:
    h = hashlib.sha256()
    h.update(input_bytes)
    h.update(b"\x00")
    h.update(op.encode("utf-8"))
    h.update(b"\x00")
    h.update(json.dumps(params, sort_keys=True,
                        separators=(",", ":")).encode("utf-8"))
    h.update(b"\x00")
    h.update(engine_fingerprint().encode("utf-8"))
    return h.hexdigest()


def _entry_dir(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, key[:2], key)


def lookup(cache_dir: str, key: str) -> bytes | None:
    path = os.path.join(_entry_dir(cache_dir, key), "payload")
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except FileNotFoundError:
        return None


def store(cache_dir: str, key: str, payload: bytes, op: str, params: dict,
          input_bytes: bytes) -> None:
    entry = _entry_dir(cache_dir, key)
    meta = {
        "key": key,
        "op": op,
        "params": params,
        "engine_fingerprint": engine_fingerprint(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "input_sha256": hashlib.sha256(input_bytes).hexdigest(),
    }
    os.makedirs(entry, exist_ok=True)
    for name, data in (("input", input_bytes),
                       ("meta.json", (json.dumps(meta, indent=1) + "\n")
                        .encode("utf-8")),
                       ("payload", payload)):
        fd, tmp = tempfile.mkstemp(dir=entry)
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, os.path.join(entry, name))
        except BaseException:
            try:
                os.unlink(tmp)
            except FileNotFoundError:
                pass
            raise


def entries(cache_dir: str):
    """Yield (key, entry_dir) for every stored entry."""
    if not os.path.isdir(cache_dir):
        return
    for shard in sorted(os.listdir(cache_dir)):
        shard_path = os.path.join(cache_dir, shard)
        if len(shard) != 2 or not os.path.isdir(shard_path):
            continue
        for key in sorted(os.listdir(shard_path)):
            yield key, os.path.join(shard_path, key)


def _corrupt(key: str, reason: str) -> dict:
    return {"key": key, "status": "corrupt", "reason": reason}


def verify_all(cache_dir: str, recompute) -> list[dict]:
    """Recompute every entry from its stored input and compare payloads.

    `recompute(op, params, input_bytes) -> bytes`; returns a report list with
    one record per entry.  An entry whose metadata or input cannot be read,
    or whose recomputation raises a ModskeinError (an unknown `op`, an input
    that no longer parses), is reported "corrupt" and the walk goes on.
    """
    report = []
    for key, entry in entries(cache_dir):
        payload = lookup(cache_dir, key)
        if payload is None:
            report.append({"key": key, "status": "skipped",
                           "reason": "no payload (interrupted write)"})
            continue
        try:
            with open(os.path.join(entry, "meta.json"), "rb") as fh:
                meta = json.loads(fh.read().decode("utf-8"))
            with open(os.path.join(entry, "input"), "rb") as fh:
                input_bytes = fh.read()
            op, params = meta["op"], meta["params"]
        except (OSError, ValueError, TypeError, KeyError) as exc:
            report.append(_corrupt(key, "unreadable entry: %r" % exc))
            continue
        if not isinstance(op, str) or not isinstance(params, dict):
            report.append(_corrupt(key, "op %r or params %r of wrong type"
                                   % (op, params)))
            continue
        if meta.get("engine_fingerprint") != engine_fingerprint():
            report.append({"key": key, "status": "skipped",
                           "reason": "engine fingerprint %s"
                           % meta.get("engine_fingerprint")})
            continue
        try:
            fresh = recompute(op, params, input_bytes)
        except ModskeinError as exc:
            report.append(_corrupt(key, str(exc)))
            continue
        report.append({"key": key,
                       "op": op,
                       "status": "ok" if fresh == payload else "MISMATCH"})
    return report
