"""Concurrent multi-process hammer on one DiskCache namespace.

Parallel CLI invocations and test runs all share one persistent cache
root, so ``put``/``get``/eviction must stay safe under real
cross-process concurrency: a reader must only ever see a complete,
self-consistent entry (or a miss), never bytes from a torn or mixed
write.
"""

import multiprocessing
import os

import pytest

from repro.cache import DiskCache

_KEYS = [f"key{i:02d}" for i in range(8)]
_ROUNDS = 60


def _hammer(root, worker_id, conn):
    """One worker: interleaved puts, verified gets and removes."""
    cache = DiskCache("hammer", schema_version=1, root=root,
                      max_bytes=16 * 1024)
    corrupt = []
    for round_no in range(_ROUNDS):
        key = _KEYS[(worker_id + round_no) % len(_KEYS)]
        # payload embeds its own identity, so any cross-key or torn
        # read is detectable from the value alone
        cache.put(key, {"key": key, "worker": worker_id,
                        "round": round_no, "pad": "x" * 512})
        probe = _KEYS[(worker_id * 3 + round_no) % len(_KEYS)]
        value = cache.get(probe)
        if value is not None and value.get("key") != probe:
            corrupt.append((probe, value.get("key")))
        if round_no % 17 == 0:
            cache.remove(probe)
    conn.send(corrupt)
    conn.close()


class TestMultiprocessHammer:
    def test_no_corrupt_reads_and_size_bound_holds(self, tmp_path):
        try:
            ctx = multiprocessing.get_context("fork")
        except ValueError:
            pytest.skip("requires fork start method")
        root = str(tmp_path)
        procs, conns = [], []
        for worker_id in range(4):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_hammer,
                               args=(root, worker_id, send))
            proc.start()
            send.close()
            procs.append(proc)
            conns.append(recv)
        reports = [conn.recv() for conn in conns]
        for proc in procs:
            proc.join(timeout=120.0)
            assert proc.exitcode == 0
        for conn in conns:
            conn.close()
        # no reader ever observed a value under the wrong key
        assert [r for report in reports for r in report] == []
        # the byte budget is enforced once the dust settles: one more
        # put triggers eviction down to the bound
        cache = DiskCache("hammer", schema_version=1, root=root,
                          max_bytes=16 * 1024)
        cache.put("final000", {"key": "final000"})
        assert cache.info()["bytes"] <= 16 * 1024
        # and every surviving entry still round-trips cleanly
        for key in _KEYS + ["final000"]:
            value = cache.get(key)
            assert value is None or value["key"] == key
