"""Lifecycle tests for the session-owned persistent worker pool (ISSUE 6).

``Session`` owns at most one lazily-spawned ``ProcessPoolExecutor`` and
reuses it across ``check_many`` calls; the registry's ``pool.*``
counters make every decision observable.  The serial cutoff
(``_effective_jobs``) decides per batch whether the pool is used at all,
and a pool that cannot spawn or breaks mid-batch degrades to in-process
checking without losing results.  Tests that need the pool whatever the
host patch the cutoff out with the ``fan_out`` fixture (conftest.py).
"""

import gc

import pytest

from repro.driver import DriverOptions, Session
from repro.driver.batch import (
    _MIN_UNITS_PER_WORKER,
    CheckStats,
    _effective_jobs,
    payload_bytes,
    result_to_payload,
)


def make_corpus(count=10):
    """Small but unit-rich programs (3 dependent bindings per file)."""
    corpus = []
    for index in range(count):
        source = (f"a{index} :: Int\na{index} = {index}\n"
                  f"b{index} :: Int\nb{index} = a{index} + 1\n"
                  f"main :: Int\nmain = b{index} + {index}\n")
        corpus.append((f"p{index}.lev", source))
    return corpus


def _payloads(results):
    return [payload_bytes(result_to_payload(result)) for result in results]


class TestPoolLifecycle:
    def test_pool_reused_across_batches(self, fan_out, counts):
        corpus = make_corpus()
        serial = Session().check_many(corpus)

        with Session() as session:
            first = session.check_many(corpus, jobs=2)
            second = session.check_many(corpus, jobs=2)
            assert counts("pool.pools_created") == 1
            assert counts("pool.pools_reused") == 1
            assert counts("pool.parallel_batches") == 2
            assert _payloads(first) == _payloads(second) == _payloads(serial)
            assert session._pool is not None
        assert session._pool is None  # __exit__ closed it

    def test_close_is_idempotent_and_session_survives(self, fan_out,
                                                      counts):
        corpus = make_corpus(6)
        session = Session()
        session.check_many(corpus, jobs=2)
        session.close()
        session.close()
        assert session._pool is None
        # The session is still usable; the next batch respawns the pool.
        results = session.check_many(corpus, jobs=2)
        assert all(result.ok for result in results)
        assert counts("pool.pools_created") == 2
        session.close()

    def test_gc_shuts_down_the_pool(self):
        session = Session()
        executor = session.acquire_pool(2)
        del session
        gc.collect()
        with pytest.raises(RuntimeError):
            executor.submit(len, ())

    def test_pool_replaced_when_grown_or_options_change(self, counts):
        session = Session()
        pool = session.acquire_pool(2)
        assert session.acquire_pool(2) is pool  # same size, same options
        assert session.acquire_pool(1) is pool  # smaller fits too
        grown = session.acquire_pool(4)
        assert grown is not pool
        other = session.acquire_pool(4, DriverOptions(compiled=True))
        assert other is not grown
        assert counts("pool.pools_created") == 3
        assert counts("pool.pools_reused") == 2
        session.close()

    def test_broken_pool_falls_back_to_serial(self, monkeypatch, fan_out,
                                              counts):
        corpus = make_corpus(6)
        serial = Session().check_many(corpus)
        session = Session()

        def refuse(jobs, options=None):
            raise OSError("no process spawning here")

        monkeypatch.setattr(session, "acquire_pool", refuse)
        results = session.check_many(corpus, jobs=2)
        assert _payloads(results) == _payloads(serial)
        assert counts("pool.serial_batches") == 1
        assert counts("pool.parallel_batches") == 0
        assert session._pool is None


class TestSchedulingPolicy:
    """`_effective_jobs` is the whole policy; drive it directly."""

    def _cpus(self, monkeypatch, count):
        import repro.driver.batch as batch
        monkeypatch.setattr(batch.os, "cpu_count", lambda: count)

    def test_jobs_one_is_always_serial(self, monkeypatch):
        self._cpus(monkeypatch, 8)
        assert _effective_jobs(1, 1000, 100) == 1

    def test_auto_serial_on_one_cpu(self, monkeypatch):
        self._cpus(monkeypatch, 1)
        assert _effective_jobs(8, 1000, 100) == 1

    def test_auto_serial_for_single_file(self, monkeypatch):
        self._cpus(monkeypatch, 8)
        assert _effective_jobs(8, 1000, 1) == 1

    def test_auto_caps_at_cpu_count(self, monkeypatch):
        self._cpus(monkeypatch, 2)
        assert _effective_jobs(8, 1000, 100) == 2

    def test_auto_full_fanout_on_big_batches(self, monkeypatch):
        self._cpus(monkeypatch, 8)
        pending = 4 * _MIN_UNITS_PER_WORKER
        assert _effective_jobs(4, pending, 40) == 4

    def test_auto_sheds_workers_on_small_batches(self, monkeypatch):
        self._cpus(monkeypatch, 8)
        assert _effective_jobs(4, 2 * _MIN_UNITS_PER_WORKER, 40) == 2
        assert _effective_jobs(4, 1, 40) == 1


#: The CI cache-invalidation module: ``base`` is edited below without
#: changing its scheme, so early cutoff keeps its three dependents hits.
CUTOFF_MODULE = """\
base :: Int# -> Int#
base x = x +# 1#

mid = base 1#

top = mid +# 2#

lone :: Int#
lone = 7#
"""


def _edited(source):
    return source.replace("x +# 1#", "x +# 2#")


def _distinct_copies(count):
    """``count`` files with the module's names suffixed, so no unit key
    repeats across files."""
    return [(f"inc{index}.lev", CUTOFF_MODULE.replace("base", f"base{index}"))
            for index in range(count)]


def _counts(stats):
    return stats.checked, stats.cache_hits, stats.cache_misses


class TestInProcessFallback:
    """A ``jobs > 1`` batch that stays in-process (serial cutoff, broken
    pool) walks its pending units like ``jobs == 1``: blocked units are
    looked up once their dependencies resolve, and checks are timed."""

    def _edit_run(self, tmp_path, jobs, files, **session_patches):
        cache = str(tmp_path / f"cache-jobs{jobs}")
        cold = CheckStats()
        Session().check_many(files, jobs=jobs, cache=cache, stats=cold)
        warm = CheckStats()
        edited = [(name, _edited(source)) for name, source in files]
        with Session() as session:
            for name, value in session_patches.items():
                setattr(session, name, value)
            results = session.check_many(edited, jobs=jobs, cache=cache,
                                         stats=warm)
        return cold, warm, results

    def test_serial_cutoff_keeps_early_cutoff(self, tmp_path, counts):
        files = [("inc.lev", CUTOFF_MODULE)]
        cold1, warm1, serial = self._edit_run(tmp_path, 1, files)
        cold2, warm2, parallel = self._edit_run(tmp_path, 2, files)
        assert _counts(cold2) == _counts(cold1) == (4, 0, 4)
        assert _counts(warm2) == _counts(warm1) == (1, 3, 1)
        assert counts("pool.serial_batches") == 2  # never fanned out
        checked = [t for t in warm2.timings if t.source == "checked"]
        assert [t.names for t in checked] == [("base",)]
        assert all(t.seconds is not None for t in cold2.timings)
        assert checked[0].seconds is not None
        assert _payloads(parallel) == _payloads(serial)

    def test_broken_pool_keeps_early_cutoff(self, tmp_path, fan_out,
                                            counts):
        files = _distinct_copies(3)
        _cold1, warm1, serial = self._edit_run(tmp_path, 1, files)

        def refuse(jobs, options=None):
            raise OSError("no process spawning here")

        _cold2, warm2, parallel = self._edit_run(tmp_path, 2, files,
                                                 acquire_pool=refuse)
        assert _counts(warm2) == _counts(warm1) == (3, 9, 3)
        assert _payloads(parallel) == _payloads(serial)
        # The cold run fanned out; the refused edit run stayed home.
        assert counts("pool.parallel_batches") == 1
        assert counts("pool.serial_batches") == 1

    def test_forced_fan_out_edit_matches_serial(self, tmp_path, fan_out,
                                                counts):
        files = _distinct_copies(2)
        _cold1, _warm1, serial = self._edit_run(tmp_path, 1, files)
        _cold2, warm2, parallel = self._edit_run(tmp_path, 2, files)
        assert _payloads(parallel) == _payloads(serial)
        assert counts("pool.parallel_batches") == 2
        # Units blocked behind a miss ship to the worker unprobed.
        assert warm2.checked == 6 and warm2.cache_misses == 2
