"""Per-layer tracing for the benchmark, installed from outside ``src/``.

The traced run wraps the public entry points of each ``src/repro``
module at the place its caller looks the name up: a module global for a
``from x import f`` at import time, the defining module's attribute for
a call-time local import, and the class attribute for a method.  Every
wrapper opens a span named after its layer; a span's self time is its
duration minus the time its child spans cover, so the self times of all
layers plus the benchmark's own glue add up to the traced wall time.

Only entry points that do not recurse into themselves are wrapped, so a
wrapper adds a bounded number of frames to the stack and the depth at
which a program overflows the recursion limit barely moves.

Worker processes forked by ``check_many(jobs=2)`` inherit the wrappers,
but their spans stay in the worker; the parent sees that time as
``driver.batch.pool_wait``.
"""

import json
import time
from typing import Callable, Dict, List, Optional

#: Per-layer metrics reported by the traced run, with their units.  Every
#: workload reports every name; a layer the workload does not reach reads 0.
LAYER_METRICS = [
    ("frontend.lexer.self_ms", "ms"),
    ("frontend.lexer.tokens", "count"),
    ("frontend.parser.self_ms", "ms"),
    ("frontend.parser.calls", "count"),
    ("driver.depgraph.self_ms", "ms"),
    ("driver.project.self_ms", "ms"),
    ("driver.batch.self_ms", "ms"),
    ("driver.batch.keys_ms", "ms"),
    ("driver.batch.pool_wait_ms", "ms"),
    ("driver.batch.recheck_ratio", "ratio"),
    ("driver.store.self_ms", "ms"),
    ("driver.store.shards_read", "count"),
    ("driver.store.shards_written", "count"),
    ("driver.store.bytes_written", "bytes"),
    ("driver.store.write_amplification", "ratio"),
    ("driver.store.hot_hit_ratio", "ratio"),
    ("infer.self_ms", "ms"),
    ("infer.units", "count"),
    ("infer.unify_calls", "count"),
    ("runtime.evaluator.self_ms", "ms"),
    ("runtime.evaluator.function_calls", "count"),
    ("runtime.evaluator.heap_allocations", "count"),
    ("runtime.evaluator.thunk_forces", "count"),
    ("runtime.compiler.codegen_ms", "ms"),
    ("runtime.compiler.self_ms", "ms"),
    ("runtime.compiler.functions_compiled", "count"),
    ("driver.lower.self_ms", "ms"),
    ("driver.lower.rejected", "count"),
    ("compile.self_ms", "ms"),
    ("lang_l.self_ms", "ms"),
    ("lang_m.self_ms", "ms"),
    ("lang_m.steps", "count"),
    ("validate.self_ms", "ms"),
    ("validate.obligations", "count"),
    ("validate.engaged_ratio", "ratio"),
    ("fuzz.generator.self_ms", "ms"),
    ("perfbench.self_ms", "ms"),
    ("wall_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("tracing_overhead_ratio", "ratio"),
]


class SpanRecorder:
    """In-memory spans with self-time accounting.

    A span is ``[name, start, end, parent, op]``: times in seconds from
    the recorder's origin, ``parent`` the index of the enclosing span (or
    -1) and ``op`` the benchmark operation that caused it.
    """

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[list] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Exceptions that left a span, by (span name, exception type).
        self.errors: Dict[tuple, int] = {}
        self.op = -1
        #: Open spans: [index, start, time covered by children].
        self._stack: List[list] = []

    def begin(self, name: str) -> None:
        start = time.perf_counter()
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append([name, start - self.origin, None, parent, self.op])
        self._stack.append([len(self.spans) - 1, start, 0.0])

    def end(self) -> None:
        stop = time.perf_counter()
        index, start, covered = self._stack.pop()
        span = self.spans[index]
        span[2] = stop - self.origin
        duration = stop - start
        name = span[0]
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - covered
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, name: str, function: Callable,
             after: Optional[Callable] = None) -> Callable:
        """``function`` inside a ``name`` span; ``after(result, args)``
        sees each successful result (for counts kept on result objects)."""
        recorder = self

        def traced(*args, **kwargs):
            recorder.begin(name)
            try:
                result = function(*args, **kwargs)
            except Exception as exc:
                key = (name, type(exc).__name__)
                recorder.errors[key] = recorder.errors.get(key, 0) + 1
                raise
            finally:
                recorder.end()
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = function
        traced.__name__ = getattr(function, "__name__", name)
        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans}, handle)


class LayerProbes:
    """Installs the wrappers, and takes them out again on :meth:`remove`."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.counts: Dict[str, int] = {}
        self._undo: List[tuple] = []

    def _bump(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._undo.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def _wrap(self, owner, attribute: str, layer: str,
              after: Optional[Callable] = None) -> None:
        self._patch(owner, attribute, self.recorder.wrap(
            layer, owner.__dict__[attribute], after))

    def install(self) -> None:
        import os

        import repro.compile.compiler as compiler_mod
        import repro.driver.batch as batch_mod
        import repro.driver.lower as lower_mod
        import repro.driver.project as project_mod
        import repro.driver.session as session_mod
        import repro.driver.store as store_mod
        import repro.frontend.parser as parser_mod
        import repro.fuzz.generator as generator_mod
        import repro.lang_m.machine as machine_mod
        import repro.runtime.compiler as rcompiler_mod
        import repro.runtime.evaluator as evaluator_mod
        import repro.validate as validate_pkg
        import repro.validate.alignment as alignment_mod

        bump = self._bump

        # frontend: the parser imports tokenize by name.
        self._wrap(parser_mod, "tokenize", "frontend.lexer",
                   lambda tokens, _: bump("lexer.tokens", len(tokens)))
        self._wrap(parser_mod, "parse_module_incremental", "frontend.parser")
        self._wrap(project_mod, "parse_scheme", "frontend.parser")

        # driver: planning, projects, batches and key derivation.
        for module in (session_mod, batch_mod, project_mod):
            self._wrap(module, "build_plan", "driver.depgraph")
        self._wrap(project_mod, "check_project", "driver.project")
        self._wrap(project_mod, "build_project_plan", "driver.project")
        self._wrap(batch_mod, "check_many_sharded", "driver.batch")
        self._wrap(project_mod, "check_many_sharded", "driver.batch")
        for name in ("unit_key", "cache_key", "project_file_key",
                     "outline_key", "options_fingerprint",
                     "canonical_scheme"):
            self._wrap(batch_mod, name, "driver.batch.keys")
            if name in project_mod.__dict__:
                self._wrap(project_mod, name, "driver.batch.keys")
        self._patch(session_mod.Session, "acquire_pool",
                    self._pool_proxy(session_mod.Session.acquire_pool))

        # driver.store: shard reads, writes and the bytes they put on disk.
        shard_store = store_mod.ShardStore
        for name in ("get", "save"):
            self._wrap(shard_store, name, "driver.store")

        def note_put(changed, args):
            if changed:
                bump("store.payload_bytes",
                     len(json.dumps(args[2], sort_keys=True)))

        self._wrap(shard_store, "put", "driver.store", note_put)
        self._wrap(shard_store, "_write_shard_file", "driver.store",
                   lambda _, args: bump("store.bytes_written",
                                        os.path.getsize(args[1])))

        # infer: one span per compilation unit.
        self._wrap(session_mod.Pipeline, "check_unit", "infer",
                   lambda _, __: bump("infer.units"))

        # runtime: the evaluator's top-level calls, the closure compiler.
        self._patch(evaluator_mod, "Evaluator",
                    self._evaluator_class(evaluator_mod.Evaluator))
        self._wrap(rcompiler_mod.CompiledProgram, "__init__",
                   "runtime.compiler.codegen")
        self._wrap(rcompiler_mod.CompiledProgram, "eval_expression",
                   "runtime.compiler")

        # lowering, L→M compilation, the machine, the L evaluator.
        self._wrap(lower_mod, "lower_entry", "driver.lower")
        self._wrap(compiler_mod, "compile_and_run", "compile")
        self._wrap(compiler_mod, "compile_expr", "compile")
        self._wrap(alignment_mod, "compile_expr", "compile")
        self._wrap(machine_mod.Machine, "run", "lang_m",
                   lambda result, _: bump("lang_m.steps",
                                          result.costs.steps))
        self._wrap(alignment_mod, "evaluate", "lang_l")

        # validate, and the fuzz generator the corpus workload draws from.
        def note_report(report, _):
            bump("validate.reports")
            if report.engaged:
                bump("validate.engaged")
            bump("validate.obligations", report.obligations_checked)

        self._wrap(validate_pkg, "validate_check", "validate", note_report)
        self._wrap(generator_mod, "generate_program", "fuzz.generator")

    def remove(self) -> None:
        for owner, attribute, original in reversed(self._undo):
            setattr(owner, attribute, original)
        self._undo.clear()

    def _pool_proxy(self, acquire_pool: Callable) -> Callable:
        """``Session.acquire_pool`` returning a pool whose submissions and
        result waits are timed as ``driver.batch.pool_wait``."""
        recorder = self.recorder

        class _Future:
            def __init__(self, future):
                self._future = future

            def result(self, *args, **kwargs):
                recorder.begin("driver.batch.pool_wait")
                try:
                    return self._future.result(*args, **kwargs)
                finally:
                    recorder.end()

        class _Pool:
            def __init__(self, pool):
                self._pool = pool

            def submit(self, *args, **kwargs):
                recorder.begin("driver.batch.pool_wait")
                try:
                    return _Future(self._pool.submit(*args, **kwargs))
                finally:
                    recorder.end()

        def acquire(session, *args, **kwargs):
            return _Pool(acquire_pool(session, *args, **kwargs))

        return acquire

    def _evaluator_class(self, evaluator_cls):
        """A subclass timing the evaluator's top-level ``eval`` and the
        ``force`` its caller applies to the result.

        ``force`` recurses, so it is not wrapped on the class: after each
        top-level ``eval`` the next ``force`` on the instance — the
        caller's — is timed once, and recursive calls reach the class
        method directly.
        """
        recorder = self.recorder

        class TracedEvaluator(evaluator_cls):
            def eval(self, expr, env=None):
                recorder.begin("runtime.evaluator")
                try:
                    value = evaluator_cls.eval(self, expr, env)
                finally:
                    recorder.end()
                self.force = self._force_once
                return value

            def _force_once(self, value):
                self.__dict__.pop("force", None)
                recorder.begin("runtime.evaluator")
                try:
                    return evaluator_cls.force(self, value)
                finally:
                    recorder.end()

        TracedEvaluator.__name__ = evaluator_cls.__name__
        return TracedEvaluator


def layer_metrics(recorder: SpanRecorder, probes: LayerProbes,
                  registry_counters: Dict[str, int], wall_s: float,
                  untraced_wall_s: float,
                  recheck: Optional[tuple] = None) -> Dict[str, float]:
    """The per-layer metric values of one traced region."""
    self_ms = {name: seconds * 1000.0
               for name, seconds in recorder.self_s.items()}
    counts = probes.counts
    counter = registry_counters.get

    def ratio(part, whole):
        return part / whole if whole else 0.0

    hot_hits = counter("cache.store.hot_hits", 0)
    hot_misses = counter("cache.store.hot_misses", 0)
    reports = counts.get("validate.reports", 0)
    values = {
        "frontend.lexer.self_ms": self_ms.get("frontend.lexer", 0.0),
        "frontend.lexer.tokens": counts.get("lexer.tokens", 0),
        "frontend.parser.self_ms": self_ms.get("frontend.parser", 0.0),
        "frontend.parser.calls": recorder.calls.get("frontend.parser", 0),
        "driver.depgraph.self_ms": self_ms.get("driver.depgraph", 0.0),
        "driver.project.self_ms": self_ms.get("driver.project", 0.0),
        "driver.batch.self_ms": self_ms.get("driver.batch", 0.0),
        "driver.batch.keys_ms": self_ms.get("driver.batch.keys", 0.0),
        "driver.batch.pool_wait_ms":
            self_ms.get("driver.batch.pool_wait", 0.0),
        "driver.batch.recheck_ratio":
            ratio(*recheck) if recheck is not None else 0.0,
        "driver.store.self_ms": self_ms.get("driver.store", 0.0),
        "driver.store.shards_read": counter("cache.store.shards_read", 0),
        "driver.store.shards_written":
            counter("cache.store.shards_written", 0),
        "driver.store.bytes_written": counts.get("store.bytes_written", 0),
        "driver.store.write_amplification":
            ratio(counts.get("store.bytes_written", 0),
                  counts.get("store.payload_bytes", 0)),
        "driver.store.hot_hit_ratio":
            ratio(hot_hits, hot_hits + hot_misses),
        "infer.self_ms": self_ms.get("infer", 0.0),
        "infer.units": counts.get("infer.units", 0),
        "infer.unify_calls": sum(
            counter(f"solver.unify_{kind}_calls", 0)
            for kind in ("types", "reps", "kinds")),
        "runtime.evaluator.self_ms": self_ms.get("runtime.evaluator", 0.0),
        "runtime.evaluator.function_calls":
            counter("eval.function_calls", 0),
        "runtime.evaluator.heap_allocations":
            counter("eval.heap_allocations", 0),
        "runtime.evaluator.thunk_forces": counter("eval.thunk_forces", 0),
        "runtime.compiler.codegen_ms":
            self_ms.get("runtime.compiler.codegen", 0.0),
        "runtime.compiler.self_ms": self_ms.get("runtime.compiler", 0.0),
        "runtime.compiler.functions_compiled":
            counter("codegen.compiled", 0),
        "driver.lower.self_ms": self_ms.get("driver.lower", 0.0),
        "driver.lower.rejected":
            recorder.errors.get(("driver.lower", "LoweringError"), 0),
        "compile.self_ms": self_ms.get("compile", 0.0),
        "lang_l.self_ms": self_ms.get("lang_l", 0.0),
        "lang_m.self_ms": self_ms.get("lang_m", 0.0),
        "lang_m.steps": counts.get("lang_m.steps", 0),
        "validate.self_ms": self_ms.get("validate", 0.0),
        "validate.obligations": counts.get("validate.obligations", 0),
        "validate.engaged_ratio":
            ratio(counts.get("validate.engaged", 0), reports),
        "fuzz.generator.self_ms": self_ms.get("fuzz.generator", 0.0),
        "perfbench.self_ms": sum(
            value for name, value in self_ms.items()
            if name.startswith("perfbench.")),
        "wall_ms": wall_s * 1000.0,
        "unattributed_ms": wall_s * 1000.0 - sum(self_ms.values()),
        "tracing_overhead_ratio": ratio(wall_s, untraced_wall_s) - 1.0,
    }
    assert set(values) == {name for name, _ in LAYER_METRICS}
    return values
