"""The three workloads: inputs from a seed, one round of operations, and
references the code under test does not compute.

One client drives each workload in a closed loop: an operation starts
when the previous one returns.  The only concurrency is
``check_many(jobs=2)`` in ``corpus``.

Every workload reports the same end-to-end metric names; what each
measures on each workload is in :data:`END_TO_END` and printed beside the
values.
"""

import contextlib
import math
import multiprocessing
import os
import random
import resource
import shutil
import statistics
import time
from typing import Dict, List, Optional, Tuple

#: End-to-end metrics: name, unit, and what it measures per workload (the
#: workload-specific name is the one the human-readable table prints).
END_TO_END = [
    ("setup_s", "s", {
        "corpus": "setup_s", "edit": "setup_s", "exec": "setup_s"}),
    ("peak_rss_mb", "MB", {
        "corpus": "peak_rss_mb", "edit": "peak_rss_mb",
        "exec": "peak_rss_mb"}),
    ("op_p50_ms", "ms", {
        "corpus": "check_p50_ms", "edit": "edit_p50_ms",
        "exec": "check_p50_ms"}),
    ("op_p95_ms", "ms", {
        "corpus": "check_p95_ms", "edit": "edit_p95_ms",
        "exec": "check_p95_ms"}),
    ("primary_per_s", "1/s", {
        "corpus": "corpus_per_s", "edit": "scheme_edits_per_s",
        "exec": "run_kiters_per_s"}),
    ("secondary_per_s", "1/s", {
        "corpus": "check_jobs2_per_cpu_s", "edit": "body_edits_per_s",
        "exec": "run_compiled_kiters_per_s"}),
    ("tertiary_per_s", "1/s", {
        "corpus": "run_per_s", "edit": "noop_rebuilds_per_s",
        "exec": "validate_lsteps_per_s"}),
]


def percentile(values: List[float], fraction: float) -> float:
    """Inclusive percentile (``statistics.quantiles`` with 100 cuts)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


#: Every reported time is scaled to a host on which one pass of
#: :func:`calibration_kernel` takes this long (and every rate inversely),
#: so that drift in this shared host's speed cancels out.
REFERENCE_KERNEL_S = 0.0002
#: How often the kernel runs, between operations, and how many recent
#: passes the current speed is the median of.
CALIBRATE_EVERY_S = 0.025
CALIBRATION_WINDOW = 5

_KEYS = [f"key{index}" for index in range(64)]


def _kernel_step(index: int) -> int:
    return (index * 7) & 15


def calibration_kernel() -> int:
    """A fixed slice of interpreter work: calls, dict and list traffic."""
    table: Dict[str, int] = {}
    total = 0
    for index in range(1500):
        key = _KEYS[index & 63]
        table[key] = table.get(key, 0) + index
        total += len(key) + _kernel_step(index)
    return total


class Calibration:
    """The host's current speed, sampled by the kernel between operations
    on the clock the operations are timed with."""

    def __init__(self, clock) -> None:
        self.clock = clock
        self.recent: List[float] = []
        self.samples = 0
        self._last = -math.inf

    def due(self) -> bool:
        return time.perf_counter() - self._last >= CALIBRATE_EVERY_S

    def sample(self) -> None:
        start = self.clock()
        calibration_kernel()
        seconds = self.clock() - start
        self._last = time.perf_counter()
        self.recent = (self.recent + [seconds])[-CALIBRATION_WINDOW:]
        self.samples += 1

    def factor(self) -> float:
        """Scale for a time measured just now: below 1 while this host
        runs slower than the reference."""
        return REFERENCE_KERNEL_S / statistics.median(self.recent)


class Tally:
    """Operations attempted and failed, with the reason for each failure.

    Operation times are scaled by the host speed sampled right after each
    operation (:class:`Calibration`)."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.attempted = 0
        self.failed = 0
        #: A failure where the program answered, but wrongly.
        self.wrong = 0
        self.reasons: Dict[str, int] = {}
        #: The clock operations are timed with, and the wall time of the
        #: last operation as measured, whatever the clock.
        self.clock = clock
        self.last_wall = 0.0
        self.calibration = Calibration(clock)
        #: Measured and scaled seconds over all operations.
        self.measured_s = 0.0
        self.scaled_s = 0.0
        #: The traced run's :class:`layers.SpanRecorder`, else None.
        self.recorder = None

    def attempt(self, kind: str, function, *args, **kwargs):
        """Run one operation; returns ``(result, scaled seconds)``, and
        result None when it raised (counted as a failure with its
        reason)."""
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.op = self.attempted
        result = None
        wall, start = time.perf_counter(), self.clock()
        try:
            result = function(*args, **kwargs)
        except Exception as exc:  # counted, never aborts the run
            self.fail(kind, f"raised {type(exc).__name__}")
        seconds = self.clock() - start
        self.last_wall = time.perf_counter() - wall
        factor = self.calibrate()
        self.measured_s += seconds
        self.scaled_s += seconds * factor
        return result, seconds * factor

    def calibrate(self) -> float:
        """Sample the host speed if due; returns the current scale."""
        if self.calibration.due():
            with self.glue("calibrate"):
                self.calibration.sample()
        return self.calibration.factor()

    @contextlib.contextmanager
    def glue(self, name: str):
        """The benchmark's own work (checking answers, cleaning up), as a
        ``perfbench.<name>`` span in the traced run."""
        if self.recorder is None:
            yield
            return
        self.recorder.begin(f"perfbench.{name}")
        try:
            yield
        finally:
            self.recorder.end()

    def fail(self, kind: str, reason: str, wrong: bool = False) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        key = f"{kind}: {reason}"
        self.reasons[key] = self.reasons.get(key, 0) + 1


def _seconds_ms(values: List[float]) -> List[float]:
    return [value * 1000.0 for value in values]


def user_cpu_seconds() -> float:
    """User CPU time of this process (no kernel time)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_utime


def _cpu_seconds() -> float:
    """User and system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + children.ru_utime + children.ru_stime)


# ---------------------------------------------------------------------------
# corpus: many small generated programs
# ---------------------------------------------------------------------------


class Corpus:
    """Fuzz programs through check, run and the two-worker batch checker.

    Many small files put the time in lexer, parser and infer, a little in
    the evaluator and the M machine, and none in the cache store.
    """

    name = "corpus"
    CLOCK = time.perf_counter
    PROGRAMS = 1000

    def generate(self, seed: int) -> None:
        from repro.fuzz import GenOptions, generate_corpus

        self.programs = generate_corpus(seed, self.PROGRAMS,
                                        GenOptions(max_bindings=3))

    def setup(self, seed: int) -> None:
        from repro.driver import DriverOptions, Session
        from repro.infer.schemes import Scheme
        from repro.pretty.printer import render_scheme

        self.generate(seed)
        printer = DriverOptions().printer_options()
        #: The generator's intended type of every binding, rendered.
        self.intended = [
            {name: render_scheme(Scheme.from_type(type_), printer)
             for name, type_ in program.intended.items()}
            for program in self.programs]
        warm = Session()
        for program in self.programs[:3]:
            warm.run_from_check(warm.check(program.source, program.filename))
        self.check_s: List[float] = []
        self.serial_rates: List[float] = []
        self.run_s: List[float] = []
        self.batch_rates: List[float] = []
        self.batch_wall_rates: List[float] = []

    def round(self, tally: Tally) -> None:
        from repro.driver import Session
        from repro.driver.batch import payload_bytes, result_to_payload

        session = Session()
        serial_bytes: List[Optional[bytes]] = []
        serial_s = 0.0
        for program, intended in zip(self.programs, self.intended):
            check, seconds = tally.attempt("check", session.check,
                                           program.source, program.filename)
            if check is None:
                serial_bytes.append(None)
                continue
            self.check_s.append(seconds)
            serial_s += seconds
            with tally.glue("verify"):
                serial_bytes.append(payload_bytes(result_to_payload(check)))
                rendered = {binding.name: binding.rendered
                            for binding in check.bindings}
            if not check.ok:
                tally.fail("check", "rejected a generated program",
                           wrong=True)
                continue
            if any(rendered.get(name) != want
                   for name, want in intended.items()):
                tally.fail("check", "type differs from the intended one",
                           wrong=True)
            run, seconds = tally.attempt("run", session.run_from_check,
                                         check)
            if run is None:
                continue
            serial_s += seconds
            self.run_s.append(seconds)
            if not run.ok:
                tally.fail("run", "evaluation failed", wrong=True)
            elif program.expected_value is not None \
                    and run.value != program.expected_value:
                tally.fail("run", "value differs from the reference",
                           wrong=True)
            elif run.machine_agrees is False:
                tally.fail("run", "M machine disagrees", wrong=True)
            elif program.fragment and run.machine_value is None:
                tally.fail("run", "fragment program skipped the machine",
                           wrong=True)
        self.serial_rates.append(len(self.programs) / serial_s)

        items = [(program.filename, program.source)
                 for program in self.programs]
        batch_session = Session()
        cpu = _cpu_seconds()
        try:
            results, seconds = tally.attempt(
                "check_jobs2", batch_session.check_many, items, jobs=2)
        finally:
            batch_session.close()
            # The workers have stopped once joined; only then does their
            # CPU time reach RUSAGE_CHILDREN.
            for child in multiprocessing.active_children():
                child.join()
        if results is None:
            return
        self.batch_wall_rates.append(len(items) / seconds)
        self.batch_rates.append(len(items) / (
            (_cpu_seconds() - cpu) * tally.calibration.factor()))
        with tally.glue("verify"):
            differ = sum(payload_bytes(result_to_payload(result)) != expected
                         for result, expected in zip(results, serial_bytes))
        if differ:
            tally.fail("check_jobs2", f"{differ} payloads differ from serial",
                       wrong=True)

    def metrics(self) -> Dict[str, float]:
        check_ms = _seconds_ms(self.check_s)
        return {
            "op_p50_ms": statistics.median(check_ms),
            "op_p95_ms": percentile(check_ms, 0.95),
            "check_p99_ms (report only)": percentile(check_ms, 0.99),
            "primary_per_s": statistics.median(self.serial_rates),
            "secondary_per_s": statistics.median(self.batch_rates),
            "tertiary_per_s": 1.0 / statistics.median(self.run_s),
            "wall_check_jobs2_per_s (report only)":
                statistics.median(self.batch_wall_rates),
        }

    def recheck(self) -> Optional[Tuple[int, int]]:
        return None

    def close(self) -> None:
        pass


# ---------------------------------------------------------------------------
# edit: an import chain rebuilt after seeded edits
# ---------------------------------------------------------------------------


class Edit:
    """An 8-module import chain rebuilt after body, scheme and no edits.

    Time goes to incremental parsing, planning, key derivation and shard
    I/O, with little in infer; shard writes sit beside reads.

    The cache lives inside the checkout, on whatever filesystem holds it.
    On a disk where each shard rename stalls for milliseconds (writes back
    up behind the shard locks) and the kernel's share of each write varies
    with the disk's load, wall and system time would swamp the timing and
    vary from run to run; operations are timed in user CPU time instead.
    The wall times are printed beside them as report-only figures, and the
    store's exact read and write counts and its wall time are in the traced
    run.
    """

    name = "edit"
    CLOCK = staticmethod(user_cpu_seconds)
    MODULES = 8
    CLUSTERS = 6
    CLUSTER = 10
    #: One round's edit plan: this many body, scheme and no edits, in a
    #: seeded order.
    BODY_EDITS = 90
    SCHEME_EDITS = 30
    NO_EDITS = 45
    #: Every this many steps the build is compared with a cold, uncached
    #: check, outside the timed region.
    SAMPLE_EVERY = 40

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.caches = 0

    # -- the project text ----------------------------------------------------

    def _member(self, m: int, c: int, i: int) -> str:
        name = f"c{m}_{c}_{i}"
        lit = self.literals[(m, c, i)]
        head = f"c{m}_{c}_0"
        if i == 0:
            if m > 1:
                inner = f"c{m - 1}_{c}_0 (n -# 1#)"
            else:
                inner = f"{head} (n -# 1#)"
            return (f"{name} :: Int# -> Int#\n"
                    f"{name} n = case n <=# 0# of "
                    f"{{ 1# -> {lit}#; _ -> {inner} }}\n")
        if i == 1:
            return f"{name} = {head} {lit}#\n"
        return (f"{name} =\n"
                f"  let scaled = c{m}_{c}_{i - 1} +# {head} {lit}# in\n"
                f"  case scaled ==# 0# of\n"
                f"    {{ 1# -> {head} (scaled +# 1#)\n"
                f"    ; _ -> (\\k -> k +# scaled) ({head} 2#) }}\n")

    def _value_type(self, m: int) -> str:
        return " -> ".join(["Int"] * (self.arity[m] + 1))

    def _module(self, m: int) -> str:
        parts = [f"module M{m} where\n"]
        if m > 1:
            parts.append(f"import M{m - 1}\n")
        params = "".join(f" x{k}" for k in range(self.arity[m]))
        parts.append(f"\nign{m} :: forall a. a -> Int#\nign{m} x = 0#\n\n"
                     f"v{m} :: {self._value_type(m)}\n"
                     f"v{m}{params} = I# {self.values[m]}#\n\n")
        if m > 1:
            parts.append(f"use{m} :: Int#\nuse{m} = ign{m} v{m - 1}\n\n")
        for c in range(self.CLUSTERS):
            for i in range(self.CLUSTER):
                parts.append(self._member(m, c, i))
                parts.append("\n")
        return "".join(parts)

    def _items(self) -> List[Tuple[str, str]]:
        return [(f"m{m}.lev", self.sources[m])
                for m in range(1, self.MODULES + 1)]

    def _bindings(self, m: int) -> int:
        return 2 + (m > 1) + self.CLUSTERS * self.CLUSTER

    # -- inputs ------------------------------------------------------------

    def generate(self, seed: int) -> None:
        rng = random.Random(f"perfbench-edit:{seed}")
        modules = range(1, self.MODULES + 1)
        self.literals = {(m, c, i): rng.randrange(1, 1000)
                         for m in modules for c in range(self.CLUSTERS)
                         for i in range(self.CLUSTER)}
        self.arity = {m: 0 for m in modules}
        self.values = {m: rng.randrange(1, 1000) for m in modules}
        self.sources = {m: self._module(m) for m in modules}
        #: The seeded edit plan: (kind, module, cluster, member).
        kinds = (["body"] * self.BODY_EDITS + ["scheme"] * self.SCHEME_EDITS
                 + ["none"] * self.NO_EDITS)
        rng.shuffle(kinds)
        self.plan = [(kind, rng.randrange(1, self.MODULES + 1),
                      rng.randrange(self.CLUSTERS),
                      rng.randrange(1, self.CLUSTER)) for kind in kinds]
        #: Edits write literals no earlier version used, so no edit is
        #: answered by an entry an earlier step left in the cache.
        self.fresh = 1000

    def setup(self, seed: int) -> None:
        from repro.driver import Session

        self.seed = seed
        self.generate(seed)
        Session().check_project(self._items())
        self.step_s: List[float] = []
        self.step_wall: List[float] = []
        self.body_s: List[float] = []
        self.scheme_s: List[float] = []
        self.noop_s: List[float] = []
        self.cold_s: List[float] = []
        self.cold_wall: List[float] = []
        self.rechecked = 0
        self.required = 0

    def _problem(self, check, compare_cold: bool) -> Optional[str]:
        """Every module checks, with the expected bindings, each module's
        value binding has the type the benchmark wrote, and (when asked)
        the build equals a cold, uncached check byte for byte."""
        from repro.driver import Session
        from repro.driver.batch import payload_bytes, result_to_payload

        for m, result in enumerate(check.results, start=1):
            if not result.ok or len(result.bindings) != self._bindings(m):
                return "module failed or lost bindings"
            rendered = {b.name: b.rendered for b in result.bindings}
            if rendered.get(f"v{m}") != self._value_type(m):
                return "value binding has the wrong type"
        if compare_cold:
            cold = Session().check_project(self._items())
            if [payload_bytes(result_to_payload(r))
                    for r in check.results] != \
                    [payload_bytes(result_to_payload(r))
                     for r in cold.results]:
                return "build differs from a cold uncached check"
        return None

    def _verify(self, tally: Tally, kind: str, check,
                compare_cold: bool = False) -> None:
        with tally.glue("verify"):
            problem = self._problem(check, compare_cold)
        if problem is not None:
            tally.fail(kind, problem, wrong=True)

    def round(self, tally: Tally) -> None:
        """Build the project into a new, empty cache, then run the edit
        plan against it through the same session.

        Every round starts from the same text and an empty cache, so the
        store holds as much after round 5 as after round 1.  Cache
        directories are deleted by :meth:`close`: on a slow disk the
        deletion takes seconds, and it is not the program's work.
        """
        from repro.driver import Session

        with tally.glue("inputs"):
            self.generate(self.seed)
        self.caches += 1
        cache = os.path.join(self.workdir, f"cache-{self.caches}")
        session = Session()
        try:
            self._round(tally, session, cache)
        finally:
            session.close()

    def _round(self, tally: Tally, session, cache: str) -> None:
        check, seconds = tally.attempt("cold_build", session.check_project,
                                       self._items(), cache=cache)
        if check is None:
            return
        self.cold_s.append(seconds)
        self.cold_wall.append(tally.last_wall)
        self._verify(tally, "cold_build", check)
        for step, (kind, m, c, i) in enumerate(self.plan, start=1):
            required = 0
            if kind == "body":
                self.fresh += 1
                self.literals[(m, c, i)] = self.fresh
                required = 1
            elif kind == "scheme":
                self.fresh += 1
                self.arity[m] += 1
                self.values[m] = self.fresh
                # The value binding, and the one unit of the next module
                # that names it; that unit's own type does not change.
                required = 1 + (m < self.MODULES)
            if kind != "none":
                with tally.glue("inputs"):
                    self.sources[m] = self._module(m)
            check, seconds = tally.attempt(
                "edit", session.check_project, self._items(), cache=cache)
            if check is None:
                continue
            self.step_s.append(seconds)
            self.step_wall.append(tally.last_wall)
            {"body": self.body_s, "scheme": self.scheme_s,
             "none": self.noop_s}[kind].append(seconds)
            self.rechecked += check.stats.checked
            self.required += required
            self._verify(tally, "edit", check,
                         compare_cold=step % self.SAMPLE_EVERY == 0)

    def metrics(self) -> Dict[str, float]:
        step_ms = _seconds_ms(self.step_s)
        wall_ms = _seconds_ms(self.step_wall)
        return {
            "op_p50_ms": statistics.median(step_ms),
            "op_p95_ms": percentile(step_ms, 0.95),
            "primary_per_s": 1.0 / statistics.median(self.scheme_s),
            "secondary_per_s": 1.0 / statistics.median(self.body_s),
            "tertiary_per_s": 1.0 / statistics.median(self.noop_s),
            "edit_steps": len(self.step_s),
            "cold_build_s (report only)": statistics.median(self.cold_s),
            "wall_edit_p50_ms (report only)": statistics.median(wall_ms),
            "wall_edit_p95_ms (report only)": percentile(wall_ms, 0.95),
            "wall_cold_build_s (report only)":
                statistics.median(self.cold_wall),
        }

    def recheck(self) -> Optional[Tuple[int, int]]:
        return self.rechecked, self.required

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# exec: loops in four families, sizes straddling the depth limits
# ---------------------------------------------------------------------------

#: name -> (source template, closed-form answer, rendering of the answer).
FAMILIES = {
    # The unboxed tail loop: raw registers, no allocation.
    "unboxed_tail": (
        "loop :: Int# -> Int# -> Int#\n"
        "loop acc n = case n ==# 0# of "
        "{ 1# -> acc; _ -> loop (acc +# n) (n -# 1#) }\n"
        "main :: Int#\nmain = loop 0# {n}#\n",
        lambda n: n * (n + 1) // 2, "{}#"),
    # The boxed Int tail loop: the paper's Section 1 penalty.
    "boxed_tail": (
        "loop :: Int -> Int -> Int\n"
        "loop acc n = if eqInt n 0 then acc "
        "else loop (plusInt acc n) (minusInt n 1)\n"
        "main :: Int\nmain = loop 0 {n}\n",
        lambda n: n * (n + 1) // 2, "(I# {}#)"),
    # Non-tail recursion: the stack grows with n.
    "nontail": (
        "count :: Int# -> Int#\n"
        "count n = case n ==# 0# of { 1# -> 0#; _ -> 2# +# count (n -# 1#) }\n"
        "main :: Int#\nmain = count {n}#\n",
        lambda n: 2 * n, "{}#"),
    # ($) instantiated at an unboxed result kind inside the loop.
    "dollar_unboxed": (
        "unbox :: Int -> Int#\nunbox b = case b of { I# x -> x }\n"
        "loop :: Int# -> Int# -> Int#\n"
        "loop acc n = case n ==# 0# of "
        "{ 1# -> acc; _ -> loop (acc +# (unbox $ I# n)) (n -# 1#) }\n"
        "main :: Int#\nmain = loop 0# {n}#\n",
        lambda n: n * (n + 1) // 2, "{}#"),
}


class Exec:
    """Loop programs through the interpreter, the closure compiler and the
    translation validator.

    Each family runs at SIZES points spaced evenly in log scale over
    [SMALLEST, LARGEST], each moved by a seeded factor within ±JITTER, so
    every seed straddles the depths at which today's backends overflow the
    default recursion limit, at nearly the same sizes.

    A run of either backend is ``Session.check`` then
    ``Session.run_from_check`` — what ``Session.run`` does — timed apart:
    the check feeds ``op_p50_ms``/``op_p95_ms`` and the rates count the
    run alone.  Each rate is the median over a program's runs that
    returned the closed-form answer, combined over programs by geometric
    mean: one slow run (a collector pause) does not move it, and a
    program that starts or stops overflowing the stack moves ``failed``,
    not the rate.
    """

    name = "exec"
    CLOCK = time.perf_counter
    SMALLEST = 30
    LARGEST = 3000
    SIZES = 5
    JITTER = 0.08
    #: Interpreted and compiled runs are cheap next to validation; each
    #: program runs this many times on each backend, validates once.
    RUNS = 5

    def generate(self, seed: int) -> None:
        rng = random.Random(f"perfbench-exec:{seed}")
        step = math.log(self.LARGEST / self.SMALLEST) / (self.SIZES - 1)
        self.programs = []
        for family, (template, answer, shape) in FAMILIES.items():
            for point in range(self.SIZES):
                n = round(self.SMALLEST * math.exp(
                    step * point + rng.uniform(-self.JITTER, self.JITTER)))
                self.programs.append((
                    f"{family}_{n}.lev", template.replace("{n}", str(n)),
                    n, shape.format(answer(n)), family))
        rng.shuffle(self.programs)

    def setup(self, seed: int) -> None:
        from repro.driver import DriverOptions, Session
        from repro.validate import validate_check

        self.generate(seed)
        self.compiled_options = DriverOptions(compiled=True)
        for family, (template, _, _) in FAMILIES.items():
            source = template.replace("{n}", "5")
            session = Session()
            validate_check(session, session.check(source, family))
            session.run(source, family)
            Session(self.compiled_options).run(source, family)
        self.check_s: List[float] = []
        #: backend -> program -> work per second of each correct run (loop
        #: iterations, or L steps for the validator).
        self.rates: Dict[str, Dict[str, List[float]]] = {
            backend: {} for backend in ("interpreted", "compiled",
                                        "validate")}

    def _count(self, backend: str, filename: str, work: int,
               seconds: float) -> None:
        self.rates[backend].setdefault(filename, []).append(work / seconds)

    def _run(self, tally: Tally, backend: str, options, program) -> None:
        from repro.driver import Session

        filename, source, n, answer, _ = program
        session = Session(options)
        check, seconds = tally.attempt(backend, session.check, source,
                                       filename)
        if check is None:
            return
        self.check_s.append(seconds)
        run, seconds = tally.attempt(backend, session.run_from_check, check)
        if run is None:
            return
        if not run.ok:
            tally.fail(backend, "evaluation failed", wrong=True)
        elif run.value != answer:
            tally.fail(backend, "value differs from the closed form",
                       wrong=True)
        elif run.machine_agrees is False:
            tally.fail(backend, "M machine disagrees", wrong=True)
        else:
            self._count(backend, filename, n, seconds)

    def round(self, tally: Tally) -> None:
        import repro.validate
        from repro.driver import Session

        for program in self.programs:
            filename, source, _, answer, _ = program
            for _ in range(self.RUNS):
                self._run(tally, "interpreted", None, program)
            for _ in range(self.RUNS):
                self._run(tally, "compiled", self.compiled_options, program)
            session = Session()
            check = session.check(source, filename)
            # Looked up at call time, so the traced run's wrapper applies.
            report, seconds = tally.attempt(
                "validate", repro.validate.validate_check, session, check)
            if report is None or not report.engaged:
                continue
            if not report.ok or report.machine_agrees is not True:
                tally.fail("validate", "obligation or answer failed",
                           wrong=True)
            elif report.l_value != answer.rstrip("#"):
                tally.fail("validate", "L value differs from the closed form",
                           wrong=True)
            else:
                self._count("validate", filename, report.l_steps, seconds)

    def _rate(self, backend: str) -> float:
        """Geometric mean over programs of the median work per second."""
        rates = [statistics.median(runs)
                 for runs in self.rates[backend].values()]
        return math.exp(sum(map(math.log, rates)) / len(rates))

    def metrics(self) -> Dict[str, float]:
        check_ms = _seconds_ms(self.check_s)
        return {
            "op_p50_ms": statistics.median(check_ms),
            "op_p95_ms": percentile(check_ms, 0.95),
            "primary_per_s": self._rate("interpreted") / 1000.0,
            "secondary_per_s": self._rate("compiled") / 1000.0,
            "tertiary_per_s": self._rate("validate"),
        }

    def recheck(self) -> Optional[Tuple[int, int]]:
        return None

    def close(self) -> None:
        pass
