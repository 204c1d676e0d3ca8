"""Sharded parallel batch checking with a **binding-level** incremental cache.

PR 3 cached whole source texts; this version caches **compilation units**
(single bindings or mutually recursive SCC groups, see
:mod:`repro.driver.depgraph`).  A unit's cache key is::

    sha256( schema : options-fingerprint : unit source slice
            : for each direct dependency, its name + the canonical
              rendering of its scheme )

so editing one binding invalidates exactly that unit plus the units whose
*dependency schemes actually change* — a dependent whose dependency was
edited but re-checked to the same scheme is still a cache hit (early
cutoff).  Parse is always re-done (it is cheap and yields the plan the
walk needs); inference, the levity post-pass and Rep defaulting are what
the cache skips.

Three layers:

* **Unit payloads** — :func:`payload_from_unit_outcome` converts one
  checked unit into a slim JSON dict: per-member rendered schemes, status,
  diagnostics, and the *canonical* (explicit-runtime-reps) scheme
  rendering dependents key on and reconstruct typing environments from
  (via :func:`repro.frontend.parser.parse_scheme`).  Spans are stored
  **relative to the unit's source segments**, so a unit that merely moved
  (an earlier binding grew) is still a hit and is re-stamped with correct
  absolute lines on the way out.

* **The cache** — :class:`ResultCache`, mapping unit keys to unit
  payloads.  On disk it is a **sharded store**
  (:mod:`repro.driver.store`, schema v4): 256 key-prefix shards per key
  namespace, loaded lazily and persisted per-shard with the atomic
  merge-then-replace discipline — a warm no-op run reads only the shards
  it probes, a single-unit edit rewrites only the shards it dirtied, and
  concurrent runs sharing a cache directory cannot tear a shard or
  clobber each other's fresh entries.  An optional session-owned
  :class:`~repro.driver.store.HotTier` serves hot shards from memory.

* **The scheduler** — :func:`check_many_sharded` walks every file's units
  in dependency order.  With ``jobs > 1`` the pending units are dispatched
  in **waves**: each wave contains every unit whose dependencies are
  resolved, sharded across a process pool (units — not files — are the
  unit of sharding).  Workers re-derive the plan from the shipped source
  and receive the transitive dependency schemes as canonical renderings,
  so a worker round-trip is byte-identical to an in-process check.

File-level payload helpers (:func:`result_to_payload` /
:func:`result_from_payload` / :func:`payload_bytes`) are unchanged from
the v1 format and remain the canonical way to compare results for byte
identity.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.errors import ParseError
from ..frontend.lexer import Span
from ..infer.schemes import Scheme
from ..telemetry import (
    REGISTRY as _REGISTRY,
    SHARD_TID_BASE,
    TRACER as _TRACER,
)
from .depgraph import CheckUnit, ModulePlan, build_plan
from .store import (
    CACHE_SCHEMA,
    CODEGEN,
    EXPORTS,
    FILE,
    OUTLINE,
    PFILE,
    UNIT,
    CacheTable,
    HotTier,
    ShardStore,
)
from .session import (
    BindingSummary,
    CheckResult,
    Diagnostic,
    DriverOptions,
    Pipeline,
    Session,
    UnitOutcome,
    assemble_decl_order,
)

__all__ = [
    "CACHE_SCHEMA",
    "PARALLEL_MODE_ENV",
    "CheckStats",
    "ResultCache",
    "cache_key",
    "canonical_scheme",
    "check_many_sharded",
    "codegen_cache_key",
    "load_codegen",
    "options_fingerprint",
    "outline_key",
    "payload_bytes",
    "payload_from_unit_outcome",
    "project_file_key",
    "result_from_payload",
    "result_to_payload",
    "store_codegen",
    "unit_key",
]

# CACHE_SCHEMA now lives in repro.driver.store (the on-disk layer owns
# the on-disk version number) and is re-exported here for key derivation
# and compatibility.


# ---------------------------------------------------------------------------
# File-level payloads (the result wire format, unchanged from v1)
# ---------------------------------------------------------------------------


def _span_to_list(span: Optional[Span]) -> Optional[List[int]]:
    if span is None:
        return None
    return [span.line, span.column, span.end_line, span.end_column]


def _span_from_list(data: Optional[Sequence[int]]) -> Optional[Span]:
    if data is None:
        return None
    return Span(*data)


def result_to_payload(result: CheckResult) -> dict:
    """The slim, JSON-able view of a whole-file check result.

    Drops the heavyweight fields (``scheme`` objects, the parsed module,
    the typing environment) and keeps what batch consumers need: rendered
    schemes, per-binding status, and diagnostics with spans.
    """
    return {
        "filename": result.filename,
        "ok": result.ok,
        "bindings": [
            {
                "name": binding.name,
                "rendered": binding.rendered,
                "ok": binding.ok,
                "defaulted_rep_vars": list(binding.defaulted_rep_vars),
                "span": _span_to_list(binding.span),
            }
            for binding in result.bindings
        ],
        "diagnostics": [
            {
                "severity": diagnostic.severity,
                "stage": diagnostic.stage,
                "message": diagnostic.message,
                "span": _span_to_list(diagnostic.span),
                "binding": diagnostic.binding,
            }
            for diagnostic in result.diagnostics
        ],
    }


def result_from_payload(payload: dict,
                        filename: Optional[str] = None) -> CheckResult:
    """Rebuild a (slim) :class:`CheckResult` from a file-level payload."""
    name = filename if filename is not None else payload["filename"]
    result = CheckResult(name, ok=payload["ok"])
    for binding in payload["bindings"]:
        result.bindings.append(BindingSummary(
            binding["name"], None, binding["rendered"], binding["ok"],
            tuple(binding["defaulted_rep_vars"]),
            _span_from_list(binding["span"])))
    for diagnostic in payload["diagnostics"]:
        result.diagnostics.append(Diagnostic(
            diagnostic["severity"], diagnostic["stage"],
            diagnostic["message"], name,
            _span_from_list(diagnostic["span"]), diagnostic["binding"]))
    return result


def payload_bytes(payload: dict) -> bytes:
    """The canonical byte encoding of a payload (for identity tests)."""
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


# ---------------------------------------------------------------------------
# Unit payloads (the cache + worker-IPC format)
# ---------------------------------------------------------------------------


def canonical_scheme(scheme: Scheme) -> str:
    """The canonical textual form of a scheme: the fully explicit rendering.

    This is what unit cache keys hash and what workers/cache hits parse
    back (via :func:`repro.frontend.parser.parse_scheme`) to rebuild a
    dependent's typing environment.  Explicit runtime reps are mandatory —
    the display-defaulted rendering would erase levity polymorphism.

    The rendering is memoised on the scheme object itself (schemes are
    frozen, and their type/rep nodes are hash-consed, so the text can
    never go stale): key derivation renders each scheme once per
    *definition*, not once per *dependent*.  The
    ``solver.scheme_renders`` / ``solver.scheme_render_hits`` counter
    pair makes the hit rate observable.
    """
    _REGISTRY.inc("solver.scheme_renders")
    text = getattr(scheme, "_canonical_src", None)
    if text is None:
        text = scheme.pretty(explicit_runtime_reps=True)
        # Scheme is a frozen dataclass; object.__setattr__ is the same
        # door its own __init__ uses.  The memo is identity-keyed and
        # invisible to dataclass equality/hashing.
        object.__setattr__(scheme, "_canonical_src", text)
    else:
        _REGISTRY.inc("solver.scheme_render_hits")
    return text


def _rel_span(unit: CheckUnit, span: Optional[Span]) -> Optional[List[int]]:
    if span is None:
        return None
    segment, fields = unit.relativize_span(span)
    return [segment] + fields


def _abs_span(unit: CheckUnit,
              data: Optional[Sequence[int]]) -> Optional[Span]:
    if data is None:
        return None
    return unit.absolutize_span(data[0], data[1:])


def payload_from_unit_outcome(outcome: UnitOutcome) -> dict:
    """Convert one checked unit into its slim cache/IPC payload."""
    unit = outcome.unit
    members = []
    for member in outcome.members:
        summary = member.summary
        members.append({
            "name": summary.name,
            "rendered": summary.rendered,
            "ok": summary.ok,
            "defaulted_rep_vars": list(summary.defaulted_rep_vars),
            "span": _rel_span(unit, summary.span),
            "scheme_src": (canonical_scheme(member.env_scheme)
                           if member.env_scheme is not None else None),
            "diagnostics": [
                {
                    "severity": diagnostic.severity,
                    "stage": diagnostic.stage,
                    "message": diagnostic.message,
                    "binding": diagnostic.binding,
                    "span": _rel_span(unit, diagnostic.span),
                }
                for diagnostic in member.diagnostics
            ],
        })
    return {"members": members}


# ---------------------------------------------------------------------------
# Cache keys
# ---------------------------------------------------------------------------


#: DriverOptions fields that cannot affect ``Pipeline.check`` output.
#: Everything NOT listed here invalidates the cache when it changes, so a
#: future option is cache-safe by default and must be excluded explicitly.
_CHECK_IRRELEVANT_OPTIONS = frozenset({
    "max_machine_steps",  # only consulted by the run/compile bridge
    "compiled",           # evaluator backend choice; checking is unaffected
})


def options_fingerprint(options: DriverOptions) -> str:
    """A stable digest of every option that can change a check's output."""
    state = json.dumps(
        {name: value for name, value in dataclasses.asdict(options).items()
         if name not in _CHECK_IRRELEVANT_OPTIONS},
        sort_keys=True)
    return hashlib.sha256(state.encode("utf-8")).hexdigest()[:16]


def cache_key(source: str, options: DriverOptions,
              _fingerprint: Optional[str] = None) -> str:
    """SHA-256 of a source text, namespaced by schema + options.

    For units the ``source`` is the unit's declaration slice; filenames
    are deliberately excluded, so renaming a file (or moving a binding
    within one) re-uses its cached results.  ``_fingerprint`` lets batch
    loops amortise the options digest across thousands of keys.
    """
    fingerprint = _fingerprint or options_fingerprint(options)
    hasher = hashlib.sha256()
    hasher.update(f"repro-check:{CACHE_SCHEMA}:"
                  f"{fingerprint}:".encode("utf-8"))
    hasher.update(source.encode("utf-8"))
    return hasher.hexdigest()


#: Key marker for a dependency that failed without leaving a scheme; no
#: real rendering can collide with it (schemes never start with \x01).
_FAILED_DEP = "\x01failed"


def unit_key(unit_source: str,
             dep_items: Iterable[Tuple[str, Optional[str]]],
             options: DriverOptions,
             _fingerprint: Optional[str] = None) -> str:
    """The cache key of one unit: source slice + direct-dependency schemes.

    ``dep_items`` pairs each direct dependency's name with the canonical
    rendering of its scheme (or None when the dependency failed to produce
    one).  Editing a dependency only invalidates this key when its
    *scheme* changes — the early-cutoff property.
    """
    hasher = hashlib.sha256()
    hasher.update(cache_key(unit_source, options,
                            _fingerprint).encode("utf-8"))
    for name, scheme_src in sorted(dep_items):
        hasher.update(b"\x00dep\x00")
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update((scheme_src if scheme_src is not None
                       else _FAILED_DEP).encode("utf-8"))
    return hasher.hexdigest()


def project_file_key(source: str,
                     ext_items: Iterable[Tuple[str, Optional[str]]],
                     options: DriverOptions,
                     _fingerprint: Optional[str] = None) -> str:
    """File-level short-circuit key for a module checked inside a project.

    ``ext_items`` pairs each *referenced imported name* with the canonical
    rendering of its exported scheme, exactly as supplied to the module's
    units — so a dependency edit that leaves every referenced scheme
    unchanged keeps the whole module a file-level hit (no re-parse), while
    a scheme change re-opens the module for its unit walk.  The
    :data:`~repro.driver.store.PFILE` table keeps project entries disjoint
    from single-file entries of the same source (their payloads differ:
    import warnings).
    """
    return PFILE.key(unit_key(source, ext_items, options, _fingerprint))


def outline_key(source: str, options: DriverOptions,
                _fingerprint: Optional[str] = None) -> str:
    """Key of a source's :data:`~repro.driver.store.OUTLINE` entry.

    An outline is a pure function of the source text (module name, import
    declarations with spans, union of foreign references) that lets the
    project planner build the module graph for unchanged files without
    re-parsing them.
    """
    return OUTLINE.key(cache_key(source, options, _fingerprint))


def codegen_cache_key(key: str) -> str:
    """Namespace a unit key for the codegen side-table.

    Compiled Python sources live in the same cache document as check
    payloads, under the unit's existing key prefixed with the code
    generator's version — bumping ``CODEGEN_VERSION`` orphans stale
    generated code without touching check results.
    """
    from ..runtime.compiler import CODEGEN_VERSION

    return CODEGEN.key(key, CODEGEN_VERSION)


# ---------------------------------------------------------------------------
# The incremental cache
# ---------------------------------------------------------------------------


class ResultCache:
    """A store-backed map from cache keys to payloads, read and written
    one declared :class:`~repro.driver.store.CacheTable` at a time.

    With a ``path`` the entries live in a sharded directory managed by
    :class:`repro.driver.store.ShardStore` (see that module for the
    layout, atomicity and GC story); shards load lazily, so construction
    is O(1) regardless of cache size.  Without a path the cache is a
    plain in-process dict (the REPL's ``:load`` state, tests).

    :meth:`get` and :meth:`put` count every table's traffic the same way,
    as ``cache.<table>.{hits,misses,invalid,stores}`` in the telemetry
    registry; storing a payload identical to the existing entry is a
    free no-op at every level (counters, dirty shards, disk).

    :meth:`save` persists **exactly the dirty shards**, each with the
    atomic merge-then-replace discipline — concurrent ``--jobs`` runs
    sharing one ``--cache`` directory can neither interleave a torn
    shard nor silently drop each other's work.  ``hot`` (a
    :class:`~repro.driver.store.HotTier`, usually session-owned) serves
    repeat shard reads from memory.
    """

    def __init__(self, path: Optional[str] = None,
                 hot: Optional[HotTier] = None) -> None:
        self.path = path
        self._store: Optional[ShardStore] = None
        self._memory: Dict[str, dict] = {}
        if path is not None:
            self._store = ShardStore(path, hot=hot)

    @property
    def entries(self) -> Dict[str, dict]:
        """Every entry, as one dict.

        In-memory caches return their live dict; store-backed caches
        materialise the whole store (disk plus unsaved writes) — an
        inspection affordance for tests and tooling, not a fast path.
        """
        if self._store is None:
            return self._memory
        return self._store.load_all()

    def get(self, table: CacheTable, key: str) -> Optional[dict]:
        """The payload under ``key``, or None.

        A malformed entry (hand-edited shard, truncated write) fails the
        table's check and counts as ``invalid`` as well as a miss; the
        re-check that follows overwrites it.
        """
        if self._store is not None:
            payload = self._store.get(key)
        else:
            payload = self._memory.get(key)
        if payload is not None and not table.accepts(payload):
            _REGISTRY.inc(table.invalid)
            payload = None
        _REGISTRY.inc(table.misses if payload is None else table.hits)
        return payload

    def put(self, table: CacheTable, key: str, payload: dict) -> None:
        """Store a payload (a store-backed cache rejects keys with an
        undeclared prefix with ``ValueError``)."""
        if self._store is not None:
            changed = self._store.put(key, payload)
        else:
            changed = self._memory.get(key) != payload
            self._memory[key] = payload
        if changed:
            _REGISTRY.inc(table.stores)

    def save(self) -> None:
        """Persist dirty shards (see :meth:`ShardStore.save`); a no-op
        for in-memory caches and when nothing changed.  Callers that
        nulled ``path`` after construction (benchmarks do, to get a
        read-only view) persist nothing."""
        if self.path is None or self._store is None:
            return
        self._store.save()


# ---------------------------------------------------------------------------
# The per-unit codegen side-table
# ---------------------------------------------------------------------------


def load_codegen(cache: ResultCache, check: CheckResult,
                 options: DriverOptions):
    """Resolve cached compiled sources for a fully-checked module.

    Returns ``(sources, units)``.  ``sources`` maps binding names to the
    generated Python source served from the cache (``None`` marks a
    binding the compiler is known to skip — still a hit: no codegen is
    re-attempted).  ``units`` lists ``(key, names, arities)`` per
    compilation unit, in plan order, for :func:`store_codegen` to write
    fresh codegen back after the evaluator lowered the misses.

    Keys are the **existing per-unit check keys** (source slice +
    dependency schemes) under the :func:`codegen_cache_key` namespace.
    One extra validation is needed that check results do not: compiled
    call sites bake in each callee's *syntactic arity* (how many
    parameters its equation binds), which a scheme does not determine —
    ``f x = \\y -> …`` and ``f x y = …`` share a scheme but not an arity.
    Each entry therefore records its dependencies' arities and is
    discarded when any changed.
    """
    plan = build_plan(check.parsed)
    arity_of = {name: len(bind.params)
                for name, bind in check.parsed.module.bindings().items()}
    scheme_srcs = {
        binding.name: (canonical_scheme(binding.scheme)
                       if binding.scheme is not None else None)
        for binding in check.bindings}
    fingerprint = options_fingerprint(options)
    sources: Dict[str, Optional[str]] = {}
    units: List[Tuple[str, Tuple[str, ...], Dict[str, int]]] = []
    for unit in plan.units:
        key = codegen_cache_key(unit_key(
            unit.source,
            [(dep, scheme_srcs.get(dep)) for dep in unit.deps],
            options, fingerprint))
        arities = {dep: arity_of[dep] for dep in unit.deps
                   if dep in arity_of}
        units.append((key, unit.names, arities))
        payload = cache.get(CODEGEN, key)
        if payload is None or payload["arities"] != arities:
            continue
        for name in unit.names:
            if name in payload["functions"]:
                sources[name] = payload["functions"][name]
    return sources, units


def store_codegen(cache: ResultCache, units, compiled) -> None:
    """Persist a :class:`~repro.runtime.compiler.CompiledProgram`'s
    generated sources, one entry per compilation unit from
    :func:`load_codegen`'s ``units`` listing."""
    for key, names, arities in units:
        functions = {name: compiled.sources[name] for name in names
                     if name in compiled.sources}
        if not functions:
            continue
        cache.put(CODEGEN, key, {"functions": functions,
                                 "arities": arities})


# ---------------------------------------------------------------------------
# --stats bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class UnitTiming:
    """One unit's row in the ``--stats`` table."""

    filename: str
    names: Tuple[str, ...]
    #: Wall seconds when the unit was timed in-process; None for rows
    #: that were never timed (cache hits, deduplicated jobs, and units
    #: checked inside a worker process).
    seconds: Optional[float]
    #: Where the row came from: "checked" (type-checked this call),
    #: "hit" (served from the unit cache), or "skipped" (a deduplicated
    #: duplicate job — the identical unit was checked once elsewhere in
    #: the batch).  Cache hits used to record 0.0 seconds, which made
    #: them indistinguishable from genuinely instant units; the explicit
    #: source plus ``seconds=None`` removes that ambiguity.
    source: str

    @property
    def outcome(self) -> str:
        """Backwards-compatible alias for :attr:`source`."""
        return self.source


@dataclass
class CheckStats:
    """Per-unit timing and cache behaviour of one ``check_many`` call.

    A per-call report over the telemetry registry's counters: the unit
    figures are counted from the ``timings`` rows, and every field is
    bumped at the call that bumps its registry counter (``files`` and
    ``parse_failures`` with ``batch.*``, ``file_hits`` and
    ``cache_misses`` on the ``cache.{file,pfile}.hits`` and
    ``cache.unit.misses`` lookups).
    """

    #: Every input file, including modules a project graph rejected
    #: without checking them.
    files: int = 0
    parse_failures: int = 0
    #: Files answered whole from a file-level cache entry (never parsed).
    file_hits: int = 0
    cache_misses: int = 0
    timings: List[UnitTiming] = field(default_factory=list)

    @property
    def units(self) -> int:
        return len(self.timings)

    @property
    def checked(self) -> int:
        return self._rows("checked")

    @property
    def cache_hits(self) -> int:
        return self._rows("hit")

    @property
    def skipped(self) -> int:
        """Deduplicated duplicate jobs (identical source + deps)."""
        return self._rows("skipped")

    def _rows(self, source: str) -> int:
        return sum(1 for timing in self.timings if timing.source == source)

    def count_files(self, files: int, parse_failures: int = 0) -> None:
        self.files += files
        self.parse_failures += parse_failures
        _REGISTRY.inc("batch.files", files)
        if parse_failures:
            _REGISTRY.inc("batch.parse_failures", parse_failures)

    def note(self, filename: str, unit: CheckUnit,
             seconds: Optional[float], source: str) -> None:
        if source != "hit":
            _REGISTRY.inc("batch.units_" + source)
        self.timings.append(UnitTiming(filename, unit.names, seconds,
                                       source))

    def as_dict(self) -> dict:
        """JSON-ready form for the unified ``--stats --json`` document."""
        return {
            "files": self.files,
            "parse_failures": self.parse_failures,
            "file_hits": self.file_hits,
            "units": self.units,
            "checked": self.checked,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "skipped": self.skipped,
            "timings": [
                {"filename": t.filename, "names": list(t.names),
                 "seconds": t.seconds, "source": t.source}
                for t in self.timings],
        }

    def pretty(self, slowest: int = 10) -> str:
        summary = (
            f"files: {self.files}  file hits: {self.file_hits}  "
            f"units: {self.units}  checked: {self.checked}  "
            f"cache hits: {self.cache_hits}  "
            f"cache misses: {self.cache_misses}"
        )
        if self.skipped:
            summary += f"  skipped: {self.skipped}"
        lines = [summary]
        if self.parse_failures:
            lines.append(f"parse failures: {self.parse_failures}")
        timed = [t for t in self.timings if t.seconds is not None]
        timed.sort(key=lambda t: t.seconds, reverse=True)
        if timed:
            lines.append(f"slowest units (of {len(timed)} timed):")
            for timing in timed[:slowest]:
                names = ", ".join(timing.names)
                lines.append(f"  {timing.filename}:{names}  "
                             f"{timing.seconds * 1000:.2f}ms  "
                             f"[{timing.source}]")
        untimed = [t for t in self.timings if t.seconds is None]
        if untimed:
            counts: Dict[str, int] = {}
            for timing in untimed:
                counts[timing.source] = counts.get(timing.source, 0) + 1
            rendered = "  ".join(f"{source}: {count}" for source, count
                                 in sorted(counts.items()))
            lines.append(f"untimed units ({len(untimed)}):  {rendered}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The incremental unit walk (shared by the serial path and the workers)
# ---------------------------------------------------------------------------


class _SchemeResolver:
    """Materialise dependency :class:`Scheme` objects on demand.

    Schemes computed in-process are kept as objects; schemes that came
    from cache hits or worker payloads exist only as canonical renderings
    and are parsed back lazily.  If a rendering unexpectedly fails to
    re-parse (a printer gap), the resolver *re-checks the defining unit
    in-process* instead of propagating junk — self-healing at the cost of
    one redundant check.
    """

    def __init__(self, pipeline: Pipeline, plan: ModulePlan,
                 srcs: Dict[str, Optional[str]],
                 objects: Optional[Dict[str, Optional[Scheme]]] = None
                 ) -> None:
        self.pipeline = pipeline
        self.plan = plan
        self.srcs = srcs
        self.objects = objects if objects is not None else {}

    def scheme(self, name: str) -> Optional[Scheme]:
        if name in self.objects:
            return self.objects[name]
        src = self.srcs.get(name)
        scheme: Optional[Scheme] = None
        if src is not None:
            from ..frontend.parser import parse_scheme

            try:
                scheme = parse_scheme(src)
            except ParseError:
                scheme = self._recheck(name)
        self.objects[name] = scheme
        return scheme

    def _recheck(self, name: str) -> Optional[Scheme]:
        uid = self.plan.defining_unit.get(name)
        if uid is None:
            return None
        unit = self.plan.units[uid]
        available = {dep: self.scheme(dep) for dep in unit.deps}
        outcome = self.pipeline.check_unit(self.plan, unit, available)
        for member in outcome.members:
            if member.summary.name == name:
                return member.env_scheme
        return None

    def available_for(self, unit: CheckUnit) -> Dict[str, Optional[Scheme]]:
        available = {dep: self.scheme(dep) for dep in unit.deps}
        # Foreign names resolve only when the srcs map has an entry for
        # them (project mode seeds it with imported exports; a present-
        # but-None entry means the exporting binding failed).  Absent
        # names stay unbound: ordinary scope errors.
        for name in unit.foreign:
            if name in self.srcs:
                available[name] = self.scheme(name)
        return available


def _compute_unit_payload(pipeline: Pipeline, plan: ModulePlan, uid: int,
                          resolver: _SchemeResolver
                          ) -> Tuple[dict, UnitOutcome]:
    unit = plan.units[uid]
    outcome = pipeline.check_unit(plan, unit, resolver.available_for(unit))
    return payload_from_unit_outcome(outcome), outcome


# ---------------------------------------------------------------------------
# Per-file state
# ---------------------------------------------------------------------------


class _FileState:
    """One input file's parse, plan, and per-unit resolution state.

    ``externals`` (project mode) maps imported names to the canonical
    renderings of their exported schemes (None = the export failed); it
    seeds ``scheme_srcs``, so foreign references resolve through exactly
    the same machinery as local dependencies — including the worker IPC
    path, which ships ``scheme_srcs`` wholesale.
    """

    def __init__(self, index: int, filename: str, source: str,
                 pipeline: Pipeline,
                 externals: Optional[Dict[str, Optional[str]]] = None,
                 imports_resolved: bool = False) -> None:
        self.index = index
        self.filename = filename
        self.source = source
        self.imports_resolved = imports_resolved
        self.parsed, self.plan, self.parse_diagnostics = \
            pipeline.parse_and_plan(source, filename)
        #: uid -> unit payload, filled as units resolve.
        self.payloads: Dict[int, dict] = {}
        #: defined or imported name -> canonical scheme rendering (or
        #: None = failed).  Locals overwrite imports on collision (a
        #: local definition shadows an imported name).
        self.scheme_srcs: Dict[str, Optional[str]] = \
            dict(externals) if externals else {}
        #: defined name -> materialised Scheme (in-process checks only).
        self.schemes: Dict[str, Optional[Scheme]] = {}

    @property
    def units(self) -> List[CheckUnit]:
        return self.plan.units if self.plan is not None else []

    def dep_items(self, unit: CheckUnit
                  ) -> List[Tuple[str, Optional[str]]]:
        items = [(dep, self.scheme_srcs.get(dep)) for dep in unit.deps]
        # Imported schemes the unit references are part of its key: a
        # change to one invalidates exactly the units naming it.
        items.extend((name, self.scheme_srcs[name]) for name in unit.foreign
                     if name in self.scheme_srcs)
        return items

    def exports(self) -> Optional[Dict[str, Optional[str]]]:
        """The module's export map (None when the file did not parse)."""
        if self.plan is None:
            return None
        return {name: self.scheme_srcs.get(name)
                for name in sorted(self.plan.defining_decl)}

    def resolve(self, plan_unit: CheckUnit, payload: dict,
                outcome: Optional[UnitOutcome] = None) -> None:
        """Record a unit's payload and export its defining schemes."""
        self.payloads[plan_unit.uid] = payload
        plan = self.plan
        by_name = {}
        if outcome is not None:
            by_name = {m.summary.name: m for m in outcome.members}
        for decl_index, member in zip(plan_unit.member_decls,
                                      payload["members"]):
            name = member["name"]
            if plan.defining_decl.get(name) != decl_index:
                continue
            self.scheme_srcs[name] = member["scheme_src"]
            if name in by_name:
                self.schemes[name] = by_name[name].env_scheme

    def assemble(self) -> CheckResult:
        """Stitch the resolved unit payloads into a slim file result."""
        result = CheckResult(self.filename)
        result.diagnostics.extend(self.parse_diagnostics)
        if self.parsed is None:
            result.ok = False
            return result
        plan = self.plan
        entries: Dict[int, Tuple[BindingSummary, List[Diagnostic]]] = {}
        for unit in plan.units:
            payload = self.payloads[unit.uid]
            for decl_index, member in zip(unit.member_decls,
                                          payload["members"]):
                span = _abs_span(unit, member["span"])
                summary = BindingSummary(
                    member["name"], None, member["rendered"], member["ok"],
                    tuple(member["defaulted_rep_vars"]), span)
                diagnostics = [
                    Diagnostic(d["severity"], d["stage"], d["message"],
                               self.filename, _abs_span(unit, d["span"]),
                               d["binding"])
                    for d in member["diagnostics"]]
                entries[decl_index] = (summary, diagnostics)
        assemble_decl_order(plan, entries, result,
                            imports_resolved=self.imports_resolved)
        result.ok = not result.errors
        return result


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

#: The per-process warm session (prelude built once per worker).
_WORKER_SESSION: Optional[Session] = None

#: Process-global parse/plan memo, keyed by source hash (bounded).
_WORKER_PLANS: Dict[str, ModulePlan] = {}
_WORKER_PLAN_LIMIT = 1024


def _worker_init(options_state: dict, trace_enabled: bool = False) -> None:
    global _WORKER_SESSION
    # Under the fork start method the child inherits the parent tracer's
    # buffered events and epoch; reset so the worker payload carries only
    # spans this process actually recorded, timed from its own clock.
    _TRACER.reset(process_name="repro worker")
    if trace_enabled:
        _TRACER.enable()
    else:
        _TRACER.disable()
    _WORKER_SESSION = Session(DriverOptions(**options_state))


def _plan_for(pipeline: Pipeline, filename: str, source: str) -> ModulePlan:
    memo_key = hashlib.sha256(source.encode("utf-8")).hexdigest()
    plan = _WORKER_PLANS.get(memo_key)
    if plan is None:
        parsed, _ = pipeline.parse(source, filename)
        assert parsed is not None, \
            "worker received a source that does not parse"
        plan = build_plan(parsed)
        if len(_WORKER_PLANS) >= _WORKER_PLAN_LIMIT:
            _WORKER_PLANS.clear()
        _WORKER_PLANS[memo_key] = plan
    return plan


def _check_pending_units(pipeline: Pipeline, plan: ModulePlan,
                         pending: Sequence[int],
                         resolver: "_SchemeResolver"
                         ) -> List[Tuple[int, dict]]:
    """Check a file's pending units in dependency order, exporting each
    unit's schemes into the resolver so later units in the chain see them.
    ``pending`` uids are ascending, which *is* dependency order."""
    payloads: List[Tuple[int, dict]] = []
    for uid in pending:
        unit = plan.units[uid]
        payload, outcome = _compute_unit_payload(pipeline, plan, uid,
                                                 resolver)
        payloads.append((uid, payload))
        for member in outcome.members:
            name = member.summary.name
            if plan.defining_decl.get(name) == member.decl_index:
                resolver.objects[name] = member.env_scheme
                resolver.srcs[name] = (
                    canonical_scheme(member.env_scheme)
                    if member.env_scheme is not None else None)
    return payloads


#: One worker job: (job id, filename, source, pending unit uids,
#: resolved dependency scheme renderings).
_UnitJob = Tuple[int, str, str, List[int],
                 List[Tuple[str, Optional[str]]]]


def _worker_check_units(shard: List[_UnitJob]
                        ) -> Tuple[List[Tuple[int, List[Tuple[int, dict]]]],
                                   Optional[dict]]:
    """Check one shard of unit jobs.

    The shard's granularity is the *unit*: fully-cached units never reach
    a worker, and each job carries exactly one file's pending units (file
    affinity keeps one parse per file; units within a file form dependency
    chains, so they are walked in order locally).  Workers re-derive the
    plan from the shipped source (deterministic) and rebuild dependency
    environments from the canonical scheme renderings, so worker output is
    byte-identical to an in-process check.

    Returns ``(results, trace_payload)``: when the worker tracer is on,
    the second element ships this process's spans (with its pid and
    wall-clock epoch) back for the parent to rebase onto its timeline.
    """
    session = _WORKER_SESSION
    assert session is not None, "worker used without _worker_init"
    pipeline = session.pipeline
    traced = _TRACER.enabled
    out = []
    for job, filename, source, pending, dep_srcs in shard:
        if traced:
            _TRACER.begin("worker.file", file=filename, units=len(pending))
        try:
            plan = _plan_for(pipeline, filename, source)
            resolver = _SchemeResolver(pipeline, plan, dict(dep_srcs))
            out.append((job, _check_pending_units(pipeline, plan, pending,
                                                  resolver)))
        finally:
            if traced:
                _TRACER.end("worker.file")
    return out, (_TRACER.worker_payload() if traced else None)


def _shard(pending: List, jobs: int) -> List[List]:
    """Contiguous shards, one per worker (a single IPC round-trip each)."""
    size, remainder = divmod(len(pending), jobs)
    shards = []
    start = 0
    for worker in range(jobs):
        stop = start + size + (1 if worker < remainder else 0)
        if stop > start:
            shards.append(pending[start:stop])
        start = stop
    return shards


# ---------------------------------------------------------------------------
# Parallel scheduling policy
# ---------------------------------------------------------------------------

#: Environment override for the serial-cutoff heuristics:
#: ``auto`` (default) applies them, ``always`` fans out whenever
#: ``jobs > 1`` (benchmarks/tests proving pool reuse), ``never`` forces
#: the in-process path.
PARALLEL_MODE_ENV = "REPRO_PARALLEL"

#: Fewest pending units that may ship to one worker before fan-out is
#: worth its dispatch cost (pickling + IPC; spawn is already amortised by
#: the persistent pool, but a warm round-trip is still not free).
_MIN_UNITS_PER_WORKER = 4


def _parallel_mode() -> str:
    mode = os.environ.get(PARALLEL_MODE_ENV, "auto").strip().lower()
    return mode if mode in ("auto", "always", "never") else "auto"


def _effective_jobs(jobs: int, pending_units: int, unit_jobs: int) -> int:
    """How many workers this batch should actually use.

    ``auto`` mode applies the serial cutoff (tiny batches and 1-CPU hosts
    never pay worker dispatch) and autotunes the shard count so every
    worker has at least :data:`_MIN_UNITS_PER_WORKER` units; ``always``
    and ``never`` bypass the heuristics in either direction.
    """
    if jobs <= 1:
        return 1
    mode = _parallel_mode()
    if mode == "never":
        return 1
    if mode == "always":
        return jobs
    cpus = os.cpu_count() or 1
    if cpus <= 1 or unit_jobs <= 1:
        return 1
    jobs = min(jobs, cpus, unit_jobs)
    while jobs > 1 and pending_units < jobs * _MIN_UNITS_PER_WORKER:
        jobs -= 1
    return jobs


# ---------------------------------------------------------------------------
# The public batch entry point
# ---------------------------------------------------------------------------


def check_many_sharded(sources: Iterable[Tuple[str, str]],
                       options: Optional[DriverOptions] = None,
                       jobs: int = 1,
                       cache: Union[ResultCache, str, None] = None,
                       session: Optional[Session] = None,
                       stats: Optional[CheckStats] = None,
                       externals: Optional[Sequence[
                           Optional[Dict[str, Optional[str]]]]] = None,
                       file_keys_in: Optional[Sequence[
                           Optional[str]]] = None,
                       exports_out: Optional[List[
                           Optional[Dict[str, Optional[str]]]]] = None,
                       ) -> List[CheckResult]:
    """Check many ``(filename, source)`` programs at unit granularity.

    The cache is hierarchical: an unchanged *file* (whole-source key) is
    answered from one file-level entry without even re-parsing; an edited
    file is parsed and planned, and its units resolve individually — from
    the per-unit cache (source slice + dependency schemes) where possible,
    otherwise by checking, in-process or across ``jobs`` worker processes.
    Sharding is unit-granular with file affinity: only pending units ship,
    one job per file, so one worker round-trip covers a whole dependency
    chain with a single parse.

    Results always come back **in input order**, as slim payload-backed
    :class:`CheckResult` values (``scheme``/``parsed``/``env`` are None).
    ``stats`` (a :class:`CheckStats`) collects per-unit timing and cache
    hit/miss counts for ``--stats``; counters accumulate, so the project
    walk can thread one object through its per-level calls.

    The project planner (:mod:`repro.driver.project`) drives the three
    extra per-file sequences, each parallel to ``sources``:

    * ``externals[i]`` — imported name → canonical exported scheme
      rendering (None value = the export failed).  A non-None entry puts
      file ``i`` in **project mode**: foreign references resolve against
      it, unit keys fold in the referenced renderings, and import
      declarations produce no single-file warning.
    * ``file_keys_in[i]`` — overrides the file-level cache key (the
      planner computes :func:`project_file_key` from the outline's foreign
      references, which the plain source key cannot see).
    * ``exports_out[i]`` — filled with the file's export map
      ({defined name: canonical rendering | None}), or None when the file
      failed to parse.  Served from the exports table on file-level
      hits, so a warm module never re-parses.
    """
    options = options or DriverOptions()
    jobs = max(1, int(jobs))
    if session is None:
        session = Session(options)
    cache = session.open_cache(cache)
    if stats is None:
        # Counting always (into an internal CheckStats) keeps the
        # telemetry registry's batch.* counters accurate whether or not
        # the caller asked for a --stats table.
        stats = CheckStats()
    pipeline = session.pipeline
    fingerprint = options_fingerprint(options)

    items = list(sources)
    results: List[Optional[CheckResult]] = [None] * len(items)
    file_keys: List[str] = []
    active: List[_FileState] = []
    for index, (filename, source) in enumerate(items):
        ext = externals[index] if externals is not None else None
        file_key = file_keys_in[index] \
            if file_keys_in is not None and file_keys_in[index] is not None \
            else cache_key(source, options, fingerprint)
        file_keys.append(file_key)
        if cache is not None:
            # In project mode a file-level hit must also supply the
            # module's exports (importers need them without a re-parse),
            # so a missing exports entry re-opens the file unprobed.
            exports_payload = None
            if ext is not None:
                exports_payload = cache.get(EXPORTS, EXPORTS.key(file_key))
            if ext is None or exports_payload is not None:
                payload = cache.get(FILE if ext is None else PFILE, file_key)
                if payload is not None:
                    results[index] = result_from_payload(payload, filename)
                    if exports_out is not None and ext is not None:
                        exports_out[index] = exports_payload["exports"]
                    stats.file_hits += 1
                    continue
        active.append(_FileState(index, filename, source, pipeline,
                                 externals=ext,
                                 imports_resolved=ext is not None))

    stats.count_files(len(items), sum(1 for state in active
                                      if state.parsed is None))

    #: In-batch memo: identical units (same key) check at most once even
    #: without a persistent cache.
    memo: Dict[str, dict] = {}

    def lookup(key: str) -> Optional[dict]:
        traced = _TRACER.enabled
        if traced:
            _TRACER.begin("cache.lookup")
        try:
            if cache is not None:
                payload = cache.get(UNIT, key)
                if payload is None:
                    stats.cache_misses += 1
                return payload
            return memo.get(key)
        finally:
            if traced:
                _TRACER.end("cache.lookup")

    def record(key: str, payload: dict) -> None:
        if cache is not None:
            cache.put(UNIT, key, payload)  # identical payloads store free
        memo[key] = payload

    if jobs == 1:
        for state in active:
            if state.plan is None:
                continue
            resolver = _SchemeResolver(pipeline, state.plan,
                                       state.scheme_srcs, state.schemes)
            for unit in state.units:
                key = unit_key(unit.source, state.dep_items(unit), options,
                               fingerprint)
                payload = lookup(key)
                if payload is not None:
                    state.resolve(unit, payload)
                    stats.note(state.filename, unit, None, "hit")
                    continue
                payload, outcome = _compute_unit_payload(
                    pipeline, state.plan, unit.uid, resolver)
                record(key, payload)
                state.resolve(unit, payload, outcome)
                stats.note(state.filename, unit, outcome.seconds, "checked")
    else:
        _check_units_parallel(active, options, jobs, lookup, record, stats,
                              pipeline, session, fingerprint)

    for state in active:
        result = state.assemble()
        results[state.index] = result
        exports = state.exports() if state.imports_resolved else None
        if exports_out is not None and state.imports_resolved:
            exports_out[state.index] = exports
        if cache is not None:
            # File-level short-circuit entry for the next unchanged run.
            # The filename is normalised out (re-stamped on load), so
            # identical sources share one entry regardless of name.
            file_key = file_keys[state.index]
            payload = result_to_payload(result)
            payload["filename"] = ""
            if state.imports_resolved:
                cache.put(PFILE, file_key, payload)
                cache.put(EXPORTS, EXPORTS.key(file_key),
                          {"exports": exports})
            else:
                cache.put(FILE, file_key, payload)

    if cache is not None:
        cache.save()
    assert all(result is not None for result in results)
    return results  # type: ignore[return-value]


def _check_units_parallel(active: List[_FileState], options: DriverOptions,
                          jobs: int, lookup, record,
                          stats: CheckStats,
                          pipeline: Pipeline,
                          session: Session,
                          fingerprint: Optional[str] = None) -> None:
    """Resolve pending units across the session's persistent worker pool.

    Per file, cache-resolvable units are answered in dependency order in
    the main process (a hit exports its scheme rendering, which may make
    the *next* unit's key resolvable — the early-cutoff cascade); the
    first unresolvable unit and everything after it become one unit job.
    Jobs are deduplicated (identical sources check once) and sharded
    contiguously across the pool owned by ``session`` — reused from the
    previous batch when large enough, so spawn cost is paid at most once
    per session.  The serial cutoff (:func:`_effective_jobs`) keeps tiny
    batches and 1-CPU hosts on the in-process path, and restricted
    environments (no fork, no /dev/shm) degrade to it rather than
    failing.
    """
    import concurrent.futures

    #: (state, pending uids) per file that still has work.
    unit_jobs: List[Tuple[_FileState, List[int]]] = []
    for state in active:
        if state.plan is None:
            continue
        pending: List[int] = []
        pending_uids: set = set()
        for unit in state.units:
            blocked = any(state.plan.defining_unit[dep] in pending_uids
                          for dep in unit.deps)
            if not blocked:
                key = unit_key(unit.source, state.dep_items(unit), options,
                               fingerprint)
                payload = lookup(key)
                if payload is not None:
                    state.resolve(unit, payload)
                    stats.note(state.filename, unit, None, "hit")
                    continue
            pending.append(unit.uid)
            pending_uids.add(unit.uid)
        if pending:
            unit_jobs.append((state, pending))
    if not unit_jobs:
        return

    # Deduplicate identical jobs (same source, same pending units, same
    # dependency schemes): duplicate corpora check once.
    signature_of: Dict[Tuple, int] = {}
    unique: List[Tuple[_FileState, List[int]]] = []
    duplicate_of: List[int] = []
    for state, pending in unit_jobs:
        signature = (state.source, tuple(pending),
                     tuple(sorted(state.scheme_srcs.items())))
        position = signature_of.get(signature)
        if position is None:
            signature_of[signature] = len(unique)
            duplicate_of.append(len(unique))
            unique.append((state, pending))
        else:
            duplicate_of.append(position)

    shipped: List[_UnitJob] = [
        (position, state.filename, state.source, pending,
         list(state.scheme_srcs.items()))
        for position, (state, pending) in enumerate(unique)]

    computed: List[Optional[List[Tuple[int, dict]]]] = [None] * len(unique)

    def compute_serially() -> None:
        for position, (state, pending) in enumerate(unique):
            if computed[position] is not None:
                continue
            resolver = _SchemeResolver(pipeline, state.plan,
                                       dict(state.scheme_srcs),
                                       dict(state.schemes))
            computed[position] = _check_pending_units(
                pipeline, state.plan, pending, resolver)

    pending_units = sum(len(pending) for _, pending in unique)
    effective = _effective_jobs(jobs, pending_units, len(unique))
    if effective <= 1:
        _REGISTRY.inc("pool.serial_batches")
        compute_serially()
    else:
        # Each shard gets its own synthetic tid row: the dispatch windows
        # overlap each other by design, and separate rows keep the B/E
        # stack discipline intact per (pid, tid).  Worker spans come back
        # in the result payload and are rebased onto this timeline under
        # the worker's own pid, temporally inside their shard window.
        traced = _TRACER.enabled
        begun: List[int] = []
        ended = 0
        try:
            executor = session.acquire_pool(effective, options)
            shards = _shard(shipped, min(effective, len(shipped)))
            futures = []
            for shard_index, shard in enumerate(shards):
                if traced:
                    _TRACER.begin("pool.shard",
                                  tid=SHARD_TID_BASE + shard_index,
                                  shard=shard_index, files=len(shard))
                    begun.append(shard_index)
                futures.append(executor.submit(_worker_check_units, shard))
            for shard_index, future in enumerate(futures):
                shard_results, trace_payload = future.result()
                for position, payloads in shard_results:
                    computed[position] = payloads
                if traced:
                    _TRACER.merge_worker(trace_payload)
                    _TRACER.end("pool.shard",
                                tid=SHARD_TID_BASE + shard_index)
                    ended += 1
            _REGISTRY.inc("pool.parallel_batches")
        except (OSError, PermissionError,
                concurrent.futures.process.BrokenProcessPool):
            # A broken/unspawnable pool is dropped (the next batch may
            # retry); this batch completes in-process.
            if traced:
                for shard_index in begun[ended:]:
                    _TRACER.end("pool.shard",
                                tid=SHARD_TID_BASE + shard_index)
            session.discard_pool()
            _REGISTRY.inc("pool.serial_batches")
            compute_serially()

    for job_index, (state, pending) in enumerate(unit_jobs):
        payloads = computed[duplicate_of[job_index]]
        assert payloads is not None
        is_duplicate = state is not unique[duplicate_of[job_index]][0]
        for uid, payload in payloads:
            unit = state.plan.units[uid]
            key = unit_key(unit.source, state.dep_items(unit), options,
                           fingerprint)
            if not is_duplicate:
                record(key, payload)
            state.resolve(unit, payload)
            stats.note(state.filename, unit, None,
                       "skipped" if is_duplicate else "checked")
