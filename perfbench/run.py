"""The repository benchmark: one workload, one seed, checked outputs.

Run from the root of a checkout::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 20 --trace 0

Workloads (see ``perfbench/workloads.py``):

* ``corpus`` — generated fuzz programs through ``Session.check``,
  ``Session.run_from_check`` and ``check_many(jobs=2)``;
* ``edit``   — an 8-module import chain rebuilt with ``check_project``
  after seeded body, scheme and no edits, against an on-disk cache;
* ``exec``   — loop programs in four families through the interpreter,
  the closure compiler and ``repro.validate.validate_check``.

With ``--trace 0`` the run sets up three times, then runs whole rounds
of the workload until ``--seconds`` have passed, and reports the
end-to-end metrics.  Every workload reports the same names:

=================  ===================  ===================  ==================
metric             corpus               edit (user CPU)      exec
=================  ===================  ===================  ==================
setup_s            inputs, sessions and warm-up; median of the three set-ups
peak_rss_mb        peak resident memory of the process
op_p50_ms,         ``Session.check``    ``check_project``    ``Session.check``
op_p95_ms          per program          per edit step        per loop program
primary_per_s      programs checked     scheme edits         interpreted loop
                   and run, serially    rebuilt              kiters
secondary_per_s    programs through     body edits           compiled loop
                   ``check_many``       rebuilt              kiters
                   (jobs=2) per CPU-
                   second of parent
                   and workers
tertiary_per_s     programs run         no-op rebuilds       validated L steps
                   (median run)
=================  ===================  ===================  ==================

Times are scaled to a reference host speed, sampled between operations
by a fixed calibration kernel (``workloads.Calibration``), so that this
shared host's drift in speed cancels; the host speed is printed.  The
edit workload times operations in user CPU time, because shard writes on
a slow disk stall for milliseconds and load the kernel unevenly; and the
two-worker batch is costed in CPU time, because on a two-CPU host shared
with others the second CPU comes and goes.  The wall-clock figures, and
the edit workload's cold build into an empty cache (one sample a round,
too few to be steady), are printed beside them as report-only.

With ``--trace 1`` it runs one round untraced, the same round with every
layer wrapped (``perfbench/layers.py``) and the round untraced again, and
reports per-layer self times and counts, the time no layer accounts for,
and the tracing overhead; the spans are written to ``.perfbench/``.

Every workload runs at the interpreter's default recursion limit, as
``python -m repro`` does, so a program too deep for a backend fails
there and is counted, not hidden.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space inside the checkout: the edit workload's cache
#: directories and the traced run's span files.
OUT = os.path.join(ROOT, ".perfbench")
#: Set-up is repeated this many times and reported as the median.
SETUPS = 3


def _host() -> str:
    model = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return (f"python {platform.python_version()}  nproc {os.cpu_count()}  "
            f"cpu {model}")


def _filesystem(path: str) -> str:
    """The type of the filesystem ``path`` lives on, from the mount table."""
    best, kind = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as handle:
            for line in handle:
                fields = line.split()
                if len(fields) >= 3 and (path + "/").startswith(
                        fields[1].rstrip("/") + "/") \
                        and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _make(name: str):
    from workloads import Corpus, Edit, Exec

    if name == "corpus":
        return Corpus()
    if name == "edit":
        return Edit(os.path.join(OUT, f"edit-{os.getpid()}"))
    return Exec()


def _measure(workload, seed: int, seconds: float, tally):
    """Set up, then run whole rounds until ``seconds`` have passed."""
    setups = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - start)
        setups[-1] *= tally.calibrate()
    start = time.perf_counter()
    rounds = 0
    while time.perf_counter() - start < seconds:
        workload.round(tally)
        rounds += 1
    metrics = workload.metrics()
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    print(f"rounds: {rounds} in {time.perf_counter() - start:.2f} s; "
          "set-ups (s): " + ", ".join(f"{value:.4f}" for value in setups))
    print(f"host speed: {tally.measured_s / tally.scaled_s:.4f} of the "
          f"reference over the operations "
          f"({tally.calibration.samples} calibration samples); every time "
          "below is scaled to the reference")
    return metrics


def _traced(workload, seed: int, tally):
    """The same round untraced, traced layer by layer, and untraced again;
    the overhead is the traced wall time over the mean of the other two."""
    from layers import LayerProbes, SpanRecorder, layer_metrics
    from repro.telemetry import REGISTRY

    def timed_round(probes=None):
        workload.setup(seed)
        if probes is not None:
            REGISTRY.reset()
            REGISTRY.enable()
            probes.install()
            tally.recorder = probes.recorder
        try:
            start = time.perf_counter()
            workload.generate(seed)
            workload.round(tally)
            return time.perf_counter() - start
        finally:
            if probes is not None:
                tally.recorder = None
                probes.remove()
                REGISTRY.enabled = False

    before = timed_round()
    recorder = SpanRecorder()
    probes = LayerProbes(recorder)
    traced = timed_round(probes)
    recheck = workload.recheck()
    counters = REGISTRY.snapshot()["counters"]
    after = timed_round()
    metrics = layer_metrics(recorder, probes, counters, traced,
                            (before + after) / 2, recheck)
    print(f"untraced rounds: {before:.3f} s, {after:.3f} s; "
          f"traced round: {traced:.3f} s")
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload.name}-{seed}.json")
    recorder.write(path)
    print(f"spans: {len(recorder.spans)} written to "
          f"{os.path.relpath(path, ROOT)}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("corpus", "edit", "exec"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source_root = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source_root, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {source_root}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [source_root, HERE]

    from layers import LAYER_METRICS
    from workloads import END_TO_END, Tally

    import_start = time.perf_counter()
    import repro.driver  # noqa: F401
    import repro.fuzz  # noqa: F401
    import repro.validate  # noqa: F401
    import_s = time.perf_counter() - import_start

    print(f"host: {_host()}")
    print(f"workload: {args.workload}  seed: {args.seed}  "
          f"trace: {args.trace}  recursion limit: "
          f"{sys.getrecursionlimit()}  import: {import_s:.3f} s")
    workload = _make(args.workload)
    if args.workload == "edit":
        os.makedirs(OUT, exist_ok=True)
        print(f"edit cache filesystem: {_filesystem(OUT)} "
              f"({os.path.relpath(OUT, ROOT)})")
    tally = Tally(workload.CLOCK)
    try:
        if args.trace:
            values = _traced(workload, args.seed, tally)
            units = dict(LAYER_METRICS)
            for name, unit in LAYER_METRICS:
                print(f"  {name:38s} {values[name]:14.3f} {unit}")
        else:
            values = _measure(workload, args.seed, args.seconds, tally)
            units = {name: unit for name, unit, _ in END_TO_END}
            for name, unit, meaning in END_TO_END:
                print(f"  {meaning[args.workload]:26s} {name:16s} "
                      f"{values[name]:14.4f} {unit}")
            for name in sorted(set(values) - set(units)):
                print(f"  {name:43s} {values[name]:14.4f}")
    finally:
        workload.close()

    print(f"attempted: {tally.attempted}  failed: {tally.failed}  "
          f"fail_ratio: {tally.failed / max(tally.attempted, 1):.4f}  "
          f"wrong answers: {tally.wrong}")
    for reason, count in sorted(tally.reasons.items()):
        print(f"  {count:6d}  {reason}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
