"""Serving benchmark: drive ``QueryService`` through one seeded workload.

    python3 perfbench/run.py --workload hot_reads --seed 1 --seconds 15 --trace 0

Run from the root of a checkout; the program is imported from ``src``.  One
client thread in a closed loop repeats the workload's round of operations
until ``--seconds`` have passed, then the outputs are checked against the
benchmark's own reference evaluator and model.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` — the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics of a run with every layer wrapped.  The line before it reports the
operations attempted and failed per type, reference percentiles and the
digest of the inputs.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402 - found through the line above

# Every time the benchmark reports is CPU time of the one client thread
# (``time.thread_time_ns``), not wall-clock time, scaled to a reference
# machine speed (calibrate.py).  The program does no I/O, no waiting and
# starts no thread in these workloads (the info line reports the threads
# alive after the run), so an operation's CPU time is its service time;
# wall-clock time adds whatever the shared machine's scheduler gives to
# others while the operation runs (time slices of ~ms, stolen virtual-CPU
# time), which moved wall-clock figures of the same code by up to 2x
# between runs.  Unscaled CPU and wall-clock figures are printed for
# reference.
# The process-wide CPU clock is not used: while the latency limit's
# ITIMER_PROF is armed, Linux reads it in whole scheduler ticks.
cpu_clock = time.thread_time_ns
wall_clock = time.perf_counter_ns
# A calibration sample (~0.45 ms) is taken whenever this much CPU time has
# passed since the last one, between two operations (~5 % of a run).
CALIBRATE_EVERY_NS = 10_000_000
# Calibration samples taken before and after each set-up (and, as in the
# measured phase, between its warm-up operations).
SETUP_CALIBRATION_SAMPLES = 25

# Fresh set-ups per run, until they add up to SETUP_BUDGET_S (at least
# SETUP_MIN, at most SETUP_MAX); setup_s is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 15, 5.0
ABANDON_RETRY_S = 0.01
# Latency percentiles are medians over windows of whole rounds lasting at
# least this long, so a burst of load from elsewhere on the machine moves
# one window, not the metric; rates are interquartile means over them.
WINDOW_NS = 1_500_000_000


class Abandoned(BaseException):
    """Raised in the main thread when a read passes the latency limit.

    A ``BaseException``, like ``KeyboardInterrupt``, so the program's own
    ``except Exception`` handlers cannot swallow it.
    """


class Deadline:
    """The latency limit of one read, enforced with a repeating SIGPROF.

    The limit is on CPU time (``ITIMER_PROF``, the process's; the program
    runs no other thread), like every time the benchmark reports, so load
    from elsewhere on the machine cannot push a read past it.  The alarm
    repeats every ``ABANDON_RETRY_S`` after the limit: an exception raised
    where Python only reports it (a garbage-collector callback, a
    finalizer) is lost, and the next alarm raises again.  Alarms that
    arrive after :meth:`disarm` began are ignored.
    """

    def __init__(self, limit_s: float) -> None:
        self.limit_s = limit_s
        self.armed = False
        signal.signal(signal.SIGPROF, self._on_alarm)

    def _on_alarm(self, signum, frame) -> None:  # noqa: ANN001 - handler signature
        if self.armed:
            raise Abandoned()

    def arm(self) -> None:
        self.armed = True
        signal.setitimer(signal.ITIMER_PROF, self.limit_s, ABANDON_RETRY_S)

    def disarm(self) -> None:
        while True:
            try:
                self.armed = False
                signal.setitimer(signal.ITIMER_PROF, 0)
                return
            except Abandoned:  # an alarm handled before ``armed`` dropped
                continue


def build(workload, calibration: list[int]):
    """A fresh database filled from the rows, a service over it, warmed up.

    Returns them with the CPU time the program spent.  Calibration samples
    taken between warm-up operations (appended to ``calibration``) are not
    part of that time.
    """
    from repro.engine.service import QueryService
    from repro.storage.instance import Database

    started = cpu_clock()
    database = Database(workload.schema)
    for relation in sorted(workload.rows):
        database.add_many(relation, workload.rows[relation])
    service = QueryService(database, workload.access_schema, workload.views)
    prepared = {name: service.prepare(text) for name, text in workload.prepared.items()}
    spent = since_sample = cpu_clock() - started
    for op in workload.warmup:
        started = cpu_clock()
        execute(service, prepared, op)
        elapsed = cpu_clock() - started
        spent += elapsed
        since_sample += elapsed
        if since_sample >= CALIBRATE_EVERY_NS:
            calibration.append(calibrate.sample())
            since_sample = 0
    return database, service, prepared, spent


def execute(service, prepared, op, deadline: Deadline | None = None):
    """Run one operation; a read past the deadline raises :class:`Abandoned`."""
    if op.kind == "apply":
        return service.apply(op.batch)
    if deadline is not None:
        deadline.arm()
    try:
        if op.kind == "text":
            return service.query(op.text)
        return prepared[op.text].execute(**op.params)
    finally:
        if deadline is not None:
            deadline.disarm()


def percentile(sorted_values: list[float], fraction: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(fraction * len(sorted_values)))]


def interquartile_mean(values: list[float]) -> float:
    """The mean of the middle half of ``values`` (all of them below four).

    A window's rate drops by up to half when a full garbage collection lands
    on one of its short operations, rarely on `hot_reads` and often on
    `skewed_feed`.  Over ten seeds the median over windows spread 0.11 on
    `skewed_feed` (too few lumps per window to average), the rate over the
    whole run 0.12 on `hot_reads` (one lump is a tenth of a run), and this
    mean at most 0.09 on both.
    """
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.mean(ordered[cut:len(ordered) - cut])


def measure(workload, service, prepared, seconds: float, tracer, limit_scale: float):
    """Repeat whole rounds until ``seconds`` have passed.

    Rounds are grouped into windows of at least ``WINDOW_NS`` of wall-clock
    time; each window gets its own read and apply percentiles and rates, and
    a run reports the median over its windows (a last, shorter window is
    dropped; a run shorter than one window is one window).  Returns those
    per-window figures — in CPU time scaled by the window's calibration
    samples, in unscaled CPU time and in wall-clock time — the number of
    rounds, the outcomes of the first two rounds in full, the distinct
    outcomes of each op in later rounds (so memory does not grow with the
    number of rounds a run fits) and the failed reads per op index.
    ``limit_scale`` stretches the workload's latency limit to this machine's
    speed.
    """
    ops = workload.round
    deadline = Deadline(workload.limit_s * limit_scale) if workload.limit_s is not None else None
    windows: dict[str, list[dict[str, float]]] = {"scaled": [], "cpu": [], "wall": []}
    calibration: list[int] = []
    calibrated = cpu_clock()
    results: list[list] = []
    later: list[set] = [set() for _ in ops]
    failed: dict[int, int] = {}
    end = time.perf_counter() + seconds
    rounds = 0
    # Per op kind: [CPU ns of each op], [wall ns of each op].
    samples: dict[str, tuple[list[int], list[int]]] = {"read": ([], []), "apply": ([], [])}
    updates = 0
    window_started = wall_clock()
    while rounds == 0 or time.perf_counter() < end:
        full = rounds < 2
        outcome: list = []
        for index, op in enumerate(ops):
            if tracer is not None:
                tracer.begin(op.kind)
            started_wall = wall_clock()
            started = cpu_clock()
            try:
                result = execute(service, prepared, op, deadline)
            except Abandoned:
                result = None
            elapsed = cpu_clock() - started
            elapsed_wall = wall_clock() - started_wall
            if tracer is not None:
                tracer.end(abandoned=result is None)
            if cpu_clock() - calibrated >= CALIBRATE_EVERY_NS:
                calibration.append(calibrate.sample())
                calibrated = cpu_clock()
            if op.kind == "apply":
                samples["apply"][0].append(elapsed)
                samples["apply"][1].append(elapsed_wall)
                updates += len(op.batch)
                outcome.append((result.inserted, result.deleted, result.skipped_inadmissible))
                continue
            if result is None:
                failed[index] = failed.get(index, 0) + 1
                outcome.append(None)
                continue
            samples["read"][0].append(elapsed)
            samples["read"][1].append(elapsed_wall)
            summary = (len(result.rows), result.tuples_fetched, result.tuples_scanned, result.view_tuples_scanned)
            outcome.append((result, summary) if full else (None, summary))
        if full:
            results.append(outcome)
        else:
            for index, value in enumerate(outcome):
                later[index].add(value)
        rounds += 1
        last = time.perf_counter() >= end
        if wall_clock() - window_started >= WINDOW_NS or (last and not windows["scaled"]):
            if not calibration:
                calibration.append(calibrate.sample())
            scale = calibrate.factor(calibration)
            for name, which, factor in (("scaled", 0, scale), ("cpu", 0, 1.0), ("wall", 1, 1.0)):
                windows[name].append(
                    _window_figures(samples["read"][which], samples["apply"][which], updates, factor)
                )
            windows["scaled"][-1]["scale"] = scale
            samples = {"read": ([], []), "apply": ([], [])}
            calibration = []
            updates = 0
            window_started = wall_clock()
    return windows, rounds, results, later, failed


def _window_figures(reads_ns: list[int], applies_ns: list[int], updates: int, scale: float) -> dict[str, float]:
    """Percentiles and rates of one window, times multiplied by ``scale``.

    Reads abandoned at the latency limit count in neither: their time is the
    limit, not the program's.
    """
    reads_ms = sorted(ns * scale / 1e6 for ns in reads_ns)
    applies_ms = sorted(ns * scale / 1e6 for ns in applies_ns)
    return {
        "read_p50_ms": percentile(reads_ms, 0.5),
        "read_p90_ms": percentile(reads_ms, 0.9),
        "read_p99_ms": percentile(reads_ms, 0.99),
        "reads_per_s": len(reads_ms) / sum(reads_ms) * 1e3,
        "apply_p50_ms": percentile(applies_ms, 0.5),
        "apply_p90_ms": percentile(applies_ms, 0.9),
        "apply_p99_ms": percentile(applies_ms, 0.99),
        "updates_per_s": updates / sum(applies_ms) * 1e3,
        "read_samples": len(reads_ms),
        "apply_samples": len(applies_ms),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = Path.cwd() / "src"
    sys.path.insert(0, str(source))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from ./src: {exc}", file=sys.stderr)
        return 2
    if source not in Path(repro.__file__).resolve().parents:
        print(f"the program was imported from {repro.__file__}, not ./src", file=sys.stderr)
        return 2
    import checks
    import layers
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    tracer = layers.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()

    # Each set-up's CPU time is scaled by calibration samples taken right
    # before it, during its warm-up and right after it; the first samples
    # also scale the latency limit.
    setups: list[float] = []
    calibration = [calibrate.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
    limit_scale = 1 / calibrate.factor(calibration)
    while len(setups) < SETUP_MIN or (len(setups) < SETUP_MAX and sum(setups) < SETUP_BUDGET_S):
        if setups:
            service.close()
            del database, service, prepared
            calibration = [calibrate.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
        gc.collect()
        database, service, prepared, spent = build(workload, calibration)
        calibration += [calibrate.sample() for _ in range(SETUP_CALIBRATION_SAMPLES)]
        setups.append(spent * calibrate.factor(calibration) / 1e9)

    # Every run starts its measured phase from the same collector state.
    gc.collect()
    if tracer is not None:
        tracer.active = True
    windows, rounds, results, later, failed = measure(workload, service, prepared, args.seconds, tracer, limit_scale)
    if tracer is not None:
        tracer.stop(service)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    errors = checks.run_all(workload, database, service, results, later)
    for error in errors[:20]:
        print("CHECK FAILED:", error, file=sys.stderr)

    per_type: dict[str, list[int]] = {}
    for index, op in enumerate(workload.round):
        counts = per_type.setdefault(op.kind, [0, 0])
        counts[0] += rounds
        counts[1] += failed.get(index, 0)
    # Every round reads the same states, so one round gives the average
    # (the checks confirm each op's Dξ and scans repeat in every round).
    accessed = [o[1][1] + o[1][2] for o in results[0] if o is not None and len(o) == 2]

    def median(name: str, of: str = "scaled") -> float:
        return statistics.median(window[name] for window in windows[of])

    def timings(of: str) -> dict[str, float]:
        """Percentiles are medians over the windows, rates their
        interquartile means (see ``interquartile_mean``)."""
        return {
            "read_p50_ms": median("read_p50_ms", of),
            "read_p90_ms": median("read_p90_ms", of),
            "reads_per_s": interquartile_mean([window["reads_per_s"] for window in windows[of]]),
            "apply_p50_ms": median("apply_p50_ms", of),
            "apply_p90_ms": median("apply_p90_ms", of),
            "updates_per_s": interquartile_mean([window["updates_per_s"] for window in windows[of]]),
        }

    timed = ("read_p50_ms", "read_p90_ms", "reads_per_s", "apply_p50_ms", "apply_p90_ms", "updates_per_s")

    print(
        json.dumps(
            {
                "workload": workload.name,
                "seed": args.seed,
                "inputs_digest": workload.digest(),
                "rounds": rounds,
                "ops_per_round": len(workload.round),
                "attempted_failed_by_type": per_type,
                "abandoned": sorted({workload.round[i].text for i in failed}),
                "windows": {name: [window[name] for window in windows["scaled"]] for name in timed + ("scale",)},
                "cpu_unscaled": timings("cpu"),
                "wall_clock": timings("wall"),
                "read_samples_per_window": median("read_samples"),
                "read_p99_ms": median("read_p99_ms"),
                "apply_samples_per_window": median("apply_samples"),
                "apply_p99_ms": median("apply_p99_ms"),
                "setup_s_each": [round(s, 4) for s in setups],
                "threads": threading.active_count(),
            }
        )
    )
    if tracer is not None:
        metrics = tracer.metrics(workload, rounds, results[0])
    else:
        scaled = timings("scaled")
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            **{name: (value, "1/s" if name.endswith("_per_s") else "ms") for name, value in scaled.items()},
            "data_accessed_per_read": (sum(accessed) / len(accessed), "tuples"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    print(
        json.dumps(
            {
                "correct": not errors,
                "attempted": rounds * len(workload.round),
                "failed": sum(failed.values()),
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
