"""One repetition of a workload, run in a fresh interpreter by run.py.

    python3 perfbench/job.py <workload> <seed> <trace 0|1> <tiny 0|1> [setup]

The process imports the package from ``src/`` next to this directory, builds
the CLI parser, and prints ``ready``: that is the set-up the parent times.
It then prints the CPU's speed factor (see SpeedSampler).  With ``setup`` it
exits there.  Otherwise it runs the workload's items in a seeded order,
optionally traced, timing only the package calls.  It prints
a line ``item <json>`` as each item ends, then ``done <json>`` with the job
time, the speed factor, the CPU time used before the job and, when traced,
the per-layer metrics, and last the CPU time spent outside the timed region.
The parent checks the outputs.
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


# The calibration loop's time on the reference CPU (a 2-vCPU Intel Xeon VM,
# in its faster phase).  Times are reported in reference seconds: measured
# seconds times REFERENCE_LOOP_S over the loop's time measured alongside.
REFERENCE_LOOP_S = 0.0022
SAMPLE_EVERY_S = 0.1


def calibration_loop() -> float:
    """Wall time of a fixed pure-Python loop of arithmetic and dict stores,
    the kind of work the package's layers do."""
    start = time.perf_counter()
    acc = 0
    table = {}
    for i in range(10_000):
        acc = (acc * 1103515245 + i) % 2147483648
        table[i & 255] = acc
    return time.perf_counter() - start


def speed_factor(samples: list[float]) -> float:
    """Reference seconds per measured second over the sampled stretch.

    Each sample stands for an equal stretch of wall time, so the factor is
    the mean of REFERENCE_LOOP_S / sample.  Samples more than twice the
    median were interrupted and are dropped.
    """
    limit = 2 * sorted(samples)[len(samples) // 2]
    kept = [s for s in samples if s <= limit]
    return sum(REFERENCE_LOOP_S / s for s in kept) / len(kept)


class SpeedSampler:
    """Runs the calibration loop every SAMPLE_EVERY_S seconds of wall time
    from a SIGALRM handler, so the CPU's speed is known at the moments the
    job ran.  The machine's speed drifts by a third within seconds when
    other tenants load it; the samples let the job time be scaled to
    reference seconds.  ``stolen`` is the wall time the handler took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.stolen = 0.0

    def _sample(self, *_) -> None:
        start = time.perf_counter()
        self.samples.append(calibration_loop())
        self.stolen += time.perf_counter() - start

    def __enter__(self) -> "SpeedSampler":
        import signal

        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()


def cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    import resource

    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def run_items(cc, workload, items: list[tuple], seed: int, emit,
              sampler: SpeedSampler | None = None) -> tuple[float, float]:
    """Run the items in order, timing only the package calls.

    Each raw result is turned into its JSON record, handed to emit and
    dropped as soon as its item ends, outside the timed region, so the
    job's memory is the package's own.  Returns the job's wall time and the
    CPU time spent outside the timed region (sampler time included).
    """
    job_s = cpu_outside = 0.0
    for item in items:
        stolen = sampler.stolen if sampler else 0.0
        start = time.perf_counter()
        try:
            raw, error = workload.run(cc, item, seed), None
        except Exception as exc:  # an item that raises counts as failed
            raw, error = None, f"{type(exc).__name__}: {exc}"
        job_s += time.perf_counter() - start - ((sampler.stolen if sampler else 0.0) - stolen)
        cpu = cpu_seconds()
        emit(finish_item(workload, item, raw, error))
        del raw
        cpu_outside += cpu_seconds() - cpu
    if sampler:
        cpu_outside += sampler.stolen
    return job_s, cpu_outside


def finish_item(workload, item: tuple, raw, error: str | None) -> dict:
    """The JSON record of one item."""
    from workloads import item_key

    record = {"key": item_key(item), "error": error}
    if error is None:
        try:
            done = workload.finish(item, raw)
        except Exception as exc:
            record["error"] = f"{type(exc).__name__}: {exc}"
        else:
            record.update(value=done.value, answers=done.answers, exact=done.exact,
                          inexact=list(done.inexact), counters=dict(done.counters))
    return record


def main(argv: list[str]) -> int:
    name, seed, trace, tiny = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    import cyclocode as cc
    from cyclocode import cli

    cli.build_parser()
    print("ready", flush=True)
    # The speed of the CPU just after set-up stands for its speed during it.
    print(speed_factor([calibration_loop() for _ in range(5)]), flush=True)
    if argv[4:] == ["setup"]:
        return 0

    # The harness's own imports come after the set-up the parent times.
    import json
    import random

    from workloads import EXACT_MODES, WORKLOADS

    workload = WORKLOADS[name]
    items = workload.items(tiny)
    random.Random(seed).shuffle(items)
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer(cc)
        tracer.install()
    def emit(record: dict) -> None:
        sys.stdout.write("item " + json.dumps(record, separators=(",", ":")) + "\n")

    cpu_start = cpu_seconds()
    if tracer:
        # No sampling here: its handler time would land in the spans.
        job_s, cpu_outside = run_items(cc, workload, items, seed, emit)
        speed = None
    else:
        with SpeedSampler() as sampler:
            job_s, cpu_outside = run_items(cc, workload, items, seed, emit, sampler)
        speed = speed_factor(sampler.samples)
    cpu_end = cpu_seconds()
    if tracer:
        tracer.uninstall()
    result = {
        "job_s": job_s,
        "speed": speed,
        "cpu_start": cpu_start,
        "layers": tracer.layer_metrics(EXACT_MODES) if tracer else None,
    }
    sys.stdout.write("done " + json.dumps(result) + "\n")
    # Last line: CPU used after set-up but outside the timed region.
    sys.stdout.write(f"{cpu_outside + cpu_seconds() - cpu_end}\n")
    sys.stdout.flush()
    os._exit(0)  # skip interpreter teardown, which the parent would count as job CPU


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
