"""Benchmark for cyclocode: one workload per run, every repetition in a fresh
single-process child, outputs checked against the pins.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 20 --trace 0

Run from the root of a checkout that holds ``src/cyclocode``.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it are the same
figures for people.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
JOB = os.path.join(HERE, "job.py")
PINS = os.path.join(HERE, "pins")
sys.path.insert(0, HERE)

from tracer import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SETUP_REPS = 9  # set-up-only children per untraced run, besides the job children
MIN_REPS = 3  # job repetitions per untraced run, unless that would pass DEADLINE_S
DEADLINE_S = 170.0  # a run must end within 180 seconds

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "cpu_s": "s",
    "peak_rss_mib": "MiB",
    "exact_share": "ratio",
}


class Launcher:
    """The small process that spawns every child (see launcher.py)."""

    def __init__(self) -> None:
        env = dict(os.environ)
        env.update(CYCLOCODE_THREADS="1", PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-S", os.path.join(HERE, "launcher.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.pid: int | None = None  # the running child, if any

    def kill_child(self) -> None:
        if self.pid is not None:
            try:
                os.kill(self.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

    def spawn(self, workload: str, seed: int, trace: bool, tiny: bool, setup_only: bool,
              timeout: float) -> dict:
        """Run one child to its end.  Returns its set-up time with the speed
        factor measured right after it and, for a job child, its parsed
        result with its CPU time and peak RSS from os.wait4."""
        argv = [sys.executable, JOB, workload, str(seed), str(int(trace)), str(int(tiny))]
        if setup_only:
            argv.append("setup")
        timer = threading.Timer(timeout, self.kill_child)
        start = time.perf_counter()
        self.proc.stdin.write(("\t".join(argv) + "\n").encode())
        self.proc.stdin.flush()
        timer.start()
        setup_s = usage = None
        lines = []
        try:
            for line in self.proc.stdout:
                if line.startswith(b"\0pid "):
                    self.pid = int(line.split()[1])
                elif line.startswith(b"\0rusage "):
                    usage = line.split()[1:]
                    break
                elif setup_s is None and line == b"ready\n":
                    setup_s = time.perf_counter() - start
                else:
                    lines.append(line)
        finally:
            timer.cancel()
            self.pid = None
        # After "ready": the speed factor; for a job child its item records,
        # its result and the CPU time it spent outside the timed region.  Any
        # other line is the package's own output.
        tail = 0 if setup_only else 2
        if (usage is None or usage[0] != b"0" or setup_s is None or len(lines) < 1 + tail
                or (tail and not lines[-2].startswith(b"done "))):
            raise RuntimeError(f"child {' '.join(argv[1:])} failed ({usage}):\n"
                               f"{b''.join(lines).decode(errors='replace')[-4000:]}")
        body = lines[1:len(lines) - tail]
        log = b"".join(line for line in body if not line.startswith(b"item "))
        if log.strip():
            sys.stderr.write(log.decode(errors="replace"))
        out = {"setup_s": setup_s, "setup_speed": float(lines[0])}
        if not setup_only:
            out.update(json.loads(lines[-2][5:]))
            out["items"] = [json.loads(line[5:]) for line in body if line.startswith(b"item ")]
            cpu_total = float(usage[1]) + float(usage[2])
            out["cpu_s"] = cpu_total - out["cpu_start"] - float(lines[-1])
            out["peak_rss_mib"] = int(usage[3]) / 1024  # ru_maxrss is in KiB on Linux
        return out

    def close(self) -> None:
        self.kill_child()
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def load_pins(workload: str) -> dict:
    with open(os.path.join(PINS, f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)


def check(workload: str, records: list[dict], pins: dict) -> tuple[int, list[str]]:
    """Number of failed items and a description of each failure."""
    w = WORKLOADS[workload]
    failures = []
    for rec in records:
        item = tuple(int(x) if x.isdigit() else x for x in rec["key"].split(","))
        if rec["error"] is not None:
            failures.append(f"{rec['key']}: {rec['error']}")
        elif rec["key"] not in pins:
            failures.append(f"{rec['key']}: no pin")
        elif not w.check(item, rec["value"], pins[rec["key"]]):
            failures.append(f"{rec['key']}: got {json.dumps(rec['value'])[:300]}")
    return len(failures), failures


def tail_percentile(values: list[float]) -> str:
    """The highest percentile with at least ten repetitions above it."""
    n = len(values)
    if n < 20:
        return f"none above the median (needs 20 repetitions, have {n})"
    ordered = sorted(values)
    return f"p{100 * (n - 10) / n:.0f} = {ordered[n - 11]:.4f} s"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small items per workload, for the self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "cyclocode", "__init__.py")):
        print(f"no package at {os.path.join(ROOT, 'src', 'cyclocode')}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    pins = load_pins(args.workload)
    trace = bool(args.trace)
    deadline = time.perf_counter() + DEADLINE_S

    launcher = Launcher()

    def child(traced: bool, setup_only: bool = False) -> dict:
        return launcher.spawn(args.workload, args.seed, traced, args.tiny, setup_only,
                              timeout=deadline - time.perf_counter())

    try:
        child(False, setup_only=True)  # warms the file cache; not counted
        setups = [] if trace else [child(False, setup_only=True) for _ in range(SETUP_REPS)]
        plain: list[dict] = []
        traced: list[dict] = []
        start = time.perf_counter()
        while True:
            plain.append(child(False))
            if trace:
                traced.append(child(True))
            now = time.perf_counter()
            per_rep = (now - start) / len(plain)
            if now + per_rep > deadline or (len(plain) >= (1 if trace else MIN_REPS)
                                            and now - start + per_rep > args.seconds):
                break
    finally:
        launcher.close()

    runs = plain + traced
    attempted = failed = 0
    failures: list[str] = []
    for r in runs:
        bad, why = check(args.workload, r["items"], pins)
        attempted += len(r["items"])
        failed += bad
        failures += why
    outputs = [digest(sorted([rec["key"], rec.get("value")] for rec in r["items"])) for r in runs]
    consistent = len(set(outputs)) == 1
    answers = sum(rec.get("answers", 0) for rec in plain[0]["items"])
    exact = sum(rec.get("exact", 0) for rec in plain[0]["items"])
    inexact = sorted({label for rec in plain[0]["items"] for label in rec.get("inexact", ())})

    # Times in reference seconds (see job.SpeedSampler); raw ones for people.
    setups = [r["setup_s"] * r["setup_speed"] for r in setups + plain]
    job_times = [r["job_s"] * r["speed"] for r in plain]
    e2e = {
        "setup_s": statistics.median(setups),
        "job_s": statistics.median(job_times),
        "cpu_s": statistics.median(r["cpu_s"] * r["speed"] for r in plain),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        "exact_share": exact / answers if answers else 1.0,
    }

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(plain)}{' + %d traced' % len(traced) if trace else ''}")
    raw_job_s = statistics.median(r["job_s"] for r in plain)
    print(f"  setup_s       {e2e['setup_s']:.4f} s      median of {len(setups)} fresh interpreters")
    print(f"  job_s         {e2e['job_s']:.4f} s      median of {len(job_times)}; "
          f"tail: {tail_percentile(job_times)}")
    print(f"                {raw_job_s:.4f} s      measured, before scaling by the CPU's "
          f"speed factor (median {statistics.median(r['speed'] for r in plain):.3f})")
    print(f"  cpu_s         {e2e['cpu_s']:.4f} s      user+sys of the job, from wait4")
    print(f"  peak_rss_mib  {e2e['peak_rss_mib']:.2f} MiB  from wait4")
    print(f"  fail_ratio    {failed / attempted if attempted else 0.0:.6f} ratio  "
          f"{failed} of {attempted} items")
    print(f"  exact_share   {e2e['exact_share']:.6f} ratio  {exact} of {answers} answers")
    for label in inexact:
        print(f"    not exact: {label}")
    for line in failures[:20]:
        print(f"    FAILED {line}")
    if not consistent:
        print("    FAILED repetitions gave different outputs")
    print(f"  outputs_sha256 {outputs[0]}")

    if trace:
        # Times vary between repetitions, counts do not.
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  if LAYER_UNITS[name] in ("s", "us", "ns") else traced[0]["layers"][name]
                  for name in traced[0]["layers"]}
        layers["cli.points"] = sum(rec.get("counters", {}).get("cli.points", 0)
                                   for rec in traced[0]["items"])
        layers["trace.overhead_ratio"] = (statistics.median(r["job_s"] for r in traced)
                                          / raw_job_s)
        for name, value in layers.items():
            print(f"  {name:36s} {value:.6g} {LAYER_UNITS[name]}")
        metrics = {name: {"value": value, "unit": LAYER_UNITS[name]}
                   for name, value in layers.items()}
    else:
        metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                   for name, value in e2e.items()}
    print(json.dumps({"correct": failed == 0 and consistent, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
