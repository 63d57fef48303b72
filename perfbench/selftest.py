"""Quick self-test of the benchmark on tiny sizes (about 15 s).

    python3 perfbench/selftest.py

Checks, for every workload, that traced and untraced runs give identical
outputs, that a deliberately wrong pin is counted as a failed item, and
that every metric BENCHMARK.json names is emitted with its unit.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import job  # noqa: E402  (puts ../src on the path)
from run import ROOT, check, load_pins  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL: {message}")


def bench(workload: str, trace: int) -> tuple[dict, str]:
    """One tiny run: its JSON result and its outputs digest."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    expect(out.returncode == 0, f"{workload} trace {trace} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.splitlines()
    digest = next(line.split()[1] for line in lines if line.strip().startswith("outputs_sha256"))
    return json.loads(lines[-1]), digest


def test_runs_and_metrics(spec: dict) -> None:
    for name in WORKLOADS:
        results = {trace: bench(name, trace) for trace in (0, 1)}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = results[trace][0]
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{name} trace {trace}: {result}")
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[group]}
            expect(emitted == wanted, f"{name} trace {trace}: metrics {emitted} != {wanted}")
        expect(results[0][1] == results[1][1], f"{name}: traced and untraced outputs differ")


def test_wrong_pin_fails(cc) -> None:
    for name, workload in WORKLOADS.items():
        records: list[dict] = []
        job.run_items(cc, workload, workload.items(True), 7, records.append)
        pins = load_pins(name)
        expect(check(name, records, pins)[0] == 0, f"{name}: tiny items fail their pins")
        wrong = copy.deepcopy(pins)
        key = records[-1]["key"]
        pin = wrong[key]
        if isinstance(pin, dict):  # a distance pin: claim a larger certified bound
            pin["cert"] += 100
        elif isinstance(pin, list):
            pin[-1] = not pin[-1] if isinstance(pin[-1], bool) else "wrong"
        else:
            wrong[key] = "0" * len(pin)
        failed, failures = check(name, records, wrong)
        expect(failed == 1 and failures[0].startswith(key), f"{name}: wrong pin gave {failures}")


def main() -> int:
    import cyclocode as cc
    from cyclocode import cli  # noqa: F401  (the crosscheck workload calls cc.cli)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    test_wrong_pin_fails(cc)
    test_runs_and_metrics(spec)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
