"""Write the pinned outputs under pins/ from the package in ../src.

    python3 perfbench/make_pins.py [workload ...]

Run this only on a commit whose outputs are trusted: the pins are what every
later run is checked against.  Each pin set is written only if every item
passes its workload's checks against it, which include the facts that do
not come from the package (the published Table-2 values, |T(3,4,1,2,1)| =
47, dim(2,4,2,1,1) = 7, certified bounds not above exact distances).
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import job  # noqa: E402  (puts ../src on the path)
from run import PINS, check  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def make_pins(cc, name: str) -> dict:
    workload = WORKLOADS[name]
    items = list(dict.fromkeys(workload.items(False) + workload.items(True)))
    records: list[dict] = []
    job.run_items(cc, workload, items, 0, records.append)
    pins = {}
    for item, rec in zip(items, records):
        if rec["error"] is not None:
            raise SystemExit(f"{name} {rec['key']}: {rec['error']}")
        pins[rec["key"]] = workload.make_pin(cc, item, rec["value"])
    failed, failures = check(name, records, pins)
    if failed:
        raise SystemExit(f"{name}: {failed} items fail their checks:\n" + "\n".join(failures))
    return pins


def main(names: list[str]) -> int:
    import cyclocode as cc
    from cyclocode import cli  # noqa: F401  (the crosscheck workload calls cc.cli)

    os.makedirs(PINS, exist_ok=True)
    for name in names or sorted(WORKLOADS):
        pins = make_pins(cc, name)
        path = os.path.join(PINS, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("{\n" + ",\n".join(
                f"{json.dumps(key)}: {json.dumps(pin, sort_keys=True)}"
                for key, pin in sorted(pins.items())) + "\n}\n")
        print(f"{path}: {len(pins)} items")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
