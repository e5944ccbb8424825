#!/usr/bin/env python3
"""Self-check of the benchmark, from the root of a checkout:

    python3 perfbench/selfcheck.py

Runs every workload at smoke size, untraced and traced, and asserts that
each run is correct and emits exactly the metrics BENCHMARK.json names.
Then plants a wrong expectation and asserts that the correctness gate
flags it.  Takes about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py"), "--seed", "1", "--seconds", "1", "--smoke"]


def expect(ok: bool, what) -> None:
    if not ok:
        sys.exit(f"selfcheck: FAILED: {what}")


def result(*args: str) -> dict:
    proc = subprocess.run([*RUN, *args], cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = {0: {m["name"] for m in spec["end_to_end"]},
             1: {m["name"] for m in spec["per_layer"]}}
    for w in spec["workloads"]:
        for tr in (0, 1):
            r = result("--workload", w["name"], "--trace", str(tr))
            got = set(r["metrics"])
            expect(got == names[tr], (w["name"], tr, "metrics differ", sorted(got ^ names[tr])))
            expect(r["correct"] and r["failed"] == 0 and r["attempted"] > 0, (w["name"], tr, r))
            print(f"selfcheck: {w['name']} trace {tr}: {len(got)} metrics, "
                  f"{r['attempted']} ops correct")
    r = result("--workload", "cli-session", "--trace", "0", "--plant-wrong")
    expect(not r["correct"] and r["failed"] >= 1, ("planted error not flagged", r))
    print(f"selfcheck: planted wrong expectation flagged ({r['failed']} failed)")
    print("selfcheck: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
