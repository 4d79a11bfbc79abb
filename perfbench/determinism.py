"""Check that two traced runs on one seed give identical counters.

    python3 perfbench/determinism.py --workload census --seed 1 [--seconds 1]

Runs ``run.py --trace 1`` twice and compares every per-layer metric whose
unit is ``count`` or ``ratio`` (calls, leaves, yields, colorings); only the
times may differ.  Exits 0 when they all agree and both runs were correct.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    first, second = (traced_run(args.workload, args.seed, args.seconds) for _ in range(2))
    same = first["correct"] and second["correct"]
    for name, metric in first["metrics"].items():
        if metric["unit"] not in ("count", "ratio") or name == "trace.overhead_frac":
            continue
        other = second["metrics"][name]["value"]
        agree = metric["value"] == other
        same = same and agree
        print(f"{name:36s} {metric['value']!r:>20} {other!r:>20} {'same' if agree else 'DIFFERENT'}")
    print("counters repeat" if same else "counters differ or a run failed")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
