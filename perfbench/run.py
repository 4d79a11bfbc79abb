"""Benchmark of the tribrackets package, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload count_dense --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists): count_dense,
count_sparse, census, moves.  The inputs are made from the seed and written
as .alg/.dia files; every output of the package is checked against a
reference that ``reference.py`` computes without the package.

With ``--trace 0`` a fresh worker process repeats the timed body for about
``--seconds`` (at least once) and the result carries the end-to-end
metrics; set-up time is the median over fresh set-up-only processes run
before and after it.  With ``--trace 1`` the worker alternates untraced and
traced bodies and the result carries the per-layer metrics, including the
tracing overhead.  The last line of standard output
is one JSON object; the lines before it list every metric with its unit, the
failure fraction and the environment.

Every time in the JSON result is at a nominal machine speed: a shared host
runs the same code up to twice as fast in one spell as in another, so each
measured time is scaled by the speed of a fixed computation timed around it
(``calibrate.py``).  The times as measured, and the speed, are printed as
the ``measured`` lines.

A failing call keeps its inputs under .perfbench_work/ and prints the
command that replays it.  Every workload in turn:

    for w in count_dense count_sparse census moves; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 15 --trace 0
    done

``perfbench/determinism.py`` checks that two traced runs repeat their counts.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import reference as ref

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 15
DEADLINE_S = 170  # every worker must have finished this long after start


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (as opposed to a failed call)."""


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": _git_commit(),
        "seed": seed,
    }


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        name = head[5:]
        if (git / name).exists():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _worker(workdir: Path, mode: str, seconds: float, deadline: float) -> str:
    cmd = [sys.executable, str(HERE / "worker.py"), str(ROOT), str(workdir), mode, str(seconds)]
    try:
        done = subprocess.run(
            cmd, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker ({mode}) ran past the deadline") from exc
    if done.returncode != 0:
        raise BenchmarkError(f"worker ({mode}) failed:\n{done.stderr}")
    return done.stdout


# ---------------------------------------------------------------------------
# correctness

def _census_ok(tables: list, expected: list, axioms_hold) -> bool:
    tables = [tuple(t) for t in tables]
    keys = [ref.flat_key(t) for t in tables]
    ordered = all(a < b for a, b in zip(keys, keys[1:]))  # sorted and distinct
    return ordered and all(axioms_hold(t) for t in tables) and tables == expected


def output_ok(plan: inputs.Plan, kind: str, args: list, expected, output) -> bool:
    if isinstance(output, dict):  # the call raised
        return False
    if kind == "count":
        return output == expected
    if kind == "tensors":
        tables, complete = output
        n = args[0]
        return complete and _census_ok(
            tables, expected, lambda t: ref.tensor_ok(ref.nest_tensor(t, n))
        )
    if kind in ("products", "idempotent"):
        tensor = plan.structures[args[0]].tensor
        n = len(tensor)

        def holds(p):
            product = ref.nest_product(p, n)
            return ref.product_ok(tensor, product) and (
                kind == "products" or ref.is_diagonal(product)
            )

        return _census_ok(output, expected, holds)
    code, text = output
    if expected:
        return code == 0 and text == f"{args[1]}  PASS\n"
    return code == 1 and text.startswith(f"{args[1]}  FAIL at ")


def roundtrip_errors(plan: inputs.Plan, parsed: dict) -> list:
    """Input files whose parsed content differs from what was generated."""
    errors = []
    for name, obj in plan.structures.items():
        if isinstance(obj, ref.Dia):
            want = [obj.name, obj.kind, list(obj.regions),
                    [[k, list(refs)] for k, refs in obj.constraints]]
        else:
            product = None if obj.product is None else [v for row in obj.product for v in row]
            want = [[v for mat in obj.tensor for row in mat for v in row], product]
        if parsed.get(name) != want:
            errors.append(name)
    return errors


def replay(workdir: Path, kind: str, args: list) -> str:
    rel = workdir.relative_to(ROOT)
    base = "PYTHONPATH=src python3 -m tribrackets"
    if kind == "count":
        return f"{base} count {rel}/{args[0]} {rel}/{args[1]}"
    if kind == "tensors":
        return f"{base} enumerate-tribrackets {args[0]}"
    if kind in ("products", "idempotent"):
        flag = " --idempotent" if kind == "idempotent" else ""
        return f"{base} enumerate-products {rel}/{args[0]}{flag}"
    return f"{base} check-moves {rel}/{args[0]} --moves {args[1]} --include-ih"


# ---------------------------------------------------------------------------
# metrics

def end_to_end(bodies: list, setup_samples: list, rss_kb: int) -> dict:
    """Times at nominal speed: the body's summed call latencies, and the
    p50/p90 over the calls of each call's median latency over the bodies."""
    per_call = [statistics.median(lats) for lats in zip(*(b["nominal"] for b in bodies))]
    return {
        "setup_s": (statistics.median(s * v for s, v in setup_samples), "s"),
        "wall_s": (statistics.median(sum(b["nominal"]) for b in bodies), "s"),
        "call_p50_ms": (statistics.median(per_call) * 1e3, "ms"),
        "call_p90_ms": (statistics.quantiles(per_call, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def as_measured(bodies: list, setup_samples: list) -> dict:
    """The same times before calibration, and the machine's speed."""
    return {
        "setup_s": (statistics.median(s for s, _ in setup_samples), "s"),
        "wall_s": (statistics.median(b["wall_s"] for b in bodies), "s"),
        "speed": (statistics.median(b["speed"] for b in bodies), "x nominal"),
    }


def per_layer(result: dict) -> tuple:
    """Per-layer metrics and whether their counts repeat across traced bodies."""
    layers = [t["layers"] for t in result["traced"]]
    counts = [{k: v for k, (v, unit) in m.items() if unit in ("count", "ratio")} for m in layers]
    repeat = all(c == counts[0] for c in counts)
    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit not in ("count", "ratio"):
            value = statistics.median(m[name][0] for m in layers)
        metrics[name] = (value, unit)
    metrics["coloring.peak_alloc_mb"] = (result["peak_alloc"] / 2**20, "MB")
    traced = statistics.median(sum(t["nominal"]) for t in result["traced"])
    untraced = statistics.median(sum(b["nominal"]) for b in result["bodies"])
    metrics["trace.overhead_frac"] = (traced / untraced - 1, "ratio")
    return metrics, repeat


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if not (ROOT / "src" / "tribrackets" / "__init__.py").is_file():
            raise BenchmarkError(f"no package source under {ROOT / 'src'}")
        plan = inputs.WORKLOADS[args.workload](args.seed)
        workdir = WORK / f"{args.workload}-s{args.seed}-p{os.getpid()}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        for name, text in plan.files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        (workdir / "manifest.json").write_text(json.dumps({"calls": plan.calls}))

        def setup_samples(count: int) -> list:
            return [tuple(map(float, _worker(workdir, "setup", 0, deadline).split()))
                    for _ in range(count)]

        mode = "trace" if args.trace else "run"
        if not args.trace:
            setup_samples(1)  # unmeasured: leaves the bytecode cache filled
            samples = setup_samples(SETUP_SAMPLES // 2)
        _worker(workdir, mode, args.seconds, deadline)
        result = json.loads((workdir / f"result-{mode}.json").read_text())
        if not Path(result["package"]).resolve().is_relative_to(ROOT / "src"):
            raise BenchmarkError(f"imported the package from {result['package']}")
        if args.trace:
            metrics, repeat = per_layer(result)
        else:
            # samples on both sides of the timed run, so one slow spell of the
            # machine does not set the median
            samples += setup_samples(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            metrics, repeat = end_to_end(result["bodies"], samples, result["rss_kb"]), True
            measured = as_measured(result["bodies"], samples)
    except (BenchmarkError, ref.ReferenceMismatch) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    attempted = failed = 0
    failing = {}
    for b in result["bodies"] + result["traced"]:
        for i, ((kind, call_args), output) in enumerate(zip(plan.calls, b["outputs"])):
            attempted += 1
            if not output_ok(plan, kind, call_args, plan.expected[i], output):
                failed += 1
                failing[i] = output
    bad_inputs = roundtrip_errors(plan, result["roundtrip"])
    correct = not failed and not bad_inputs and repeat

    print("environment: " + json.dumps(environment(args.seed)))
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:14.6g} {unit}")
    if not args.trace:
        for name, (value, unit) in measured.items():
            print(f"{'measured ' + name:36s} {value:14.6g} {unit}")
    n_calls = sum(len(b["latencies"]) for b in result["bodies"])
    print(f"{'calls timed':36s} {n_calls:14d} count")
    print(f"{'failed_frac':36s} {failed / attempted:14.6g} ({failed}/{attempted} calls)")
    for i, output in failing.items():
        kind, call_args = plan.calls[i]
        print(f"failed: {replay(workdir, kind, call_args)}  "
              f"(expected {plan.expected[i]!r:.80}, got {output!r:.200})", file=sys.stderr)
    for name in bad_inputs:
        print(f"round trip changed {workdir.relative_to(ROOT)}/{name}", file=sys.stderr)
    if not repeat:
        print("traced bodies disagree on a count", file=sys.stderr)
    if correct:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):  # still holds another run's inputs
            WORK.rmdir()
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
