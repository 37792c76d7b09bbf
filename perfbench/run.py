"""Time-to-verdict benchmark for kreisslab.

Run from the root of a checkout:

    python3 perfbench/run.py --workload shift-orbits --seed 1 --seconds 10 --trace 0

Each run starts the workload in a fresh child process (child.py) with
the BLAS pools pinned and src/ on PYTHONPATH, then starts SETUP_SAMPLES-1
more children that only set up, so that set-up time is a median.  The
child runs at least two passes over the workload's ops and for at least
--seconds.  With --trace 0 the last stdout line reports the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics, which
come from traced passes that follow two untraced passes.  The machine is
printed on the line before.  Outputs go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import BLAS_THREADS, WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
#: Every run must end within 180 s; children are killed at this deadline.
DEADLINE_S = 170.0


class BenchError(Exception):
    """The run could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("KREISSLAB_THREADS", None)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args, out: Path, deadline: float, setup_only: bool) -> float:
    """Run one child to completion; returns its set-up time (start to "ready")."""
    cmd = [sys.executable, str(BENCH / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(deadline - start, 0.0))
        line = proc.stdout.readline() if ready else b""
        setup = time.perf_counter() - start
        if line.strip() != b"ready":
            raise BenchError(f"child did not get ready: {line!r}")
        proc.communicate(timeout=max(deadline - time.perf_counter(), 0.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError("child ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"child exited with status {proc.returncode}")
    return setup


def end_to_end(result: dict, setups: list) -> dict:
    passes = result["passes"]
    ops = [op for p in passes for op in p["ops"]]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "peak_rss_mib": result["peak_rss_kib"] / 1024.0,
        "op_success_ratio": sum(not op["failed"] for op in ops) / len(ops),
    }


def per_layer(result: dict) -> dict:
    traced = [p for p in result["passes"] if p["traced"]]
    warm_untraced = [p for p in result["passes"][1:] if not p["traced"]]
    metrics = {name: statistics.median(p["layer_metrics"][name] for p in traced)
               for name in traced[0]["layer_metrics"]}
    metrics["trace_overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in warm_untraced))
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (ROOT / "src" / "kreisslab" / "__init__.py").is_file():
        print(f"error: no kreisslab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    out = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        setups = [run_child(args, out, deadline, setup_only=False)]
        if not args.trace:
            setups += [run_child(args, out, deadline, setup_only=True)
                       for _ in range(SETUP_SAMPLES - 1)]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = json.loads((out / "result.json").read_text())
    shutil.rmtree(out / "ops")

    ops = [op for p in result["passes"] for op in p["ops"]]
    correct = (Path(result["kreisslab_file"]).is_relative_to(ROOT / "src")
               and not any(op["wrong"] for op in ops))
    traced = [p["counters"] for p in result["passes"] if p["traced"]]
    correct = correct and all(counters == traced[0] for counters in traced)
    for op in ops:
        if op["failed"]:
            print(f"failed op: {json.dumps({k: v for k, v in op.items() if k != 'wall_s'})}")

    if args.trace:
        values, wanted = per_layer(result), spec["per_layer"]
    else:
        values, wanted = end_to_end(result, setups), spec["end_to_end"]
    print("machine: " + json.dumps(result["machine"], sort_keys=True))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": len(ops),
        "failed": sum(op["failed"] for op in ops),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
