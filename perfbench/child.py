"""One workload run in a fresh process: set up, say ready, run passes, write the result.

run.py starts this file with the BLAS thread caps already in the
environment and the checkout's src/ on PYTHONPATH, so numpy loads capped
and kreisslab comes from the checkout.  Set-up is `import kreisslab`
plus make_operator for the workload's operators; the line "ready" on
stdout marks its end.  Each pass runs every op through the public CLI
entry point, in process, into a fixed per-op directory, and judges it
with the verdict oracles.  In trace mode the first two passes run
untraced and every later pass runs under a Tracer.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

import oracles
from tracing import Tracer
from workloads import BLAS_THREADS, WORKLOADS, op_id


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)  # all threads, BLAS pool included
    return usage.ru_utime + usage.ru_stime


def machine() -> dict:
    import numpy as np

    model = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        model = next((line.split(":", 1)[1].strip() for line in handle
                      if line.startswith("model name")), "")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


class Runner:
    """Runs a workload's ops pass after pass and judges every op."""

    def __init__(self, ops, seed: int, out_root: Path, references: dict):
        from kreisslab import cli

        self.cli = cli  # looked up per call, so that a Tracer's wrapper is reached
        self.ops = ops
        self.seed = seed
        self.out_root = out_root
        self.references = references
        self.first_digests = {}

    def run_op(self, index: int, argv) -> dict:
        out = self.out_root / f"op{index}"
        shutil.rmtree(out, ignore_errors=True)
        error = None
        exit_code = None
        wall, cpu = time.perf_counter(), _cpu_seconds()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                exit_code = self.cli.main([*argv, "--seed", str(self.seed), "--out", str(out)])
        except Exception as exc:  # an op that raises is a failed op, not a crashed run
            error = f"{type(exc).__name__}: {exc}"
        wall, cpu = time.perf_counter() - wall, _cpu_seconds() - cpu

        name = op_id(argv)
        digests = oracles.output_digests(out)
        first = self.first_digests.setdefault(name, digests)
        fail_records = oracles.record_statuses(out)["fail"]
        off_reference = oracles.gated_mismatches(
            oracles.gated_values(out), self.references.get(name, {}))
        bytes_differ = digests != first
        return {
            "op": name,
            "wall_s": wall,
            "cpu_s": cpu,
            "exit_code": exit_code,
            "error": error,
            "fail_records": fail_records,
            "off_reference": off_reference,
            "bytes_differ": bytes_differ,
            "failed": bool(error or exit_code != 0 or fail_records or off_reference
                           or bytes_differ),
            # A wrong output, as opposed to an op that could not finish.
            "wrong": bool(fail_records or off_reference or bytes_differ),
        }

    def run_pass(self, tracer=None) -> dict:
        ops = []
        per_op_counts = {}
        for index, argv in enumerate(self.ops):
            before = tracer.counters() if tracer else None
            ops.append(self.run_op(index, argv))
            if tracer:
                after = tracer.counters()
                per_op_counts[op_id(argv)] = {k: v - before[k] for k, v in after.items()
                                              if v != before[k]}
        result = {
            "wall_s": sum(op["wall_s"] for op in ops),
            "cpu_s": sum(op["cpu_s"] for op in ops),
            "ops": ops,
            "traced": tracer is not None,
        }
        if tracer:
            result["layer_metrics"] = tracer.metrics()
            result["counters"] = tracer.counters()
            result["per_op_counts"] = per_op_counts
            result["spans"] = tracer.snapshot()
        return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import kreisslab
    from kreisslab import make_operator

    workload = WORKLOADS[args.workload]
    for name, params in workload.operators:
        make_operator(name, **params)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(workload.ops, args.seed, args.out / "ops", oracles.load_references())
    # At least two passes, so that every op's bytes are compared with its first
    # pass.  In trace mode two untraced passes come first: the second is warm
    # like the traced ones, which the tracing overhead is measured against.
    untraced = 2
    passes = []
    start = time.perf_counter()
    while len(passes) < untraced + args.trace or time.perf_counter() - start < args.seconds:
        tracer = Tracer() if args.trace and len(passes) >= untraced else None
        with tracer or contextlib.nullcontext():
            passes.append(runner.run_pass(tracer))

    spans = [p.pop("spans") for p in passes if p["traced"]]
    result = {
        "kreisslab_file": kreisslab.__file__,
        "machine": machine(),
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "passes": passes,
    }
    (args.out / "result.json").write_text(json.dumps(result))
    if spans:
        (args.out / "spans.json").write_text(json.dumps(spans[0], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
