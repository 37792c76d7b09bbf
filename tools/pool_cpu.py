"""Measure the CPU that the BLAS thread pool spends beside each benchmark command.

    python tools/pool_cpu.py

Each command of COMMANDS (the ops of perfbench's workloads) runs in a
fresh process through ``kreisslab.cli.main``, with the working tree's
``src`` on PYTHONPATH and the BLAS pools pinned to perfbench's
BLAS_THREADS threads, as perfbench pins them.  The library itself is
serial, so every CPU second that the process spends outside its main
thread is the pool's.
For each command one line gives four figures, each the median of
REPEATS fresh runs, three of them in seconds:

- main: the main thread's CPU during the command (``time.thread_time``);
- pool: the process's CPU during the command (``getrusage(RUSAGE_SELF)``)
  less main;
- tail: the process's CPU in the TAIL_S seconds after the command, while
  the main thread sleeps.  OpenBLAS's workers busy-wait for about 0.15 s
  after each call handed to them, so a command that ends on such a call
  leaves this tail;
- rss: the fresh process's peak resident set in MiB (``ru_maxrss``),
  start-up included, so that a memory change can be traced to the one
  command that makes it, where perfbench gives only a workload's peak.

Each run first sleeps TAIL_S, since the workers spin in the same way
once they start, when numpy is imported.

The figures depend on the machine and its load, so this is a tool to
run by hand, not a test.  To measure a parent commit, run its copy of
this file from an extracted tree of that commit.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import BLAS_THREADS, WORKLOADS  # noqa: E402

#: Seconds watched after each command.
TAIL_S = 0.3

#: Fresh runs of each command.
REPEATS = 3

#: perfbench's ops in workload order, without --seed and --out.
COMMANDS = tuple(op for workload in WORKLOADS.values() for op in workload.ops)

#: Run in the fresh process: argv is TAIL_S, the output directory, then the command.
_CHILD = """
import contextlib, json, os, resource, sys, time
from kreisslab.cli import main

def process_cpu():
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime

tail_s, out, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3:]
time.sleep(tail_s)
with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
    main_cpu, cpu = time.thread_time(), process_cpu()
    code = main([*argv, "--out", out])
    main_cpu, cpu = time.thread_time() - main_cpu, process_cpu() - cpu
    after = process_cpu()
    time.sleep(tail_s)
    tail = process_cpu() - after
rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
print(json.dumps([code, main_cpu, cpu - main_cpu, tail, rss_mib]))
"""


def measure(argv, out: Path):
    """(exit code, main-thread CPU, pool CPU, pool CPU in the tail, peak RSS) of one fresh run."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    proc = subprocess.run([sys.executable, "-c", _CHILD, str(TAIL_S), str(out), *argv],
                          env=env, cwd=out.parent, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv) -> int:
    if argv:
        print("usage: python tools/pool_cpu.py", file=sys.stderr)
        return 2
    print(f"{'main_s':>7} {'pool_s':>7} {'tail_s':>7} {'rss_mib':>7}  command (exit codes)")
    with tempfile.TemporaryDirectory(prefix="kreisslab-pool-cpu-") as tmp:
        for i, command in enumerate(COMMANDS):
            runs = [measure(command, Path(tmp) / str(i)) for _ in range(REPEATS)]
            codes = sorted({run[0] for run in runs})
            main_cpu, pool, tail, rss = (statistics.median(run[j] for run in runs)
                                         for j in (1, 2, 3, 4))
            print(f"{main_cpu:7.3f} {pool:7.3f} {tail:7.3f} {rss:7.1f}  {' '.join(command)} "
                  f"({', '.join(map(str, codes))})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
