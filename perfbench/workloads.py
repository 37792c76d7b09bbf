"""The benchmark's workloads: the CLI ops each one runs and the operators its set-up builds.

An op is one `kreisslab` command line without `--seed` and `--out`; the
runner appends the workload seed and a fixed per-op output directory.
Each workload is a closed loop: one process runs its ops one at a time.
Why each workload was chosen is recorded in BENCHMARK.json.
"""

from __future__ import annotations

from dataclasses import dataclass

#: BLAS/OpenMP pool size pinned in every child before numpy loads.  The
#: benchmark machine has 2 cores; thm2.4 runs 2x faster and ex2.9 45%
#: slower at 1 thread, so the cap is fixed and recorded with every result.
BLAS_THREADS = 2


@dataclass(frozen=True)
class Workload:
    ops: tuple
    operators: tuple  # (catalog name, make_operator params) built during set-up


WORKLOADS = {
    # Dense norm engine on both sides of SVD_CAP.  The construct op stalls
    # in power iteration at d=1024 and raises ConvergenceError: a known
    # failure that stays in and counts as failed.
    "tz-norms": Workload(
        ops=(
            ("reproduce", "ex2.9"),
            ("construct", "--operator", "tzblock", "--trunc", "512"),
        ),
        operators=(("tzblock", {"d": 512}), ("tzblock", {"d": 256}), ("tzblock", {"d": 8})),
    ),
    # Mean tables and resolvent grids over 64 angles on small dense blocks.
    "dense-sweeps": Workload(
        ops=(
            ("kreiss", "--operator", "tzblock", "--trunc", "16"),
            ("kreiss", "--operator", "ergces", "--trunc", "20"),
            ("reproduce", "thm2.8"),
            ("reproduce", "prop3.5"),
        ),
        operators=(("tzblock", {"d": 16}), ("ergces", {"j_max": 20})),
    ),
    # Shift structure: closed forms, the one-angle rotation shortcut, O(d)
    # apply orbits, and the largest report.
    "shift-orbits": Workload(
        ops=(
            ("reproduce", "thm2.4"),
            ("reproduce", "thm2.5"),
            ("reproduce", "thm2.7-claims"),
            ("reproduce", "thm1.5"),
            ("reproduce", "lemma2.1"),
        ),
        operators=(
            ("tn", {"n": 64, "eta": 0.45}),
            ("shields", {"epsilon": 0.15, "eta": 0.45, "n_max": 64}),
            ("bermbmp", {"alpha": 0.45, "direction": "forward", "d": 64}),
            ("bermbmp", {"alpha": 0.3, "direction": "backward", "d": 64}),
        ),
    ),
}


def op_id(argv) -> str:
    """Stable name of an op: its command line without seed and output flags."""
    return " ".join(argv)
