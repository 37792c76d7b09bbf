"""Per-layer tracing of kreisslab from outside the program.

A Tracer wraps the layer-boundary functions listed in TARGETS and
numpy.linalg's svd/inv/solve.  cesaro, kreiss and reproduce import
kernels by name, so each wrapper replaces the original in every
kreisslab module namespace that bound it; the `reproduce` submodule is
reached through sys.modules because the package attribute of that name
is the function.  Counts are read from return values.  Spans are
aggregated in memory per name (calls, total time, self time) and per
parent -> child edge; `snapshot` hands them to the caller, which writes
them when the run ends.

np.linalg.norm(A, 2) reaches the SVD inside numpy, so the svd wrapper
does not see it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np


def _norm_estimate(counts, result, args, parent):
    if result.method == "dense-svd-oracle":
        counts["operators.norm.svd_overrides"] += 1
    elif result.method == "power-iteration":
        counts["operators.power_iteration.kept"] += 1


def _power_iteration(counts, result, args, parent):
    _value, _residual, iterations, ok = result
    counts["operators.power_iteration.iterations"] += iterations
    counts["operators.power_iteration.stalls"] += not ok
    # spectral_norm and _matrix_norm decide from their method whether the
    # iteration was kept; resolvent_norm keeps every converged one.
    if ok and parent == "kreiss.resolvent_norm":
        counts["operators.power_iteration.kept"] += 1


def _mean_table_cells(counts, result, args, parent):
    # Direct sums and rotations recurse; count the cells where a table is computed.
    from kreisslab.operators import DirectSum, RotatedScale

    op, n_max, lams = args[:3]
    if not isinstance(op, (DirectSum, RotatedScale)):
        counts["cesaro.rotated_mean_tables.cells"] += len(lams) * (n_max + 1)


def _ergodic_steps(counts, result, args, parent):
    counts["cesaro.ergodic_probe.steps"] += len(result.probe_labels) * result.ladder[-1]


def _skipped_points(counts, result, args, parent):
    counts["kreiss.grid_points_skipped"] += len(result.skipped)


def _claims(counts, result, args, parent):
    counts["kreiss.run_hilbert_claims.claims"] += len(result)


def _report_bytes(counts, result, args, parent):
    counts["reports.emit_report.bytes"] += sum(path.stat().st_size for path in result)


def _svd_flops(counts, result, args, parent):
    # Golub-Van Loan operation counts for an m x n SVD (m >= n), per matrix
    # of a stack, four times as many for complex input.  Computed from the
    # shapes, not measured.
    a = np.asarray(args[0])
    *batch, m, n = a.shape
    m, n = max(m, n), min(m, n)
    if isinstance(result, tuple):  # singular vectors requested
        flops = 4 * m * m * n + 8 * m * n * n + 9 * n**3
    else:
        flops = 4 * m * n * n - 4 * n**3 // 3
    for size in batch:
        flops *= size
    counts["linalg.svd.flops_computed"] += flops * (4 if a.dtype.kind == "c" else 1)


#: Names the return-value readers count under.
COUNTS = (
    "operators.norm.svd_overrides",
    "operators.power_iteration.kept",
    "operators.power_iteration.iterations",
    "operators.power_iteration.stalls",
    "cesaro.rotated_mean_tables.cells",
    "cesaro.ergodic_probe.steps",
    "kreiss.grid_points_skipped",
    "kreiss.run_hilbert_claims.claims",
    "reports.emit_report.bytes",
    "linalg.svd.flops_computed",
)

#: (module, attribute, span name, return-value reader)
TARGETS = (
    ("kreisslab.cli", "main", "cli.main", None),
    ("kreisslab.cli", "_cmd_construct", "cli.construct", None),
    ("kreisslab.cli", "_cmd_powers", "cli.powers", None),
    ("kreisslab.cli", "_cmd_cesaro", "cli.cesaro", None),
    ("kreisslab.cli", "_cmd_kreiss", "cli.kreiss", None),
    ("kreisslab.cli", "_cmd_claims", "cli.claims", None),
    ("kreisslab.cli", "_cmd_growth", "cli.growth", None),
    ("kreisslab.cli", "_cmd_reproduce", "cli.reproduce", None),
    ("kreisslab.reproduce", "reproduce", "reproduce.reproduce", None),
    ("kreisslab.constructions", "make_operator", "constructions.make_operator", None),
    ("kreisslab.operators", "spectral_norm", "operators.spectral_norm", _norm_estimate),
    ("kreisslab.operators", "power_norms", "operators.power_norms", None),
    ("kreisslab.operators", "_matrix_norm", "operators.matrix_norm", _norm_estimate),
    ("kreisslab.operators", "_power_iteration", "operators.power_iteration", _power_iteration),
    ("kreisslab.operators", "apply", "operators.apply", None),
    ("kreisslab.operators", "apply_adjoint", "operators.apply_adjoint", None),
    ("kreisslab.operators", "resolvent_apply", "operators.resolvent_apply", None),
    ("kreisslab.operators", "materialize", "operators.materialize", None),
    ("kreisslab.cesaro", "rotated_mean_tables", "cesaro.rotated_mean_tables", _mean_table_cells),
    ("kreisslab.cesaro", "_dense_norm", "cesaro.dense_norm", None),
    ("kreisslab.cesaro", "cesaro_identity_check", "cesaro.identity_check", None),
    ("kreisslab.cesaro", "mean_difference_decay", "cesaro.mean_difference_decay", None),
    ("kreisslab.cesaro", "ergodic_probe", "cesaro.ergodic_probe", _ergodic_steps),
    ("kreisslab.kreiss", "kreiss_constant", "kreiss.kreiss_constant", _skipped_points),
    ("kreisslab.kreiss", "uniform_kreiss_constant", "kreiss.uniform_kreiss_constant", None),
    ("kreisslab.kreiss", "kb2_constant", "kreiss.kb2_constant", None),
    ("kreisslab.kreiss", "strong_kreiss_constant", "kreiss.strong_kreiss_constant",
     _skipped_points),
    ("kreisslab.kreiss", "resolvent_norm", "kreiss.resolvent_norm", None),
    ("kreisslab.kreiss", "run_hilbert_claims", "kreiss.run_hilbert_claims", _claims),
    ("kreisslab.kreiss", "orbit_norms", "kreiss.orbit_norms", None),
    ("kreisslab.growth", "growth_fit", "growth.growth_fit", None),
    ("kreisslab.reports", "emit_report", "reports.emit_report", _report_bytes),
    ("numpy.linalg", "svd", "linalg.svd", _svd_flops),
    ("numpy.linalg", "inv", "linalg.inv", None),
    ("numpy.linalg", "solve", "linalg.solve", None),
)


class Tracer:
    """Wraps TARGETS while installed and aggregates their spans and counts."""

    def __init__(self):
        self.calls = Counter()
        self.total = Counter()  # outermost calls only, so recursion is not counted twice
        self.self_time = Counter()  # span minus the time its traced children cover
        self.edges = Counter()  # (parent span name, span name) -> calls
        self.counts = Counter()
        self._stack = []
        self._depth = Counter()
        self._patches = []

    def _wrap(self, name, fn, reader):
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            depth[name] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[name] -= 1
                self.calls[name] += 1
                self.self_time[name] += elapsed - frame[1]
                if not depth[name]:
                    self.total[name] += elapsed
                self.edges[parent, name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if reader is not None:
                reader(self.counts, result, args, parent)
            return result

        return wrapper

    def install(self):
        kreisslab = {key: m for key, m in sys.modules.items()
                     if key == "kreisslab" or key.startswith("kreisslab.")}
        for module_name, attr, name, reader in TARGETS:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, reader)
            for namespace in {module_name: module, **kreisslab}.values():
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        setattr(namespace, key, wrapper)
                        self._patches.append((namespace, key, original))

    def uninstall(self):
        while self._patches:
            namespace, key, original = self._patches.pop()
            setattr(namespace, key, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def counters(self) -> dict:
        """Every deterministic number: call counts and return-value counts, zeros included."""
        out = {f"{name}.calls": self.calls[name] for _m, _a, name, _r in TARGETS}
        out.update({name: self.counts[name] for name in COUNTS})
        return out

    def metrics(self) -> dict:
        """Flat per-layer metrics: .calls, .s, .self_s per span, counts and ratios."""
        out = {}
        for _module, _attr, name, _reader in TARGETS:
            out[f"{name}.s"] = self.total[name]
            out[f"{name}.self_s"] = self.self_time[name]
        out.update(self.counters())
        run = self.calls["operators.power_iteration"]
        # No iteration run means none was wasted.
        out["operators.power_iteration.useful_ratio"] = (
            self.counts["operators.power_iteration.kept"] / run if run else 1.0
        )
        return out

    def snapshot(self) -> dict:
        """The aggregated spans and counts, ready for json.dump."""
        return {
            "spans": {name: {"calls": self.calls[name], "total_s": self.total[name],
                             "self_s": self.self_time[name]} for name in sorted(self.calls)},
            "edges": dict(sorted((f"{parent}>{name}", n)
                                 for (parent, name), n in self.edges.items())),
            "counts": dict(sorted(self.counts.items())),
        }
