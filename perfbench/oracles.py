"""Verdict oracles: judge an op from the files it wrote, not from its exit status.

Record statuses are counted from report.json directly, because the
report summary miscounts numpy.bool_ verdicts.  Seed-independent gated
constants (the `kreiss` constants and the ex2.9 growth ratios) are
compared with references.json, captured from the program at the commit
that introduced the benchmark.  Output bytes are digested so that a
runner can require every pass to reproduce the first one.

Run this file to recapture the references (about 45 s on 2 cores):

    PYTHONPATH=src python3 perfbench/oracles.py
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import os
import shutil
import sys
import tempfile
from collections import Counter
from pathlib import Path

from workloads import WORKLOADS, op_id

#: Relative tolerance for gated constants against their references.
GATED_REL_TOL = 1e-10

KREISS_CONSTANTS = ("kreiss_C", "ukb_C", "kb2_C", "kb2_sum_C", "strong_C")

REFERENCES = Path(__file__).with_name("references.json")


def output_digests(out_dir: Path) -> dict:
    """sha256 of every file an op wrote, by file name."""
    if not out_dir.is_dir():
        return {}
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.iterdir())
    }


def record_statuses(out_dir: Path) -> Counter:
    """Count of each record status in the op's report.json (empty when absent)."""
    path = out_dir / "report.json"
    if not path.exists():
        return Counter()
    report = json.loads(path.read_bytes())
    return Counter(record.get("status") for record in report["results"])


def gated_values(out_dir: Path) -> dict:
    """The seed-independent gated constants an op's output carries, as float lists."""
    values = {}
    path = out_dir / "report.json"
    if path.exists():
        report = json.loads(path.read_bytes())
        if report["config"]["command"] == "kreiss":
            record = report["results"][0]
            values.update({name: [float(record[name])] for name in KREISS_CONSTANTS})
    growth = out_dir / "tz_growth.csv"
    if growth.exists():
        with growth.open(newline="") as handle:
            values["ratio"] = [float(row["ratio"]) for row in csv.DictReader(handle)]
    return values


def gated_mismatches(values: dict, reference: dict) -> list:
    """Names of reference constants that are missing or off by more than GATED_REL_TOL."""
    bad = []
    for name, expected in reference.items():
        got = values.get(name)
        if got is None or len(got) != len(expected) or any(
            abs(g - e) > GATED_REL_TOL * abs(e) for g, e in zip(got, expected)
        ):
            bad.append(name)
    return bad


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def capture_references() -> dict:
    """Run every workload op once and keep the gated constants it produced."""
    from kreisslab import cli

    references = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in WORKLOADS.values():
            for argv in workload.ops:
                out = Path(tmp) / "op"
                shutil.rmtree(out, ignore_errors=True)
                with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                    try:
                        cli.main([*argv, "--out", str(out)])
                    except Exception as exc:  # a failing op has no constants to capture
                        print(f"{op_id(argv)}: {type(exc).__name__}", file=sys.stderr)
                values = gated_values(out)
                if values:
                    references[op_id(argv)] = values
    return references


if __name__ == "__main__":
    REFERENCES.write_text(json.dumps(capture_references(), indent=1, sort_keys=True) + "\n")
