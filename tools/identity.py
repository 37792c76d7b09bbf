"""Check that a fixed list of kreisslab commands gives the same outputs as at a parent commit.

    python tools/identity.py <parent>

The parent's ``src`` is extracted with ``git archive`` into a temporary
directory, so an interrupted run leaves nothing registered in the
repository.  Each command of COMMANDS then runs twice, as
``python -m kreisslab <command> --out <dir>`` with PYTHONPATH at the
parent's ``src`` and at the working tree's.  A command is the same when
its exit code, its stdout, every CSV it writes, its report's ``config``
block less ``out``, its ``results`` and ``summary`` blocks and the rest
of its report.json are equal byte for byte.  One line per command is
printed, naming the parts that differ, so a change of the config
layout alone shows as ``config`` and a change of the summary alone as
``summary``, which then hides no change of the results.  The exit
status is 1 when any command differs.

Byte identity rests on the BLAS build, so this is a tool to run against
a parent by hand, not a test.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_CSV = ("--format", "csv")

#: The report.json blocks compared apart from config; the rest is "report.json".
REPORT_PARTS = ("results", "summary")

#: The commands compared, without --out: every reproduce id and the CLI
#: sweeps over each catalog operator, at sizes that take seconds.
COMMANDS = (
    *(("reproduce", theorem) for theorem in ("thm2.4", "thm2.5", "thm2.7-claims", "thm2.8",
                                               "prop3.5", "ex2.9", "lemma2.1", "thm1.5")),
    ("kreiss", "--operator", "tzblock", "--trunc", "16", *_CSV),
    ("kreiss", "--operator", "tzblock", "--trunc", "32", *_CSV),
    ("kreiss", "--operator", "ergces", "--trunc", "20", *_CSV),
    # n_max 4096 splits the mean-sweep seed into windows (_SEED_WINDOW).
    ("kreiss", "--operator", "ergces", "--trunc", "12", "--n-max", "4096", *_CSV),
    ("kreiss", "--operator", "tn", "--trunc", "16", *_CSV),
    ("kreiss", "--operator", "bermbmp", "--trunc", "32", *_CSV),
    # The kreiss CLI's one-point sweeps (the rotation shortcut of a shift) at d = 64.
    ("kreiss", "--operator", "bermbmp", "--trunc", "64", *_CSV),
    ("kreiss", "--operator", "shields", "--nmax-sum", "6", *_CSV),
    ("cesaro", "--operator", "tzblock", "--trunc", "16", *_CSV),
    ("cesaro", "--operator", "ergces", "--trunc", "12", "--order", "2", "--angles", "64",
     *_CSV),
    ("claims", "--operator", "tzblock", "--trunc", "8", "--probes", "8", "--k-max", "16",
     *_CSV),
    # A nilpotent shift of dimension 32: its groups are vacuous from N = 32 on.
    ("claims", "--operator", "tn", "--trunc", "16", "--probes", "8", "--k-max", "64", *_CSV),
    ("claims", "--operator", "bermbmp", "--trunc", "64", "--probes", "8", "--k-max", "64",
     *_CSV),
    ("powers", "--operator", "ergces", "--trunc", "20", *_CSV),
    # Past k = d = 16 the tail is tzblock's closed form: T^16 has norm 16, T^17 = 0.
    ("powers", "--operator", "tzblock", "--trunc", "16", "--k-max", "20", *_CSV),
    ("powers", "--operator", "tzblock", "--trunc", "512", "--k-max", "64", *_CSV),
    ("growth", "--operator", "shields", "--nmax-sum", "50", "--window", "16", "60", *_CSV),
    ("growth", "--operator", "ergces", "--trunc", "20", *_CSV),
    # 126 Sturm-count rows: several pivot blocks and the shrinking tail.
    ("growth", "--operator", "tzblock", "--trunc", "200", *_CSV),
    ("construct", "--operator", "tzblock", "--trunc", "512", *_CSV),
    ("construct", "--operator", "tn", "--trunc", "300", *_CSV),
    ("construct", "--operator", "tn", "--trunc", "8"),
    ("construct", "--operator", "bermbmp", "--trunc", "64", *_CSV),
    ("construct", "--operator", "shields", "--nmax-sum", "20", *_CSV),
)


def outputs(src: Path, argv, out: Path):
    """(exit code, stdout, {csv name: bytes}, config less out, {report part: json}) of one run."""
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "kreisslab", *argv, "--out", str(out)],
                          env=env, cwd=out.parent, capture_output=True)
    csvs = {path.name: path.read_bytes() for path in sorted(out.glob("*.csv"))}
    config, report = None, {}
    if (out / "report.json").exists():
        parsed = json.loads((out / "report.json").read_bytes())
        config = parsed.pop("config", {})
        config.pop("out", None)
        # floats by repr: equal strings are equal bits
        report = {name: json.dumps(parsed.pop(name, None)) for name in REPORT_PARTS}
        config, report["report.json"] = json.dumps(config), json.dumps(parsed)
    return proc.returncode, proc.stdout, csvs, config, report


def differences(before, after) -> list:
    """Names of the parts in which two outputs() results differ."""
    code_a, stdout_a, csv_a, config_a, report_a = before
    code_b, stdout_b, csv_b, config_b, report_b = after
    diffs = [name for name, same in (("exit code", code_a == code_b),
                                     ("stdout", stdout_a == stdout_b),
                                     ("config", config_a == config_b)) if not same]
    diffs += [name for name in (*REPORT_PARTS, "report.json")
              if report_a.get(name) != report_b.get(name)]
    return diffs + [name for name in sorted(csv_a.keys() | csv_b.keys())
                    if csv_a.get(name) != csv_b.get(name)]


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tools/identity.py <parent commit>", file=sys.stderr)
        return 2
    parent = argv[0]
    check = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify", "--quiet",
                            f"{parent}^{{commit}}"], capture_output=True, text=True)
    if check.returncode:
        print(f"error: {parent} is not a commit", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="kreisslab-identity-") as tmp:
        tmp = Path(tmp)
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", check.stdout.strip(), "src"],
                                 check=True, capture_output=True).stdout
        (tmp / "parent").mkdir()
        subprocess.run(["tar", "-x", "-C", str(tmp / "parent")], input=archive, check=True)
        differ = 0
        for i, command in enumerate(COMMANDS):
            runs = [outputs(src, command, tmp / f"{side}-{i}")
                    for side, src in (("parent", tmp / "parent" / "src"), ("tree", ROOT / "src"))]
            diffs = differences(*runs)
            differ += bool(diffs)
            line = " ".join(command)
            print(f"DIFF {line}: {', '.join(diffs)}" if diffs else f"same {line}", flush=True)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
