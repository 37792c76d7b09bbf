"""Report records, the one verdict gate, and deterministic emission.

Every record of a report is a CheckRecord, and gate is the only code
that decides a pass or fail status: it stores the compared value, the
comparison, the bound, the slack and the margin beside the verdict.
Its rule is margins, which also decides the per-probe status column of
a table whose rows a single record gates.

Identical run configuration and seed must produce byte-identical files,
so both writers are the standard library's with fixed settings: object
keys are sorted, output is ASCII, CSV rows end in CRLF, and nothing
records wall-clock time.  Floats must be finite and are printed as
Python's shortest round-trip repr, so every value parses back to the
same double and an integral float stays a float (1.0, not 1).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from collections import Counter
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .operators import SEED


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on, written to the report header by to_dict.

    ``params`` are the catalog operator's normalized parameters and
    ``options`` every other parsed flag of the command, as parsed.
    """

    command: str
    operator: str | None = None
    params: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    seed: int = SEED
    out: str = "."
    format: str = "json"

    def __post_init__(self):
        _check_keys(f"{self.command} config", self.params)
        _check_keys(f"{self.command} config", self.options)

    def to_dict(self) -> dict:
        return {**field_values(self), "params": dict(self.params), "options": dict(self.options)}


def field_values(record) -> dict:
    """{name: value} of a dataclass record's fields, in declaration order, values as they are."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _check_keys(owner: str, params: dict) -> None:
    """Free-form params become report object keys, which must be strings."""
    if not all(isinstance(key, str) for key in params):
        raise ValidationError(f"{owner}: params keys must be strings")


#: Comparison operators a verdict may be gated by.
OPS = ("<=", "<", ">=", ">")


@dataclass(frozen=True)
class CheckRecord:
    """One report record: a gated verdict or a no-verdict entry.

    A ``pass`` or ``fail`` status comes with the gate that decided it:
    ``value op bound`` with relative ``slack`` and the signed ``margin``
    in the bound's favor.  Such records are built by :func:`gate` only.
    Every other status (``info``, ``skipped``, ``hypothesis-diverged``)
    carries no gate and uses this constructor.
    ``params`` are flattened beside the fixed fields in the report, so
    a key may not repeat a field name.
    """

    check_id: str
    status: str
    value: float | None = None
    op: str | None = None
    bound: float | None = None
    slack: float | None = None
    margin: float | None = None
    params: dict = field(default_factory=dict)
    detail: str = ""

    def __post_init__(self):
        if self.status in ("pass", "fail") and (self.op is None or self.bound is None):
            raise ValidationError(f"{self.check_id}: a {self.status} verdict needs its gate")
        if self.op is not None and self.op not in OPS:
            raise ValidationError(f"{self.check_id}: unknown comparison {self.op!r}")
        _check_keys(self.check_id, self.params)
        clash = sorted(self.params.keys() & _FIELDS)
        if clash:
            raise ValidationError(f"{self.check_id}: params repeat fields {clash}")

    @property
    def passed(self) -> bool | None:
        """True for pass, False for fail, None otherwise."""
        return _PASSED.get(self.status)

    def to_dict(self) -> dict:
        return {**{name: getattr(self, name) for name in _FIELDS}, **self.params}


#: CheckRecord's fixed fields in declaration order; params are flattened beside them.
_FIELDS = tuple(f.name for f in fields(CheckRecord) if f.name != "params")
_PASSED = {"pass": True, "fail": False}


def gate(check_id, value, op, bound, slack=0.0, params=None, detail="") -> CheckRecord:
    """The one pass/fail decision: ``value op bound``, up to relative slack.

    The margin is bound - value for ``<``/``<=`` and value - bound for
    ``>``/``>=``.  A non-strict op passes on margin >= -slack * |bound|,
    a strict one on margin > 0; a strict op admits no slack.
    """
    value, bound, slack = float(value), float(bound), float(slack)
    margin, ok = margins(check_id, value, op, bound, slack)
    return CheckRecord(check_id, "pass" if ok else "fail", value, op, bound, slack, margin,
                       dict(params or {}), detail)


def margins(check_id, values, op, bound, slack=0.0):
    """(margin, ok) of ``values op bound``: gate's rule, elementwise on an array of values.

    A NaN value has a NaN margin and is not ok.  A caller that decides
    a verdict per array entry (one claim on many probes) takes it from
    here, so each entry is judged exactly as gate would judge it alone.
    """
    strict = op in ("<", ">")
    if strict and slack:
        raise ValidationError(f"{check_id}: a strict comparison takes no slack")
    margin = bound - values if op in ("<", "<=") else values - bound
    ok = margin > 0.0 if strict else margin >= -slack * abs(bound)
    return margin, ok


#: Both writers print a float as its shortest round-trip repr and refuse
#: a non-finite one.
_NON_FINITE = "reports may not contain non-finite floats"


def _json_default(obj):
    # json writes float (and its subclass np.float64) itself.
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise ValidationError(f"cannot serialize {type(obj)!r} into a report")


def to_json_bytes(obj) -> bytes:
    """Canonical JSON: sorted keys, shortest round-trip floats, ASCII."""
    try:
        text = json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False,
                          default=_json_default)
    except ValidationError:
        raise
    except ValueError as exc:  # allow_nan=False met a non-finite float
        raise ValidationError(_NON_FINITE) from exc
    return (text + "\n").encode("ascii")


def _csv_cell(value):
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        value = float(value)  # csv writes a float as its repr
        if not math.isfinite(value):
            raise ValidationError(_NON_FINITE)
    return value


#: Cell types the csv module writes as they are: a float as its repr.
#: Subclasses (bool, np.float64) are not among them.
_AS_IS = frozenset((str, int, float, type(None)))


def _csv_row(row):
    """row as a tuple if every cell is of an _AS_IS type and every float finite, else cell by cell.

    The common row is checked by builtins alone, with no Python call
    per cell; any other row goes through _csv_cell, which refuses it or
    converts its cells.
    """
    row = tuple(row)
    floats = [v for v in row if type(v) is float]
    if _AS_IS.issuperset(map(type, row)) and all(map(math.isfinite, floats)):
        return row
    return list(map(_csv_cell, row))


def write_csv(path, header, rows) -> Path:
    """RFC-4180 table: mandatory header row, CRLF line endings.

    The whole table is encoded before the file is opened, so a table
    that fails to encode writes nothing.
    """
    path = Path(path)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    writer.writerow(_csv_row(header))
    writer.writerows(map(_csv_row, rows))
    path.write_bytes(buffer.getvalue().encode("ascii"))
    return path


def summarize(results: list) -> dict:
    """Aggregate result dicts into the report summary block.

    Verdicts are counted from each record's ``status``: ``pass`` records
    passed, ``fail`` records failed, and every other status carries no
    verdict.
    """
    statuses = Counter(r.get("status") for r in results)
    passed, failed = statuses["pass"], statuses["fail"]
    return {
        "checks": len(results),
        "passed": passed,
        "failed": failed,
        "no_verdict": len(results) - passed - failed,
        "all_passed": failed == 0,
    }


def emit_report(
    config: RunConfig,
    results: list,
    tables: dict | None = None,
    out_dir=".",
) -> list:
    """Write report.json and one CSV file per table; returns written paths.

    ``results`` is a list of result dicts; ``tables`` maps a file name
    to a (header, rows) pair.  The JSON document is the single object
    {config, results, summary} and is always written, so every verdict
    reaches a file.  Empty result sets and empty tables still produce
    valid files.
    """
    out_dir = Path(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    document = {
        "config": config.to_dict(),
        "results": results,
        "summary": summarize(results),
    }
    path = out_dir / "report.json"
    path.write_bytes(to_json_bytes(document))
    written = [path]
    for name, (header, rows) in (tables or {}).items():
        written.append(write_csv(out_dir / name, header, rows))
    return written
