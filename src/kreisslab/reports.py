"""Report records, the one verdict gate, and deterministic emission.

Every record of a report is a CheckRecord, and gate is the only code
that decides a pass or fail status: it stores the compared value, the
comparison, the bound, the slack and the margin beside the verdict.

Identical run configuration and seed must produce byte-identical files,
so every serialization path here is explicit: object keys are sorted,
floats are printed with 17 significant digits, CSV rows end in CRLF,
and nothing records wall-clock time.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _json_string
from pathlib import Path

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class RunConfig:
    """Everything a run depends on; round-trips through the report header."""

    command: str
    operator: str | None = None
    params: dict = field(default_factory=dict)
    n_max: int | None = None
    k_max: int | None = None
    angles: int | None = None
    radii: tuple | None = None
    seed: int = 0x5EED
    tolerances: dict = field(default_factory=dict)
    out: str = "."
    format: str = "json"

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "operator": self.operator,
            "params": dict(self.params),
            "n_max": self.n_max,
            "k_max": self.k_max,
            "angles": self.angles,
            "radii": list(self.radii) if self.radii is not None else None,
            "seed": self.seed,
            "tolerances": dict(self.tolerances),
            "out": self.out,
            "format": self.format,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        radii = data.get("radii")
        return cls(
            command=data["command"],
            operator=data.get("operator"),
            params=dict(data.get("params", {})),
            n_max=data.get("n_max"),
            k_max=data.get("k_max"),
            angles=data.get("angles"),
            radii=tuple(radii) if radii is not None else None,
            seed=data.get("seed", 0x5EED),
            tolerances=dict(data.get("tolerances", {})),
            out=data.get("out", "."),
            format=data.get("format", "json"),
        )


#: Comparison operators a verdict may be gated by.
OPS = ("<=", "<", ">=", ">")


@dataclass(frozen=True)
class CheckRecord:
    """One report record: a gated verdict or a no-verdict entry.

    A ``pass`` or ``fail`` status comes with the gate that decided it:
    ``value op bound`` with relative ``slack`` and the signed ``margin``
    in the bound's favor.  Such records are built by :func:`gate` only.
    Every other status (``info``, ``skipped``, ``vacuous-pass``,
    ``hypothesis-diverged``) carries no gate and uses this constructor.
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
        if not _FIELDS.isdisjoint(self.params):
            clash = sorted(_FIELDS.intersection(self.params))
            raise ValidationError(f"{self.check_id}: params repeat fields {clash}")

    @property
    def passed(self) -> bool | None:
        """True for pass and vacuous-pass, False for fail, None otherwise."""
        return _PASSED.get(self.status)

    def to_dict(self) -> dict:
        return {
            "check_id": self.check_id,
            "status": self.status,
            "value": self.value,
            "op": self.op,
            "bound": self.bound,
            "slack": self.slack,
            "margin": self.margin,
            "detail": self.detail,
            **self.params,
        }


_FIELDS = frozenset(CheckRecord.__dataclass_fields__) - {"params"}
_PASSED = {"pass": True, "vacuous-pass": True, "fail": False}


def gate(check_id, value, op, bound, slack=0.0, params=None, detail="") -> CheckRecord:
    """The one pass/fail decision: ``value op bound``, up to relative slack.

    The margin is bound - value for ``<``/``<=`` and value - bound for
    ``>``/``>=``.  A non-strict op passes on margin >= -slack * |bound|,
    a strict one on margin > 0; a strict op admits no slack.
    """
    value, bound, slack = float(value), float(bound), float(slack)
    strict = op in ("<", ">")
    if strict and slack:
        raise ValidationError(f"{check_id}: a strict comparison takes no slack")
    margin = bound - value if op in ("<", "<=") else value - bound
    ok = margin > 0.0 if strict else margin >= -slack * abs(bound)
    return CheckRecord(check_id, "pass" if ok else "fail", value, op, bound, slack, margin,
                       dict(params or {}), detail)


def _format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValidationError("reports may not contain non-finite floats")
    return format(float(x), ".17g")


def _json_fragment(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, (complex, np.complexfloating)):
        _json_fragment([obj.real, obj.imag], out)
    elif isinstance(obj, str):
        out.append(_json_string(obj))
    elif isinstance(obj, np.ndarray):
        _json_fragment(obj.tolist(), out)
    elif isinstance(obj, dict):
        start = len(out)
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise ValidationError("report object keys must be strings")
            out.append(_json_string(key))
            out.append(":")
            _json_fragment(obj[key], out)
        out.append("}")
        # One string per object keeps the fragment list of a large report short.
        out[start:] = ["".join(out[start:])]
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(",")
            _json_fragment(item, out)
        out.append("]")
    else:
        raise ValidationError(f"cannot serialize {type(obj)!r} into a report")


def to_json_bytes(obj) -> bytes:
    """Canonical JSON: sorted keys, 17-significant-digit floats, ASCII."""
    out: list = []
    _json_fragment(obj, out)
    out.append("\n")
    return "".join(out).encode("ascii")


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _format_float(float(value))
    text = str(value)
    if any(ch in text for ch in (",", '"', "\n", "\r")):
        text = '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path, header, rows) -> Path:
    """RFC-4180 table: mandatory header row, CRLF line endings."""
    path = Path(path)
    lines = [",".join(_csv_cell(h) for h in header)]
    lines.extend(",".join(_csv_cell(cell) for cell in row) for row in rows)
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("ascii"))
    return path


def summarize(results: list) -> dict:
    """Aggregate result dicts into the report summary block.

    Verdicts are counted from each record's ``status``: ``pass`` and
    ``vacuous-pass`` records passed, ``fail`` records failed, and every
    other status carries no verdict.
    """
    statuses = Counter(r.get("status") for r in results)
    passed = statuses["pass"] + statuses["vacuous-pass"]
    failed = statuses["fail"]
    return {
        "checks": len(results),
        "passed": passed,
        "failed": failed,
        "vacuous_pass": statuses["vacuous-pass"],
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
