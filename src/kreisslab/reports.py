"""Deterministic report emission: JSON documents and RFC-4180 CSV tables.

Identical run configuration and seed must produce byte-identical files,
so every serialization path here is explicit: object keys are sorted,
floats are printed with 17 significant digits, CSV rows end in CRLF,
and nothing records wall-clock time.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
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


@dataclass(frozen=True)
class CheckRecord:
    """A generic pass/fail record for non-claim checks.

    ``passed`` may be None for purely informational rows, which never
    count against the exit code.
    """

    check_id: str
    passed: bool | None
    value: float | None = None
    bound: float | None = None
    status: str = ""
    detail: str = ""

    def __post_init__(self):
        if self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        status = self.status or ("info" if self.passed is None else "pass" if self.passed else "fail")
        return {
            "check_id": self.check_id,
            "passed": self.passed,
            "value": self.value,
            "bound": self.bound,
            "status": status,
            "detail": self.detail,
        }


def _format_float(x: float) -> str:
    if not np.isfinite(x):
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
        out.append(json.dumps(obj, ensure_ascii=True))
    elif isinstance(obj, np.ndarray):
        _json_fragment(obj.tolist(), out)
    elif isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if i:
                out.append(",")
            if not isinstance(key, str):
                raise ValidationError("report object keys must be strings")
            out.append(json.dumps(key, ensure_ascii=True))
            out.append(":")
            _json_fragment(obj[key], out)
        out.append("}")
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
