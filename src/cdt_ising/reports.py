"""Machine-readable experiment reports.

Every run is summarized as an ``ExperimentReport``: the resolved
configuration (seed included), a fixed column schema, data rows, and summary
statistics.  CSV output carries the provenance in ``#`` comment lines (the
timestamp lives only there, so identical configurations reproduce identical
data bytes); JSON mirrors the rows one to one and omits the timestamp.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

SCHEMA_VERSION = 1
OUTPUT_DIR_ENV = "CDT_ISING_OUTDIR"


@dataclass
class ExperimentReport:
    command: str
    config: dict
    schema: tuple[str, ...]
    rows: list[tuple]
    summary: dict = field(default_factory=dict)

    def csv_lines(self, timestamp: bool = True) -> list[str]:
        lines = [
            f"# cdt-ising report v{SCHEMA_VERSION}",
            f"# command: {self.command}",
            f"# config: {json.dumps(self.config, sort_keys=True)}",
        ]
        if timestamp:
            lines.append(f"# generated_at: {time.strftime('%Y-%m-%dT%H:%M:%S%z')}")
        if self.summary:
            lines.append(f"# summary: {json.dumps(self.summary, sort_keys=True)}")
        lines.append(",".join(self.schema))
        for row in self.rows:
            lines.append(",".join(_cell(x) for x in row))
        return lines

    def to_csv(self, path: Path | str) -> None:
        Path(path).write_text("\n".join(self.csv_lines()) + "\n")

    def to_json(self, path: Path | str) -> None:
        payload = {
            "report_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config,
            "schema": list(self.schema),
            "rows": [list(r) for r in self.rows],
            "summary": self.summary,
        }
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
        Path(path).write_text(text + "\n")

    def write(self, path: Path | str, fmt: str) -> None:
        if fmt == "csv":
            self.to_csv(path)
        elif fmt == "json":
            self.to_json(path)
        else:
            raise ValueError(f"unknown format {fmt!r}")


def _cell(x) -> str:
    if isinstance(x, float):
        return repr(x)
    return str(x)


def output_directory() -> Path:
    return Path(os.environ.get(OUTPUT_DIR_ENV, "."))


def resolve_output(out: str | None, default_name: str, fmt: str) -> Path:
    base = output_directory()
    if out is None:
        return base / f"{default_name}.{fmt}"
    p = Path(out)
    return p if p.is_absolute() else base / p
