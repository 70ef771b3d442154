"""Experiment reports and their deterministic renderings."""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

VERSION = "0.1.0"


@dataclass
class Verdict:
    claim: str
    passed: bool
    details: str = ""


@dataclass
class ExperimentReport:
    """Named experiment outcome: parameters, result rows, verdicts.

    Serialization is loss-free and byte-deterministic: fixed key order,
    two-space indent, LF line endings.
    """

    name: str
    params: dict = field(default_factory=dict)
    rows: list = field(default_factory=list)
    verdicts: list = field(default_factory=list)
    seed: object = None
    version: str = VERSION

    @property
    def passed(self):
        return all(v.passed for v in self.verdicts)

    def to_obj(self):
        return {
            "name": self.name,
            "params": dict(self.params),
            "rows": [dict(r) for r in self.rows],
            "verdicts": [
                {"claim": v.claim, "pass": v.passed, "details": v.details}
                for v in self.verdicts
            ],
            "seed": self.seed,
            "version": self.version,
        }

    def to_json_bytes(self):
        return (json.dumps(self.to_obj(), indent=2) + "\n").encode("utf-8")

    def to_csv_bytes(self):
        """Rows as CSV with the column order of the first row."""
        buf = io.StringIO()
        if self.rows:
            columns = list(self.rows[0].keys())
            writer = csv.DictWriter(buf, fieldnames=columns, lineterminator="\n")
            writer.writeheader()
            for row in self.rows:
                writer.writerow(row)
        return buf.getvalue().encode("utf-8")

    def to_table_bytes(self):
        """Aligned plain-text table, no trailing whitespace."""
        lines = [f"# {self.name}"]
        for k, v in self.params.items():
            lines.append(f"# {k} = {v}")
        if self.rows:
            columns = list(self.rows[0].keys())
            cells = [[str(c) for c in columns]]
            for row in self.rows:
                cells.append([str(row.get(c, "")) for c in columns])
            widths = [max(len(r[i]) for r in cells) for i in range(len(columns))]
            for r in cells:
                line = "  ".join(c.ljust(w) for c, w in zip(r, widths))
                lines.append(line.rstrip())
        for v in self.verdicts:
            status = "PASS" if v.passed else "FAIL"
            suffix = f" ({v.details})" if v.details else ""
            lines.append(f"{status} {v.claim}{suffix}")
        return ("\n".join(lines) + "\n").encode("utf-8")


def render_report(report, fmt):
    """Render to bytes in one of: json, csv, table."""
    if fmt == "json":
        return report.to_json_bytes()
    if fmt == "csv":
        return report.to_csv_bytes()
    if fmt == "table":
        return report.to_table_bytes()
    raise ValueError(f"unknown format {fmt!r}")
