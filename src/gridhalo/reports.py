"""Run reports and deterministic artifact emission.

Given the same configuration, the CSV/JSON/gnuplot artifacts are
byte-identical; wall-clock timings therefore go to a separate sidecar
that carries no determinism guarantee.  Every run writes its artifacts
afresh; nothing is cached between runs.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

__all__ = ["RunReport", "write_report"]


@dataclass
class RunReport:
    meta: dict
    rows: list = field(default_factory=list)
    verified: list = field(default_factory=list)  # [{"name": str, "ok": bool}]
    timings: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.verified.append({"name": name, "ok": bool(ok)})

    def all_verified(self) -> bool:
        return all(item["ok"] for item in self.verified)

    def to_json_doc(self) -> dict:
        # timings excluded on purpose: artifacts must be deterministic
        return {"meta": self.meta, "rows": self.rows, "verified": self.verified}


def _stringify(value):
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _columns(rows) -> dict:
    """Every key of ``rows``, in the order the rows first name them, with
    the value of the first row that has it."""
    first = {}
    for row in rows:
        for key, value in row.items():
            first.setdefault(key, value)
    return first


def _write_csv(rows, path: str) -> None:
    if not rows:
        return
    headers = list(_columns(rows))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(headers)
        for row in rows:
            writer.writerow([_stringify(row.get(h, "")) for h in headers])


def _write_gnuplot(rows, path: str, numeric_keys) -> None:
    with open(path, "w") as fh:
        fh.write("# " + " ".join(numeric_keys) + "\n")
        for row in rows:
            fh.write(" ".join(_stringify(row.get(k, "nan")) for k in numeric_keys) + "\n")


def write_report(report: RunReport, out_dir: str) -> dict:
    """Emit report.json, rows.csv, rows.dat (numeric columns), timings.txt."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    paths["json"] = os.path.join(out_dir, "report.json")
    with open(paths["json"], "w") as fh:
        fh.write(_report_text(report))
    if report.rows:
        paths["csv"] = os.path.join(out_dir, "rows.csv")
        _write_csv(report.rows, paths["csv"])
        numeric = [
            key
            for key, value in _columns(report.rows).items()
            if isinstance(value, (int, float)) and not isinstance(value, bool)
        ]
        if numeric:
            paths["gnuplot"] = os.path.join(out_dir, "rows.dat")
            _write_gnuplot(report.rows, paths["gnuplot"], numeric)
    if report.timings:
        paths["timings"] = os.path.join(out_dir, "timings.txt")
        with open(paths["timings"], "w") as fh:
            for name, seconds in report.timings.items():
                fh.write(f"{name} {seconds:.3f}\n")
    return paths


def _report_text(report: RunReport) -> str:
    doc = report.to_json_doc()
    return json.dumps(doc, indent=2, sort_keys=True, default=_stringify) + "\n"

