"""Run reports and deterministic artifact emission.

Given the same configuration, the CSV/JSON/gnuplot artifacts are
byte-identical; wall-clock timings therefore go to a separate sidecar
that carries no determinism guarantee.  The result cache is opt-in
(``--use-cache``) and advisory: it is keyed on a sha256 of the package
sources and the configuration, a hit is trusted only while the output
directory still holds the cached report, and a stale or missing cache
merely costs a recompute.  A run without the cache hashes nothing, so
``hashlib`` (and the OpenSSL it loads) is imported only here, on use.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

__all__ = [
    "RunReport",
    "write_report",
    "cache_key",
    "cache_lookup",
    "cache_store",
]


@dataclass
class RunReport:
    kind: str
    meta: dict
    rows: list = field(default_factory=list)
    verified: list = field(default_factory=list)  # [{"name": str, "ok": bool}]
    timings: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        self.verified.append({"name": name, "ok": bool(ok)})
        return bool(ok)

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


def _source_digest() -> str:
    """sha256 over the package's Python sources, so other code never hits."""
    import hashlib

    digest = hashlib.sha256()
    root = os.path.dirname(os.path.abspath(__file__))
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(f"{name}\0".encode() + fh.read() + b"\0")
    return digest.hexdigest()


def cache_key(config_text: str) -> str:
    import hashlib

    return hashlib.sha256(f"{_source_digest()}\n{config_text}".encode()).hexdigest()


def _cache_path(cache_dir: str, key: str) -> str:
    return os.path.join(cache_dir, f"{key}.json")


def cache_lookup(cache_dir: str, key: str, report_path: str):
    """The cached report text for ``key``, trusted only while the report at
    ``report_path`` still equals it (another run into the same directory
    rewrites the artifacts); None otherwise."""
    texts = []
    for path in (_cache_path(cache_dir, key), report_path):
        try:
            with open(path) as fh:
                texts.append(fh.read())
        except OSError:
            return None
    return texts[0] if texts[0] == texts[1] else None


def cache_store(cache_dir: str, key: str, report_path: str) -> None:
    """Cache the report ``write_report`` wrote to ``report_path`` under
    ``key``, as its bytes, which is what ``cache_lookup`` compares."""
    with open(report_path) as fh:
        text = fh.read()
    os.makedirs(cache_dir, exist_ok=True)
    with open(_cache_path(cache_dir, key), "w") as fh:
        fh.write(text)
