"""Run reports and their CSV/JSON serialization.

Counters are the ground truth for storage behavior; the timing fields are
informational only and are excluded when comparing reports for determinism.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .errors import ValidationError

COUNTER_FIELDS = (
    "element_requests",
    "page_requests",
    "page_misses",
    "write_backs",
    "batch_count",
    "upage_count",
    "distinct_pages",
)
TIMING_FIELDS = ("reorder_time", "io_time", "compute_time")


@dataclass
class MetricsReport:
    element_requests: int = 0
    page_requests: int = 0
    page_misses: int = 0
    write_backs: int = 0
    batch_count: int = 0        # batches executed; in training, update and loss passes
    upage_count: int = 0        # U-pages planned; in training, iterations x U-pages
    distinct_pages: int = 0
    reorder_time: float = 0.0   # planning U-page orders (training: iteration_plan)
    io_time: float = 0.0        # page reads and writes of this run only, on a shared store too
    compute_time: float = 0.0   # visiting pinned batches: dot products, updates, loss terms
    config: dict = field(default_factory=dict)
    per_upage: list | None = None

    def to_dict(self):
        out = {name: getattr(self, name) for name in COUNTER_FIELDS}
        out.update({name: getattr(self, name) for name in TIMING_FIELDS})
        out["config"] = dict(self.config)
        if self.per_upage is not None:
            out["per_upage"] = self.per_upage
        return out

    def counters(self):
        """The deterministic part of the report."""
        return {name: getattr(self, name) for name in COUNTER_FIELDS}


def report_to_json(report_dict, path=None):
    text = json.dumps(report_dict, indent=2, sort_keys=True, default=str)
    if path is not None:
        with open(path, "w") as out:
            out.write(text + "\n")
    return text


def report_to_csv(report_dict, path=None):
    """Flat metric,value rows; nested values are JSON-encoded in place."""
    lines = ["metric,value"]
    for key in sorted(report_dict):
        value = report_dict[key]
        if isinstance(value, (dict, list)):
            value = json.dumps(value, sort_keys=True, default=str).replace('"', "'")
        lines.append(f"{key},{value}")
    text = "\n".join(lines)
    if path is not None:
        with open(path, "w") as out:
            out.write(text + "\n")
    return text


def emit_report(report_dict, path=None, fmt="json"):
    if fmt == "json":
        return report_to_json(report_dict, path)
    if fmt == "csv":
        return report_to_csv(report_dict, path)
    raise ValidationError(f"unknown report format {fmt!r}")
