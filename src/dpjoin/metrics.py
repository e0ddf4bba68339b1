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
PHASE_COUNTERS = ("page_requests", "page_misses", "write_backs")  # split by phase in training


@dataclass
class MetricsReport:
    element_requests: int = 0   # entries visited; in training, an apply's steps too
    page_requests: int = 0
    page_misses: int = 0
    write_backs: int = 0
    batch_count: int = 0        # batches executed; in training, every scan's too
    upage_count: int = 0        # U-pages planned; in training, iterations x U-pages
    distinct_pages: int = 0
    reorder_time: float = 0.0   # planning: U-pages' page sets, orders, batches and walks
                                # (training: the budget check and every iteration_plan call)
    io_time: float = 0.0        # page reads and writes of this run only, on a shared store too
    compute_time: float = 0.0   # time in visits and, in training, in kernels on gathered values
    config: dict = field(default_factory=dict)
    phases: dict | None = None  # training: phase -> PHASE_COUNTERS, summing to the totals;
                                # `update` counts the update passes, fused ones too, `loss`
                                # the loss-only gathers (initial and final passes too)

    def to_dict(self):
        out = {name: getattr(self, name) for name in COUNTER_FIELDS}
        out.update({name: getattr(self, name) for name in TIMING_FIELDS})
        out["config"] = dict(self.config)
        if self.phases is not None:
            out["phases"] = self.phases
        return out

    def counters(self):
        """The deterministic part of the report."""
        return {name: getattr(self, name) for name in COUNTER_FIELDS}


def emit_report(report_dict, path=None, fmt="json"):
    """The report as JSON, or as CSV: a dict as flat metric,value rows with
    nested values JSON-encoded in place, a list of flat dicts (a sweep's
    rows) as a table with one line per dict. Also written to `path` when
    given."""
    if fmt == "json":
        text = json.dumps(report_dict, indent=2, sort_keys=True, default=str)
    elif fmt == "csv" and isinstance(report_dict, list):
        text = "\n".join([",".join(report_dict[0])] + [
            ",".join(str(value) for value in row.values()) for row in report_dict])
    elif fmt == "csv":
        lines = ["metric,value"]
        for key in sorted(report_dict):
            value = report_dict[key]
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True, default=str).replace('"', "'")
            lines.append(f"{key},{value}")
        text = "\n".join(lines)
    else:
        raise ValidationError(f"unknown report format {fmt!r}")
    if path is not None:
        with open(path, "w") as out:
            out.write(text + "\n")
    return text
