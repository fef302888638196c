"""Report structure, table rendering and CSV export for the harness."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

__all__ = ["ExperimentReport", "format_seconds"]


def format_seconds(seconds: float) -> str:
    """Human-scale time formatting (us / ms / s)."""
    if seconds >= 1.0:
        return f"{seconds:9.3f} s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:8.3f} ms"
    return f"{seconds * 1e6:8.1f} us"


@dataclass(slots=True)
class ExperimentReport:
    """One reproduced figure/table: data rows plus paper comparison."""

    experiment_id: str  #: e.g. "fig2ab"
    title: str
    columns: list[str]
    rows: list[tuple] = field(default_factory=list)
    #: Free-form notes comparing against the paper's reported numbers.
    paper_reference: str = ""
    #: Headline numbers for machine consumption (benchmark extra_info).
    key_numbers: dict[str, Any] = field(default_factory=dict)
    #: Optional numeric series for plotting: name -> (xs, ys).
    series: dict[str, tuple[list, list]] = field(default_factory=dict)

    def add_row(self, *values: Any) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(tuple(values))

    def render(self) -> str:
        """Render the report as an aligned text table with notes."""
        cells = [[str(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[c]), *(len(row[c]) for row in cells))
            if cells
            else len(self.columns[c])
            for c in range(len(self.columns))
        ]
        lines = [f"== {self.experiment_id}: {self.title} =="]
        lines.append(
            "  ".join(col.ljust(w) for col, w in zip(self.columns, widths))
        )
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        if self.paper_reference:
            lines.append("")
            lines.append("paper: " + self.paper_reference)
        if self.key_numbers:
            lines.append(
                "key: "
                + ", ".join(f"{k}={v}" for k, v in sorted(self.key_numbers.items()))
            )
        return "\n".join(lines)

    def add_series(self, name: str, x: Any, y: float) -> None:
        """Append one (x, y) point to the named plot series."""
        xs, ys = self.series.setdefault(name, ([], []))
        xs.append(x)
        ys.append(float(y))

    def render_plot(self, log: bool = True) -> str:
        """Render the numeric series as an ASCII chart (log-log default)."""
        from ..viz.ascii import line_chart, log_line_chart

        if not self.series:
            return "(no plot series recorded for this experiment)"
        # All series must share x values; use the first series' xs.
        xs = next(iter(self.series.values()))[0]
        data = {name: ys for name, (sx, ys) in self.series.items() if sx == xs}
        chart = log_line_chart if log else line_chart
        try:
            return chart(xs, data, x_label=self.columns[0] + (" (log)" if log else ""))
        except ValueError:
            return line_chart(xs, data, x_label=self.columns[0])

    def to_csv(self, path: str | Path) -> Path:
        """Write the rows as CSV (one header line, then the data)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            writer.writerows(self.rows)
        return path

    def to_dict(self) -> dict:
        """The full report (rows, notes, key numbers) as plain data."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": self.columns,
            "rows": [list(row) for row in self.rows],
            "paper_reference": self.paper_reference,
            "key_numbers": {str(k): v for k, v in self.key_numbers.items()},
        }

    def to_json(self, path: str | Path) -> Path:
        """Write :meth:`to_dict` as JSON."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, default=str)
        return path
