"""Report emission: gap-matrix / boost / aggregate CSVs, simple SVG line
charts, and boost arithmetic over a transcribed results table.

All outputs are byte-stable across runs: CSVs use repr() for floats and
plots are hand-written SVG with no timestamps or generated ids.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .checkpoint import atomic_open
from .evaluate import (MODES, RECALL_NS, GapMatrix, aggregate_gap,
                       average_boost, boost)


class BaselineFormatError(Exception):
    pass


def _read_table(path, header: list, parse) -> list:
    """``parse(*fields)`` of each non-blank row of the CSV file at ``path``,
    whose first row must be ``header``. A row with another field count, or
    a value ``parse`` rejects with ``ValueError``, is a
    ``BaselineFormatError`` naming ``path:lineno``."""
    out = []
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        got = next(reader, None)
        if got != header:
            raise BaselineFormatError(f"{path}: unexpected header {got}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise BaselineFormatError(
                    f"{path}:{lineno}: expected {len(header)} fields")
            try:
                out.append(parse(*row))
            except ValueError as exc:
                raise BaselineFormatError(f"{path}:{lineno}: {exc}") from exc
    return out


def _results_row(metric, gap, category, model, value):
    return (model, (metric if metric == "ave" else int(metric), int(gap),
                    category), float(value))


def _baseline_row(metric, gap, category, value):
    value = float(value)  # parsed first: a row bad in both names the value
    return (int(metric), int(gap), category), value


def load_results_table(path):
    """Parse ``metric,gap,category,model,value`` rows.

    Returns nested dict: rows[model][(metric, gap, category)] = value,
    where metric is an int recall cutoff or the string "ave".
    """
    rows = {}
    for model, key, value in _read_table(
            path, ["metric", "gap", "category", "model", "value"], _results_row):
        rows.setdefault(model, {})[key] = value
    return rows


def load_baseline_csv(path):
    """Parse a ``metric,gap,category,value`` baseline file."""
    return dict(_read_table(path, ["metric", "gap", "category", "value"],
                            _baseline_row))


def _average_boosts(cells: dict) -> dict:
    """``average_boost`` per (category, gap) over the recall cutoffs of
    ``cells`` keyed (metric, gap, category)."""
    groups = sorted({(cat, gap) for (_, gap, cat) in cells})
    return {(cat, gap): average_boost([cells[(n, gap, cat)] for n in RECALL_NS
                                       if (n, gap, cat) in cells])
            for cat, gap in groups}


def recompute_boost(table, ours_model="TIGER", baseline_model="SpEL"):
    """Per-cell boost recomputed from the table's raw recall values, plus
    per-(category, gap) averages of those recomputed cells."""
    ours = table[ours_model]
    base = table[baseline_model]
    cells = {key: boost(value, base[key]) for key, value in ours.items()
             if key[0] != "ave" and key in base}
    return cells, _average_boosts(cells)


def printed_average_boost(table):
    """Averages of the table's printed Boost cells per (category, gap)."""
    return _average_boosts(table.get("Boost", {}))


def write_gap_matrix_csv(matrix: GapMatrix, path):
    with atomic_open(path, text=True) as fh:
        w = csv.writer(fh)
        w.writerow(["train_year", "test_year", "mentions"]
                   + [f"recall@{n}" for n in RECALL_NS])
        for t1 in matrix.years:
            for t2 in matrix.years:
                c = matrix.cell(t1, t2)
                w.writerow([t1, t2, c.mention_count]
                           + [repr(c.recall[n]) for n in RECALL_NS])


def write_aggregate_csv(matrix: GapMatrix, path):
    with atomic_open(path, text=True) as fh:
        w = csv.writer(fh)
        w.writerow(["mode", "gap"] + [f"recall@{n}" for n in RECALL_NS])
        for mode in MODES:
            agg = aggregate_gap(matrix, mode)
            for gap in sorted(agg):
                w.writerow([mode, gap] + [repr(agg[gap][n]) for n in RECALL_NS])


def write_boost_csv(matrix: GapMatrix, baseline: dict, category: str, path):
    """Boost of recall aggregated over both gap directions against a
    baseline keyed by (metric, gap, category). Emits both relative percent
    and percentage-point columns."""
    agg = aggregate_gap(matrix, "forward_and_backward")
    with atomic_open(path, text=True) as fh:
        w = csv.writer(fh)
        w.writerow(["metric", "gap", "category", "ours", "baseline",
                    "boost_percent", "delta_points"])
        for gap in sorted(agg):
            for n in RECALL_NS:
                key = (n, gap, category)
                if key not in baseline:
                    continue
                ours = agg[gap][n]
                base = baseline[key]
                b = boost(ours, base)
                w.writerow([n, gap, category, repr(ours), repr(base),
                            "missing" if b is None else repr(b),
                            repr(100.0 * (ours - base))])


def svg_line_plot(series: dict, path, title: str, x_label: str, y_label: str,
                  width=640, height=420):
    """Minimal deterministic SVG line chart; one polyline per named series."""
    pad = 56
    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    if not xs or not ys:
        raise ValueError("nothing to plot")
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (width - 2 * pad)

    def py(y):
        return height - pad - (y - y_lo) / (y_hi - y_lo) * (height - 2 * pad)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    dashes = ["none", "6,3"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>',
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" '
        f'y2="{height - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" '
        f'stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 12}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{x_label}</text>',
        f'<text x="16" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {height / 2:.1f})">{y_label}</text>',
    ]
    for x in xs:
        parts.append(f'<text x="{px(x):.2f}" y="{height - pad + 16}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="10">{x:g}</text>')
    for frac in (0.0, 0.5, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{pad - 6}" y="{py(y):.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{y:.3f}</text>')
    for i, (name, pts) in enumerate(sorted(series.items())):
        pts = sorted(pts)
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        color = colors[i % len(colors)]
        dash = dashes[(i // len(colors)) % len(dashes)]
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2" '
                     f'stroke-dasharray="{dash}"/>')
        parts.append(f'<text x="{width - pad + 4}" '
                     f'y="{py(pts[-1][1]):.2f}" font-family="sans-serif" '
                     f'font-size="10" fill="{color}">{name}</text>')
    parts.append("</svg>")
    with atomic_open(path, text=True) as fh:
        fh.write("\n".join(parts) + "\n")


def write_recall_vs_gap_plot(matrices_by_category: dict, path, metric: int = 1):
    """One curve per training category (continual/new) of recall@metric vs
    gap, aggregated over both gap directions."""
    mode = "forward_and_backward"
    series = {}
    for category, matrix in sorted(matrices_by_category.items()):
        agg = aggregate_gap(matrix, mode)
        series[category] = [(gap, agg[gap][metric]) for gap in sorted(agg)]
    svg_line_plot(series, path, title=f"recall@{metric} vs year gap ({mode})",
                  x_label="year gap", y_label=f"recall@{metric}")
