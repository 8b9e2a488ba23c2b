"""Report emission: gap-matrix / boost / aggregate CSVs, the recall vs gap
SVG chart, and boost arithmetic over a transcribed results table.

All outputs are byte-stable across runs: CSVs use repr() for floats and
plots are hand-written SVG with no timestamps or generated ids.
"""

from __future__ import annotations

import csv
from pathlib import Path

from .checkpoint import atomic_open, write_csv
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


def recompute_boost(table):
    """Per-cell boost of TIGER over SpEL recomputed from the table's raw
    recall values, plus per-(category, gap) averages of those recomputed
    cells."""
    ours = table["TIGER"]
    base = table["SpEL"]
    cells = {key: boost(value, base[key]) for key, value in ours.items()
             if key[0] != "ave" and key in base}
    return cells, _average_boosts(cells)


def printed_average_boost(table):
    """Averages of the table's printed Boost cells per (category, gap)."""
    return _average_boosts(table.get("Boost", {}))


def write_gap_matrix_csv(matrix: GapMatrix, path):
    cells = ((t1, t2, matrix.cell(t1, t2))
             for t1 in matrix.years for t2 in matrix.years)
    write_csv(path, ["train_year", "test_year", "mentions"]
              + [f"recall@{n}" for n in RECALL_NS],
              ([t1, t2, c.mention_count]
               + [repr(c.recall[n]) for n in RECALL_NS]
               for t1, t2, c in cells))


def write_aggregate_csv(matrix: GapMatrix, path):
    aggs = ((mode, aggregate_gap(matrix, mode)) for mode in MODES)
    write_csv(path, ["mode", "gap"] + [f"recall@{n}" for n in RECALL_NS],
              ([mode, gap] + [repr(agg[gap][n]) for n in RECALL_NS]
               for mode, agg in aggs for gap in sorted(agg)))


def write_boost_csv(matrix: GapMatrix, baseline: dict, category: str, path):
    """Boost of recall aggregated over both gap directions against a
    baseline keyed by (metric, gap, category). Emits both relative percent
    and percentage-point columns."""
    agg = aggregate_gap(matrix, "forward_and_backward")

    def rows():
        for gap in sorted(agg):
            for n in RECALL_NS:
                key = (n, gap, category)
                if key not in baseline:
                    continue
                ours, base = agg[gap][n], baseline[key]
                b = boost(ours, base)
                yield [n, gap, category, repr(ours), repr(base),
                       "missing" if b is None else repr(b),
                       repr(100.0 * (ours - base))]
    write_csv(path, ["metric", "gap", "category", "ours", "baseline",
                     "boost_percent", "delta_points"], rows())


def write_recall_vs_gap_plot(matrices_by_category: dict, path):
    """Deterministic SVG chart of recall@1 against year gap, aggregated over
    both gap directions: one polyline per training category (continual in
    blue, new in red)."""
    w, h, pad = 640, 420, 56
    series = {}
    for category, matrix in sorted(matrices_by_category.items()):
        agg = aggregate_gap(matrix, "forward_and_backward")
        series[category] = [(gap, agg[gap][1]) for gap in sorted(agg)]
    xs = sorted({x for pts in series.values() for x, _ in pts})
    ys = [y for pts in series.values() for _, y in pts]
    if not xs:
        raise ValueError("nothing to plot")
    x_lo, x_hi = xs[0], max(xs[-1], xs[0] + 1)  # gaps are ints
    y_lo, y_hi = min(ys), max(ys)
    if y_hi == y_lo:
        y_hi = y_lo + 1

    def px(x):
        return pad + (x - x_lo) / (x_hi - x_lo) * (w - 2 * pad)

    def py(y):
        return h - pad - (y - y_lo) / (y_hi - y_lo) * (h - 2 * pad)

    font = 'font-family="sans-serif"'
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="320.0" y="20" text-anchor="middle" {font} font-size="14">'
        'recall@1 vs year gap (forward_and_backward)</text>',
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" '
        'stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" '
        'stroke="black"/>',
        f'<text x="320.0" y="{h - 12}" text-anchor="middle" {font} '
        'font-size="12">year gap</text>',
        f'<text x="16" y="210.0" text-anchor="middle" {font} font-size="12" '
        'transform="rotate(-90 16 210.0)">recall@1</text>',
    ]
    for x in xs:
        parts.append(f'<text x="{px(x):.2f}" y="{h - pad + 16}" '
                     f'text-anchor="middle" {font} font-size="10">'
                     f'{x:g}</text>')
    for frac in (0.0, 0.5, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<text x="{pad - 6}" y="{py(y):.2f}" text-anchor="end" '
                     f'{font} font-size="10">{y:.3f}</text>')
    colors = {"continual": "#1f77b4", "new": "#d62728"}
    for category, pts in series.items():
        coords = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        color = colors[category]
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2" '
                     'stroke-dasharray="none"/>')
        parts.append(f'<text x="{w - pad + 4}" y="{py(pts[-1][1]):.2f}" '
                     f'{font} font-size="10" fill="{color}">{category}</text>')
    parts.append("</svg>")
    with atomic_open(path, text=True) as fh:
        fh.write("\n".join(parts) + "\n")
