"""Terminal (ASCII) visualization helpers.

The paper compares runs as bar charts (training time, Fig. 6) and splits a
run's time as a stacked breakdown (Fig. 9).  This module renders those two
shapes as plain text so that ``repro run --mode both`` can show them inline
without a plotting dependency.
"""

from __future__ import annotations

from typing import List, Mapping

_BAR_CHAR = "█"


def horizontal_bar_chart(
    values: Mapping[str, float],
    width: int = 40,
    unit: str = "",
    sort: bool = False,
) -> str:
    """Render a labelled horizontal bar chart (Fig. 6-style comparison)."""
    if not values:
        return ""
    items: List = list(values.items())
    if sort:
        items.sort(key=lambda kv: kv[1], reverse=True)
    max_value = max(v for _, v in items)
    max_label = max(len(str(k)) for k, _ in items)
    lines = []
    for label, value in items:
        filled = 0 if max_value <= 0 else int(round(width * value / max_value))
        bar = _BAR_CHAR * filled
        lines.append(f"{str(label).ljust(max_label)} | {bar.ljust(width)} {value:.4g}{unit}")
    return "\n".join(lines)


def stacked_breakdown(
    breakdown: Mapping[str, float],
    width: int = 60,
    min_share: float = 0.005,
) -> str:
    """Render a one-line stacked composition bar plus a legend (Fig. 9-style)."""
    total = sum(v for v in breakdown.values() if v > 0)
    if total <= 0:
        return "(empty breakdown)"
    symbols = "#@%*+=-:."
    entries = [(k, v) for k, v in breakdown.items() if v / total >= min_share]
    entries.sort(key=lambda kv: kv[1], reverse=True)
    bar_parts: List[str] = []
    legend_parts: List[str] = []
    for i, (name, value) in enumerate(entries):
        sym = symbols[i % len(symbols)]
        chars = max(1, int(round(width * value / total)))
        bar_parts.append(sym * chars)
        legend_parts.append(f"{sym} {name} {100 * value / total:.1f}%")
    return "[" + "".join(bar_parts)[:width].ljust(width) + "]\n" + "  ".join(legend_parts)


def comparison_summary(baseline_report, prefetch_report, width: int = 40) -> str:
    """Side-by-side Fig. 6-style summary of two training reports."""
    chart = horizontal_bar_chart(
        {
            "baseline (DistDGL)": baseline_report.total_simulated_time_s,
            "MassiveGNN": prefetch_report.total_simulated_time_s,
        },
        width=width,
        unit=" s",
    )
    improvement = prefetch_report.improvement_percent_vs(baseline_report)
    lines = [
        chart,
        f"improvement: {improvement:.1f}%   speedup: {prefetch_report.speedup_vs(baseline_report):.2f}x",
        f"hit rate: {prefetch_report.hit_rate:.3f}   overlap efficiency: {prefetch_report.overlap_efficiency:.3f}",
        f"remote nodes fetched: {baseline_report.remote_nodes_fetched()} -> {prefetch_report.remote_nodes_fetched()}",
    ]
    return "\n".join(lines)
