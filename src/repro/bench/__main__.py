"""CLI for the benchmark harness: ``python -m repro.bench <figure>``.

Figures: fig6 fig7 fig8a fig8b fig8c fig9a fig9b fig9c, or ``all``.
``--out PATH`` additionally writes a Markdown report (used to regenerate
EXPERIMENTS.md's measured sections); ``--json PATH`` writes the raw row
dicts as machine-readable JSON (``{"scale": ..., "figures": {name: rows}}``).

``--gate`` skips the figures and instead replays every committed
``BENCH_*.json`` artifact of :data:`repro.bench.table.BENCHES` (serve,
shard, labels, overload, reconfig) against a fresh run, exiting non-zero
on a >tolerance regression of a gated ratio or on any failed hard check
(see :mod:`repro.bench.gate`).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Callable, Dict, List, Tuple

from repro.bench.harness import (
    current_scale,
    measure_fig6,
    measure_fig7,
    measure_fig8a,
    measure_fig8b,
    measure_fig8c,
    measure_fig9a,
    measure_fig9b,
    measure_fig9c,
    render_table,
)

FIGURES: Dict[str, Tuple[str, Callable[[], List[dict]]]] = {
    "fig6": ("Figure 6: distance algorithms on desktop (ms per call)", measure_fig6),
    "fig7": (
        "Figure 7: distance algorithms on simulated phone (ms per call)",
        measure_fig7,
    ),
    "fig8a": (
        "Figure 8(a): range query vs object count, r=30m, 30 floors",
        measure_fig8a,
    ),
    "fig8b": (
        "Figure 8(b): range query vs floor count, r=20m, fixed density",
        measure_fig8b,
    ),
    "fig8c": (
        "Figure 8(c): range query vs object count for r=10..50m",
        measure_fig8c,
    ),
    "fig9a": (
        "Figure 9(a): kNN query vs object count, k=100, 30 floors",
        measure_fig9a,
    ),
    "fig9b": (
        "Figure 9(b): kNN query vs floor count, k=100, fixed density",
        measure_fig9b,
    ),
    "fig9c": ("Figure 9(c): kNN query vs object count for k=1..200", measure_fig9c),
}


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the evaluation figures of Lu/Cao/Jensen ICDE 2012.",
    )
    parser.add_argument(
        "figures",
        nargs="*",
        metavar="figure",
        help=f"which figure(s) to measure: {', '.join(sorted(FIGURES))}, "
        "or all",
    )
    parser.add_argument(
        "--out", default=None, help="also append Markdown tables to this file"
    )
    parser.add_argument(
        "--json",
        default=None,
        help="also write the raw rows as machine-readable JSON to this file",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="regression-gate the committed BENCH_*.json artifacts "
        "instead of measuring figures (exit 1 on regression)",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        help="relative slack for the gate's ratio metrics (default 0.20)",
    )
    args = parser.parse_args(argv)

    if args.gate:
        from repro.bench.gate import (
            DEFAULT_TOLERANCE,
            render_gate_report,
            run_gate,
        )

        tolerance = (
            args.tolerance if args.tolerance is not None else DEFAULT_TOLERANCE
        )
        report = run_gate(tolerance=tolerance)
        print(render_gate_report(report))
        if args.json:
            with open(args.json, "w") as handle:
                json.dump(report, handle, indent=2, sort_keys=True)
                handle.write("\n")
            print(f"# wrote gate report to {args.json}")
        return 0 if report["ok"] else 1
    if not args.figures:
        parser.error("choose figure(s) to measure, or pass --gate")
    unknown = [f for f in args.figures if f != "all" and f not in FIGURES]
    if unknown:
        parser.error(
            f"unknown figure(s) {', '.join(unknown)}; "
            f"choose from {', '.join(sorted(FIGURES))}, or all"
        )

    names = sorted(FIGURES) if "all" in args.figures else args.figures
    scale = current_scale()
    print(f"# scale: {scale.name} (set REPRO_BENCH_SCALE=paper for full runs)")
    markdown_sections = []
    json_figures = {}
    for name in names:
        title, measure = FIGURES[name]
        rows = measure()
        json_figures[name] = {"title": title, "rows": rows}
        table = render_table(rows, title=title)
        print()
        print(table)
        if args.out:
            header = "| " + " | ".join(rows[0].keys()) + " |"
            sep = "|" + "---|" * len(rows[0])
            body = "\n".join(
                "| "
                + " | ".join(
                    f"{v:.2f}" if isinstance(v, float) else str(v)
                    for v in row.values()
                )
                + " |"
                for row in rows
            )
            markdown_sections.append(f"### {title}\n\n{header}\n{sep}\n{body}\n")
    if args.out:
        with open(args.out, "a") as handle:
            handle.write("\n".join(markdown_sections))
        print(f"\n# wrote Markdown tables to {args.out}")
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(
                {"scale": scale.name, "figures": json_figures},
                handle,
                indent=2,
                sort_keys=True,
            )
            handle.write("\n")
        print(f"\n# wrote JSON rows to {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
