#!/usr/bin/env python3
"""Regenerate miniature versions of all six paper figures in one go.

Uses reduced iteration spaces and sweeps so the whole script finishes
in about a minute; `pytest tests/experiments` asserts the paper-scale
versions and `python -m repro figure figN` runs one full sweep.

Run:  python examples/paper_figures.py
"""

from repro.experiments import figures
from repro.experiments.report import format_table, improvement_percent


def main() -> None:
    runs = [
        ("Figure 5", lambda: figures.fig5(
            spaces=((40, 60), (60, 80)), z_values=(4, 8, 16))),
        ("Figure 6", lambda: figures.fig6(
            m=60, n=100, z_values=(4, 8, 16, 32))),
        ("Figure 7", lambda: figures.fig7(
            spaces=((20, 40, 40), (30, 60, 60)), x_values=(2, 4, 8))),
        ("Figure 8", lambda: figures.fig8(
            t=25, i=50, j=50, x_values=(2, 4, 8))),
        ("Figure 9", lambda: figures.fig9(
            spaces=((25, 64), (50, 64)), x_values=(2, 4, 8))),
        ("Figure 10", lambda: figures.fig10(
            t=50, n=128, x_values=(2, 4, 8, 16))),
    ]
    for name, fn in runs:
        fig = fn()
        print("=" * 70)
        print(f"{name} (miniature)")
        print("=" * 70)
        print(format_table(fig))
        if fig.figure in ("fig6", "fig8"):
            imp = improvement_percent(fig, "rectangular",
                                      "non-rectangular")
            print(f"mean improvement: {imp:.1f}%")
        elif fig.figure == "fig10":
            imp = improvement_percent(fig, "rect", "nr3")
            print(f"mean improvement (nr3 vs rect): {imp:.1f}%")
        print()


if __name__ == "__main__":
    main()
