"""Simulated-vs-measured makespan validation (COST03).

The cost certificate's makespan (COST03) is
:meth:`DistributedRun.simulate` under the cluster model; this
experiment sets it beside the real run in one table per app:

* ``simulated`` — the timing-only simulation under ``protocol="spec"``;
* ``measured`` — the real parallel backend's max measured rank clock
  (host wall-clock; on a loaded or single-core host this deviates
  freely — it is the reality check, not an assertion);
* ``measured / simulated`` — the model residual of one run, on the
  model's default (FastEthernet/P-III) constants.

Run via ``python -m repro.experiments.costval`` — the EXPERIMENTS.md
cost-validation row is produced by exactly this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.apps import adi, jacobi, sor
from repro.apps.base import TiledApp
from repro.linalg.ratmat import RatMat
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec


@dataclass(frozen=True)
class CostValRow:
    """One app/tiling's two makespans (seconds)."""

    app: str
    label: str
    processors: int
    simulated: float
    measured: Optional[float]           # None when not measured

    @property
    def residual(self) -> Optional[float]:
        """Measured / simulated (``None`` when not measured)."""
        return None if self.measured is None else \
            self.measured / self.simulated


def validate(app: TiledApp, h: RatMat, label: str,
             spec: Optional[ClusterSpec] = None,
             measure: bool = True,
             workers: int = 2,
             repeats: int = 2) -> CostValRow:
    """One row: simulate and (optionally) run for real."""
    spec = spec or ClusterSpec()
    prog = TiledProgram(app.nest, h, mapping_dim=app.mapping_dim)
    stats = DistributedRun(prog, spec).simulate()
    measured = None
    if measure:
        best = float("inf")
        for _ in range(max(1, repeats)):
            _, mstats = DistributedRun(prog, spec).execute_parallel(
                app.init_value, workers=workers, protocol="spec")
            best = min(best, mstats.makespan)
        measured = best
    return CostValRow(
        app=app.name, label=label, processors=prog.num_processors,
        simulated=stats.makespan, measured=measured,
    )


def default_configs() -> List[Tuple[TiledApp, RatMat, str]]:
    """The SOR/Jacobi/ADI trio of the EXPERIMENTS.md table."""
    return [
        (sor.app(10, 14), sor.h_nonrectangular(3, 4, 5),
         "nonrect 3x4x5"),
        (jacobi.app(4, 6, 6), jacobi.h_rectangular(2, 3, 3),
         "rect 2x3x3"),
        (adi.app(8, 9), adi.h_nr1(2, 3, 3),
         "nr1 2x3x3"),
    ]


def run(measure: bool = True, workers: int = 2,
        repeats: int = 2,
        configs: Optional[Sequence[Tuple[TiledApp, RatMat, str]]] = None,
        ) -> List[CostValRow]:
    rows = []
    for app, h, label in (configs if configs is not None
                          else default_configs()):
        rows.append(validate(app, h, label, measure=measure,
                             workers=workers, repeats=repeats))
    return rows


def format_rows(rows: Sequence[CostValRow]) -> str:
    """The table as markdown (pasteable into EXPERIMENTS.md)."""
    def us(x: Optional[float]) -> str:
        return "-" if x is None else f"{x * 1e6:.3f}"

    lines = [
        "| app | tiling | procs | simulated (us) | measured (us) "
        "| measured / simulated |",
        "|---|---|---|---|---|---|",
    ]
    for r in rows:
        ratio = "-" if r.residual is None else f"{r.residual:.2f}"
        lines.append(
            f"| {r.app} | {r.label} | {r.processors} "
            f"| {us(r.simulated)} | {us(r.measured)} | {ratio} |")
    return "\n".join(lines)


def main() -> int:
    print(format_rows(run()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
