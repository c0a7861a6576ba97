"""Drivers for the paper's Figures 5-10.

Every driver returns a :class:`FigureResult` whose series are exactly
what the figure plots: speedup per iteration space (figs 5/7/9, taking
the best tile size per space, as the paper's "maximum speedups") or
speedup per tile size (figs 6/8/10).  Parameters default to the paper's
anchored values (SOR M=100 N=200; Jacobi T=50 I=J=100; ADI T=100 N=256)
with 16 processors in a 4x4 mesh; reduced parameter sets can be passed
for quick runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.apps import adi, jacobi, sor
from repro.experiments.harness import ExperimentResult, run_experiment
from repro.experiments.spaces import tile_count_extent
from repro.runtime.machine import ClusterSpec, FAST_ETHERNET_CLUSTER


@dataclass(frozen=True)
class FigureSeries:
    label: str
    points: Tuple[Tuple[object, float], ...]  # (x-value, speedup)


@dataclass(frozen=True)
class FigureResult:
    figure: str
    title: str
    xlabel: str
    series: Tuple[FigureSeries, ...]
    details: Tuple[ExperimentResult, ...]

    def best(self, label: str) -> float:
        for s in self.series:
            if s.label == label:
                return max(v for _, v in s.points)
        raise KeyError(label)

    def series_map(self) -> Dict[str, Dict[object, float]]:
        return {s.label: dict(s.points) for s in self.series}


def _even_extent(lo: int, hi: int, count: int) -> int:
    """Smallest even extent cutting [lo, hi] into ``count`` tile rows
    (needed when P-integrality requires an even factor)."""
    s = tile_count_extent(lo, hi, count)
    while s % 2 or (hi // s - lo // s + 1) != count:
        s += 1
        if s > hi - lo + 1:
            raise ValueError("no even extent available")
    return s


# --------------------------------------------------------------------------
# SOR (figures 5 and 6) — skewed space: t' in [1,M], i' in [2,M+N],
# j' in [3,2M+N]; processors on dims (0,1); chain along dim 2.
# --------------------------------------------------------------------------

DEFAULT_SOR_SPACES: Tuple[Tuple[int, int], ...] = (
    (100, 100), (100, 200), (200, 200), (200, 400),
)
DEFAULT_SOR_Z: Tuple[int, ...] = (4, 6, 8, 12, 16, 24, 32, 48)


def sor_factors(m: int, n: int, grid: int = 4) -> Tuple[int, int]:
    """x, y giving a ``grid x grid`` processor mesh for SOR."""
    x = tile_count_extent(1, m, grid)
    y = tile_count_extent(2, m + n, grid)
    return x, y


def sor_tile_size_sweep(m: int, n: int,
                        z_values: Sequence[int],
                        spec: ClusterSpec) -> List[ExperimentResult]:
    x, y = sor_factors(m, n)
    app = sor.app(m, n)
    out = []
    for z in z_values:
        out.append(run_experiment(app, sor.h_rectangular(x, y, z),
                                  f"rect-z{z}", spec))
        out.append(run_experiment(app, sor.h_nonrectangular(x, y, z),
                                  f"nonrect-z{z}", spec))
    return out


def fig6(m: int = 100, n: int = 200,
         z_values: Sequence[int] = DEFAULT_SOR_Z,
         spec: Optional[ClusterSpec] = None) -> FigureResult:
    """SOR: speedups for various tile sizes (paper Figure 6)."""
    spec = spec or FAST_ETHERNET_CLUSTER
    results = sor_tile_size_sweep(m, n, z_values, spec)
    rect = [r for r in results if r.tiling.startswith("rect")]
    nonr = [r for r in results if r.tiling.startswith("nonrect")]
    return FigureResult(
        figure="fig6",
        title=f"SOR speedups vs tile size (M={m}, N={n})",
        xlabel="z (tile extent along the mapping dimension)",
        series=(
            FigureSeries("rectangular", tuple(
                (z, r.speedup) for z, r in zip(z_values, rect))),
            FigureSeries("non-rectangular", tuple(
                (z, r.speedup) for z, r in zip(z_values, nonr))),
        ),
        details=tuple(results),
    )


def fig5(spaces: Sequence[Tuple[int, int]] = DEFAULT_SOR_SPACES,
         z_values: Sequence[int] = DEFAULT_SOR_Z,
         spec: Optional[ClusterSpec] = None) -> FigureResult:
    """SOR: maximum speedups for different iteration spaces (Figure 5)."""
    spec = spec or FAST_ETHERNET_CLUSTER
    rect_pts, nonr_pts, details = [], [], []
    for m, n in spaces:
        results = sor_tile_size_sweep(m, n, z_values, spec)
        details.extend(results)
        label = f"{m}x{n}x{n}"
        rect_pts.append((label, max(
            r.speedup for r in results if r.tiling.startswith("rect"))))
        nonr_pts.append((label, max(
            r.speedup for r in results if r.tiling.startswith("nonrect"))))
    return FigureResult(
        figure="fig5",
        title="SOR maximum speedups for different iteration spaces",
        xlabel="iteration space (M x N x N)",
        series=(
            FigureSeries("rectangular", tuple(rect_pts)),
            FigureSeries("non-rectangular", tuple(nonr_pts)),
        ),
        details=tuple(details),
    )


# --------------------------------------------------------------------------
# Jacobi (figures 7 and 8) — skewed space: t' in [1,T], i' in [2,T+I],
# j' in [2,T+J]; processors on dims (1,2); chain along dim 0.
# --------------------------------------------------------------------------

DEFAULT_JACOBI_SPACES: Tuple[Tuple[int, int, int], ...] = (
    (50, 100, 100), (50, 200, 200), (100, 200, 200), (100, 300, 300),
)
DEFAULT_JACOBI_X: Tuple[int, ...] = (1, 2, 3, 4, 6, 8, 12, 16)


def jacobi_factors(t: int, i: int, j: int, grid: int = 4) -> Tuple[int, int]:
    """y, z for a ``grid x grid`` mesh; y even for P-integrality of H_nr."""
    y = _even_extent(2, t + i, grid)
    z = tile_count_extent(2, t + j, grid)
    return y, z


def jacobi_tile_size_sweep(t: int, i: int, j: int,
                           x_values: Sequence[int],
                           spec: ClusterSpec) -> List[ExperimentResult]:
    y, z = jacobi_factors(t, i, j)
    app = jacobi.app(t, i, j)
    out = []
    for x in x_values:
        out.append(run_experiment(app, jacobi.h_rectangular(x, y, z),
                                  f"rect-x{x}", spec))
        out.append(run_experiment(app, jacobi.h_nonrectangular(x, y, z),
                                  f"nonrect-x{x}", spec))
    return out


def fig8(t: int = 50, i: int = 100, j: int = 100,
         x_values: Sequence[int] = DEFAULT_JACOBI_X,
         spec: Optional[ClusterSpec] = None) -> FigureResult:
    """Jacobi: speedups for various tile sizes (Figure 8)."""
    spec = spec or FAST_ETHERNET_CLUSTER
    results = jacobi_tile_size_sweep(t, i, j, x_values, spec)
    rect = [r for r in results if r.tiling.startswith("rect")]
    nonr = [r for r in results if r.tiling.startswith("nonrect")]
    return FigureResult(
        figure="fig8",
        title=f"Jacobi speedups vs tile size (T={t}, I=J={i})",
        xlabel="x (tile extent along the mapping dimension)",
        series=(
            FigureSeries("rectangular", tuple(
                (x, r.speedup) for x, r in zip(x_values, rect))),
            FigureSeries("non-rectangular", tuple(
                (x, r.speedup) for x, r in zip(x_values, nonr))),
        ),
        details=tuple(results),
    )


def fig7(spaces: Sequence[Tuple[int, int, int]] = DEFAULT_JACOBI_SPACES,
         x_values: Sequence[int] = DEFAULT_JACOBI_X,
         spec: Optional[ClusterSpec] = None) -> FigureResult:
    """Jacobi: maximum speedups for different iteration spaces (Figure 7)."""
    spec = spec or FAST_ETHERNET_CLUSTER
    rect_pts, nonr_pts, details = [], [], []
    for t, i, j in spaces:
        results = jacobi_tile_size_sweep(t, i, j, x_values, spec)
        details.extend(results)
        label = f"{t}x{i}x{j}"
        rect_pts.append((label, max(
            r.speedup for r in results if r.tiling.startswith("rect"))))
        nonr_pts.append((label, max(
            r.speedup for r in results if r.tiling.startswith("nonrect"))))
    return FigureResult(
        figure="fig7",
        title="Jacobi maximum speedups for different iteration spaces",
        xlabel="iteration space (T x I x J)",
        series=(
            FigureSeries("rectangular", tuple(rect_pts)),
            FigureSeries("non-rectangular", tuple(nonr_pts)),
        ),
        details=tuple(details),
    )


# --------------------------------------------------------------------------
# ADI (figures 9 and 10) — no skew: t in [1,T], i,j in [1,N]; processors
# on dims (1,2); chain along dim 0; four tilings of equal volume.
# --------------------------------------------------------------------------

DEFAULT_ADI_SPACES: Tuple[Tuple[int, int], ...] = (
    (50, 128), (100, 128), (100, 256), (200, 256),
)
DEFAULT_ADI_X: Tuple[int, ...] = (1, 2, 3, 4, 6, 8, 12, 16)

ADI_TILINGS: Tuple[Tuple[str, Callable], ...] = (
    ("rect", adi.h_rectangular),
    ("nr1", adi.h_nr1),
    ("nr2", adi.h_nr2),
    ("nr3", adi.h_nr3),
)


def adi_factors(t: int, n: int, grid: int = 4) -> Tuple[int, int]:
    y = tile_count_extent(1, n, grid)
    z = tile_count_extent(1, n, grid)
    return y, z


def adi_tile_size_sweep(t: int, n: int,
                        x_values: Sequence[int],
                        spec: ClusterSpec) -> List[ExperimentResult]:
    y, z = adi_factors(t, n)
    app = adi.app(t, n)
    out = []
    for x in x_values:
        for label, hfun in ADI_TILINGS:
            out.append(run_experiment(app, hfun(x, y, z),
                                      f"{label}-x{x}", spec))
    return out


def fig10(t: int = 100, n: int = 256,
          x_values: Sequence[int] = DEFAULT_ADI_X,
          spec: Optional[ClusterSpec] = None) -> FigureResult:
    """ADI: speedups for various tile sizes (Figure 10)."""
    spec = spec or FAST_ETHERNET_CLUSTER
    results = adi_tile_size_sweep(t, n, x_values, spec)
    series = []
    for label, _ in ADI_TILINGS:
        pts = [r for r in results if r.tiling.startswith(label + "-")]
        series.append(FigureSeries(label, tuple(
            (x, r.speedup) for x, r in zip(x_values, pts))))
    return FigureResult(
        figure="fig10",
        title=f"ADI speedups vs tile size (T={t}, N={n})",
        xlabel="x (tile extent along the mapping dimension)",
        series=tuple(series),
        details=tuple(results),
    )


def fig9(spaces: Sequence[Tuple[int, int]] = DEFAULT_ADI_SPACES,
         x_values: Sequence[int] = DEFAULT_ADI_X,
         spec: Optional[ClusterSpec] = None) -> FigureResult:
    """ADI: maximum speedups for different iteration spaces (Figure 9)."""
    spec = spec or FAST_ETHERNET_CLUSTER
    per_label_pts: Dict[str, List[Tuple[str, float]]] = {
        label: [] for label, _ in ADI_TILINGS
    }
    details = []
    for t, n in spaces:
        results = adi_tile_size_sweep(t, n, x_values, spec)
        details.extend(results)
        space_label = f"{t}x{n}x{n}"
        for label, _ in ADI_TILINGS:
            best = max(r.speedup for r in results
                       if r.tiling.startswith(label + "-"))
            per_label_pts[label].append((space_label, best))
    return FigureResult(
        figure="fig9",
        title="ADI maximum speedups for different iteration spaces",
        xlabel="iteration space (T x N x N)",
        series=tuple(FigureSeries(label, tuple(per_label_pts[label]))
                     for label, _ in ADI_TILINGS),
        details=tuple(details),
    )
