"""The tile-shape autotuner: cost -> simulate -> measure ladder.

The paper fixes the processor grid and adjusts only the chain extent
"properly" (§3.1); :func:`repro.tiling.selector.sweep_best_extent`
automates that one-dimensional sweep.  This module searches the full
space of parallelepiped tile shapes — ``H`` matrices drawn from the
tiling cone (:mod:`repro.tuning.candidates`) — with a three-rung
pruning ladder:

1. **cost**: every candidate that compiles gets a cost certificate;
   its COST03 makespan (the timing-only simulation under
   ``config.protocol``) is the ranking score and its COST04 Dinh &
   Demmel communication ratio is the near-optimality signal.
   Candidates are costed balanced-first (a cheap closed-form
   face-balance proxy orders them), and the sweep **stops early**
   once the incumbent's communication is within ``stop_ratio`` of the
   shape-independent lower bound for its volume — past that point no
   shape refinement at that volume can win back more than the
   remaining factor, so the rest of the space is pruned unexplored
   (recorded in the trace, never silent).
2. **simulate**: only the best-ranked frontier (:func:`top_k_frontier`)
   is handed to the virtual cluster again; the baseline shape, when
   given, is always simulated too, so the winner beats-or-matches it
   by construction.
3. **measure** (optional): the top finalists run on the real parallel
   backend (``execute_parallel``) as the oracle.

Everything the search did lands in the :class:`TuneResult` trace —
per-candidate status (``costed``/``simulated``/``rejected:<reason>``/
``pruned:early-stop``), predicted/simulated/measured makespans, and
the early-stop verdict — so a tuning run is auditable after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.linalg.ratmat import RatMat
from repro.runtime.machine import ClusterSpec
from repro.tiling.ttis import TTIS
from repro.tuning.candidates import (
    CandidateSpace,
    ShapeCandidate,
    generate_candidates,
    hnf_key,
)

#: Bump on any change to the report schema or search semantics that
#: should invalidate stored tuning records.
TUNE_FORMAT_VERSION = 1

#: Default frontier fraction for shape search: simulate the best
#: eighth of the costed candidates (shape spaces are larger than the
#: extent sweeps, so the frontier is proportionally tighter).
SHAPE_FRONTIER_FRACTION = 8


@dataclass(frozen=True)
class TuneConfig:
    """Search-space and pruning knobs (all hashed into the tune key)."""

    extents: Tuple[int, ...] = (1, 2, 3, 4)
    include_combinations: bool = True
    max_directions: int = 8
    max_bases: int = 12
    max_volume_scale: int = 64
    max_candidates: int = 48
    top_k: Optional[int] = None         # None => costed // 8, min 1
    stop_ratio: float = 1.25            # COST04 early-stop threshold
    min_costed: int = 8                 # never stop before this many
    protocol: str = "spec"
    max_processors: Optional[int] = None  # None => max(spec.nodes, baseline)
    measure_top: int = 0                # finalists to run for real
    measure_workers: Optional[int] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "extents": list(self.extents),
            "include_combinations": self.include_combinations,
            "max_directions": self.max_directions,
            "max_bases": self.max_bases,
            "max_volume_scale": self.max_volume_scale,
            "max_candidates": self.max_candidates,
            "top_k": self.top_k,
            "stop_ratio": self.stop_ratio,
            "min_costed": self.min_costed,
            "protocol": self.protocol,
            "max_processors": self.max_processors,
            "measure_top": self.measure_top,
            "measure_workers": self.measure_workers,
        }


@dataclass
class CandidateTrace:
    """One search-trace row (everything the tuner knew and decided)."""

    order: int
    label: str
    status: str                          # costed/simulated/winner/...
    predicted_makespan: Optional[float] = None
    simulated_makespan: Optional[float] = None
    measured_seconds: Optional[float] = None
    bound_ratio: Optional[float] = None
    processors: Optional[int] = None
    tile_volume: Optional[int] = None
    chain_extent: Optional[int] = None   # TTIS box along the mapping dim
    reason: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        return {
            "order": self.order,
            "label": self.label,
            "status": self.status,
            "predicted_makespan": _finite(self.predicted_makespan),
            "simulated_makespan": _finite(self.simulated_makespan),
            "measured_seconds": _finite(self.measured_seconds),
            "bound_ratio": _finite(self.bound_ratio),
            "processors": self.processors,
            "tile_volume": self.tile_volume,
            "chain_extent": self.chain_extent,
            "reason": self.reason,
        }


@dataclass
class TuneResult:
    """The tuning verdict plus the full, auditable search trace."""

    winner: CandidateTrace
    winner_h: RatMat
    winner_rays: Tuple[Tuple[int, ...], ...]
    winner_scales: Tuple[int, ...]
    baseline: Optional[CandidateTrace]
    trace: List[CandidateTrace]
    space: CandidateSpace
    early_stop: bool
    early_stop_reason: Optional[str]
    simulator_evals: int
    candidate_count: int                 # costed candidates (sweep cost)
    config: TuneConfig
    spec: ClusterSpec
    nest_name: str
    mapping_dim: int
    speedup: Optional[float] = None
    t_seq: Optional[float] = None        # sequential time on the spec
    key: Optional[str] = None            # set by the record store

    def as_sweep_outcome(self) -> Any:
        """The winner rendered as a :class:`~repro.tiling.selector.
        SweepOutcome`, so everything written against the tile-*size*
        selection API (``sweep_best_extent`` consumers: examples,
        experiments, tests) can take the
        tile-*shape* tuner's verdict unchanged.  ``best_extent`` is the
        winner's TTIS box extent along the mapping dimension — exactly
        the quantity the paper's by-hand sweep varied — and the curve
        holds every simulated candidate's (chain extent, speedup).
        """
        from repro.tiling.selector import SweepOutcome

        curve = tuple(
            (t.chain_extent, (self.t_seq or 0.0) / t.simulated_makespan)
            for t in self.trace
            if t.simulated_makespan is not None
            and t.chain_extent is not None)
        return SweepOutcome(
            best_extent=int(self.winner.chain_extent or 0),
            best_makespan=float(self.winner.simulated_makespan or 0.0),
            best_speedup=float(self.speedup or 0.0),
            curve=curve,
        )

    def to_dict(self) -> Dict[str, Any]:
        counts = {
            "generated": self.space.generated,
            "deduplicated": self.space.deduplicated,
            "truncated": self.space.truncated,
            "candidates": len(self.space.candidates),
            "costed": self.candidate_count,
            "rejected": sum(
                1 for t in self.trace if t.status.startswith("rejected")),
            "pruned_after_stop": sum(
                1 for t in self.trace if t.status == "pruned:early-stop"),
            "simulated": sum(
                1 for t in self.trace
                if t.simulated_makespan is not None),
            "measured": sum(
                1 for t in self.trace if t.measured_seconds is not None),
            "simulator_evals": self.simulator_evals,
        }
        import dataclasses
        spec_doc = dataclasses.asdict(self.spec)
        if spec_doc.get("node_speed_factors") is not None:
            spec_doc["node_speed_factors"] = list(
                spec_doc["node_speed_factors"])
        return {
            "kind": "repro-tune-report",
            "format_version": TUNE_FORMAT_VERSION,
            "key": self.key,
            "nest": {"name": self.nest_name,
                     "mapping_dim": self.mapping_dim},
            "cluster": spec_doc,
            "config": self.config.to_dict(),
            "rays": [list(r) for r in self.space.rays],
            "counts": counts,
            "early_stop": {"fired": self.early_stop,
                           "reason": self.early_stop_reason,
                           "stop_ratio": self.config.stop_ratio},
            "baseline": (None if self.baseline is None
                         else self.baseline.to_dict()),
            "winner": {
                **self.winner.to_dict(),
                "h": _h_doc(self.winner_h),
                "rays": [list(r) for r in self.winner_rays],
                "scales": list(self.winner_scales),
                "speedup": _finite(self.speedup),
            },
            "trace": [t.to_dict() for t in self.trace],
        }


def _finite(x: Optional[float]) -> Optional[float]:
    if x is None or x != x or x in (float("inf"), float("-inf")):
        return None
    return x


def _h_doc(h: RatMat) -> List[List[List[int]]]:
    return [[[x.numerator, x.denominator] for x in row]
            for row in h.rows()]


def h_from_doc(doc: Sequence[Sequence[Sequence[int]]]) -> RatMat:
    """Rebuild a tiling matrix from its report serialization."""
    from fractions import Fraction
    return RatMat([[Fraction(num, den) for num, den in row]
                   for row in doc])


#: One costed candidate: (COST03 makespan, generation order, the
#: candidate, its program, its trace row).
Scored = Tuple[float, int, ShapeCandidate, Any, CandidateTrace]


def top_k_frontier(scored: Sequence[Scored], top_k: int) -> List[Scored]:
    """The ``top_k`` (at least one) best finite-makespan candidates,
    ties broken on the generation order, never on dict/hash order.
    Candidates that deadlock under the analyzed protocol (infinite
    makespan) never enter; if every one does, ``ValueError`` rather
    than a simulator that cannot finish."""
    finite = sorted((s for s in scored if s[0] != float("inf")),
                    key=lambda s: (s[0], s[1]))
    if not finite:
        raise ValueError(
            "every candidate deadlocks under the analyzed protocol "
            "(COST03); nothing is worth simulating")
    return finite[:max(1, int(top_k))]


def _balance_proxy(h: RatMat, deps: Sequence[Sequence[int]],
                   mapping_dim: int) -> Tuple[float, int]:
    """Cheap pre-costing order: AM/GM imbalance of the comm faces.

    Mirrors the COST04 geometry (face ``k`` moves ``r_k * vol / v_k``
    elements) without compiling a program; 1.0 means perfectly
    balanced faces — the communication-optimal aspect ratio — so
    sorting ascending costs the likely-near-optimal shapes first and
    lets the lower-bound early stop fire sooner.
    """
    ttis = TTIS(h)
    dp = ttis.transformed_dependences(deps)
    vol = float(ttis.tile_volume)
    faces = []
    for k in range(ttis.n):
        if k == mapping_dim:
            continue
        r_k = max((d[k] for d in dp), default=0)
        if r_k > 0:
            faces.append(r_k * vol / ttis.v[k])
    if not faces or vol <= 0:
        return (float("inf"), ttis.tile_volume)
    gm = 1.0
    for f in faces:
        gm *= f
    gm **= 1.0 / len(faces)
    return (sum(faces) / (len(faces) * gm), ttis.tile_volume)


def tune_tile_shape(
    nest: Any,
    mapping_dim: int,
    spec: Optional[ClusterSpec] = None,
    config: Optional[TuneConfig] = None,
    baseline_h: Optional[RatMat] = None,
    init_value: Optional[Callable[..., float]] = None,
    candidates: Optional[Sequence[ShapeCandidate]] = None,
) -> TuneResult:
    """Search the tiling cone for the best tile shape.

    ``baseline_h`` (e.g. the paper's default rectangle) is always
    costed and simulated; if it is the best shape found, it wins — the
    tuner never regresses below the shape it was given.  ``candidates``
    overrides generation (tests inject known-bad shapes this way).
    Returns a :class:`TuneResult`; persistence lives in
    :mod:`repro.tuning.records`.
    """
    from repro.runtime.executor import DistributedRun, TiledProgram

    if spec is None:
        spec = ClusterSpec()
    if config is None:
        config = TuneConfig()
    deps = nest.dependences

    if candidates is None:
        space = generate_candidates(
            deps,
            extents=config.extents,
            include_combinations=config.include_combinations,
            max_directions=config.max_directions,
            max_bases=config.max_bases,
            max_volume_scale=config.max_volume_scale,
            max_candidates=config.max_candidates,
        )
    else:
        space = CandidateSpace(candidates=tuple(candidates), rays=(),
                               generated=len(candidates),
                               deduplicated=0, truncated=0)
    pool = list(space.candidates)

    # -- baseline: always evaluated, merged into the pool by key -------------
    baseline_trace: Optional[CandidateTrace] = None
    baseline_cand: Optional[ShapeCandidate] = None
    baseline_procs = 0
    if baseline_h is not None:
        bkey = hnf_key(baseline_h)
        merged = next((c for c in pool if c.key == bkey), None)
        if merged is not None:
            baseline_cand = merged
        else:
            baseline_cand = ShapeCandidate(
                h=baseline_h, rays=(), scales=(), key=bkey,
                order=len(pool))
            pool.append(baseline_cand)

    # -- cheap pre-order: balanced shapes first ------------------------------
    def sort_key(c: ShapeCandidate) -> Tuple[float, int, int]:
        try:
            proxy, vol = _balance_proxy(c.h, deps, mapping_dim)
        except (ValueError, ZeroDivisionError):
            proxy, vol = float("inf"), 0
        return (proxy, vol, c.order)

    pool.sort(key=sort_key)

    # -- rung 1: static costing with lower-bound early stop ------------------
    trace: List[CandidateTrace] = []
    scored: List[Scored] = []
    by_key: Dict[Any, CandidateTrace] = {}
    costed = 0

    def cost_one(cand: ShapeCandidate, cap: Optional[int]
                 ) -> Optional[Any]:
        """Compile + cost ``cand``; fills its trace entry.  Returns the
        program on success, ``None`` on a recorded rejection."""
        nonlocal costed
        label = cand.label if cand is not baseline_cand else (
            cand.label or "baseline")
        entry = CandidateTrace(order=cand.order, label=label,
                               status="pending")
        trace.append(entry)
        by_key[cand.key] = entry
        try:
            prog = TiledProgram(nest, cand.h, mapping_dim=mapping_dim)
        except (ValueError, AssertionError) as exc:
            # Legal-but-uncompilable shapes (stride c_k not dividing
            # v_k, a dependence outrunning the tile, a skew breaking
            # chain convexity) are search results, not crashes.
            entry.status = "rejected:compile"
            entry.reason = str(exc)
            return None
        entry.processors = prog.num_processors
        entry.tile_volume = prog.tiling.ttis.tile_volume
        entry.chain_extent = prog.tiling.ttis.v[mapping_dim]
        if cap is not None and prog.num_processors > cap:
            entry.status = "rejected:processors"
            entry.reason = (f"{prog.num_processors} ranks exceed the "
                            f"cap of {cap}")
            return None
        cert = prog.cost_certificate(protocol=config.protocol, spec=spec)
        costed += 1
        entry.status = "costed"
        entry.predicted_makespan = cert.makespan
        entry.bound_ratio = (cert.bound.ratio
                             if cert.bound.applicable else None)
        scored.append((cert.makespan, cand.order, cand, prog, entry))
        return prog

    # The baseline is evaluated FIRST (uncapped): its processor count
    # sets the fairness cap for everything else, and it can never be
    # pruned by the early stop.
    if baseline_cand is not None:
        bprog = cost_one(baseline_cand, cap=None)
        if bprog is not None:
            baseline_procs = bprog.num_processors
    cap = config.max_processors
    if cap is None:
        cap = max(spec.nodes, baseline_procs)

    early_stop = False
    early_stop_reason: Optional[str] = None
    best: Optional[Tuple[float, float]] = None   # (makespan, bound ratio)
    searched = [c for c in pool if c is not baseline_cand]
    for idx, cand in enumerate(searched):
        cost_one(cand, cap=cap)
        entry = by_key[cand.key]
        if (entry.status == "costed"
                and entry.predicted_makespan != float("inf")
                and (best is None
                     or entry.predicted_makespan < best[0])):
            best = (entry.predicted_makespan, entry.bound_ratio or 0.0)
        # Early stop: the incumbent's communication is certified within
        # stop_ratio of the Dinh & Demmel floor for its volume — no
        # shape refinement at that volume can win back more than the
        # remaining factor, so the tail of the space is pruned.
        if (best is not None and costed >= config.min_costed
                and 0 < best[1] <= config.stop_ratio):
            remaining = searched[idx + 1:]
            for rest in remaining:
                trace.append(CandidateTrace(
                    order=rest.order, label=rest.label,
                    status="pruned:early-stop"))
            early_stop = True
            early_stop_reason = (
                f"best candidate moves {best[1]:.3f}x its "
                f"communication lower bound (<= stop_ratio "
                f"{config.stop_ratio}); {len(remaining)} candidate(s) "
                f"pruned unexplored")
            break

    if not scored:
        raise ValueError(
            "no tile-shape candidate compiled; the dependence set may "
            "need larger extents (every candidate was rejected)")

    # -- rung 2: simulate the frontier (+ the baseline) ---------------------
    top_k = config.top_k
    if top_k is None:
        top_k = max(1, len(scored) // SHAPE_FRONTIER_FRACTION)
    frontier = top_k_frontier(scored, top_k)
    if baseline_cand is not None:
        in_frontier = any(r[2] is baseline_cand for r in frontier)
        if not in_frontier:
            extra = next((r for r in scored
                          if r[2] is baseline_cand
                          and r[0] != float("inf")), None)
            if extra is not None:
                frontier = list(frontier) + [extra]

    simulated: List[Tuple[float, int, ShapeCandidate, Any,
                          CandidateTrace]] = []
    for _score, _order, cand, prog, entry in frontier:
        stats = DistributedRun(prog, spec).simulate()
        entry.status = "simulated"
        entry.simulated_makespan = stats.makespan
        simulated.append((stats.makespan, cand.order, cand, prog, entry))
    simulated.sort(key=lambda s: (s[0], s[1]))

    # -- rung 3: optionally measure the finalists for real -------------------
    measured = 0
    if config.measure_top > 0 and init_value is not None:
        import os
        for mk, _order, cand, prog, entry in simulated:
            if measured >= config.measure_top:
                break
            workers = config.measure_workers or min(
                prog.num_processors, os.cpu_count() or 1)
            import time as _time
            t0 = _time.perf_counter()
            try:
                DistributedRun(prog, spec).execute_parallel(
                    init_value, workers=workers,
                    protocol=config.protocol)
            except Exception as exc:           # noqa: BLE001 - oracle only
                entry.reason = f"measurement failed: {exc}"
                continue
            entry.measured_seconds = _time.perf_counter() - t0
            measured += 1

    win_mk, _worder, win_cand, win_prog, win_entry = simulated[0]
    win_entry.status = "winner"
    if baseline_cand is not None:
        baseline_trace = by_key[baseline_cand.key]
    t_seq = spec.compute_time(win_prog.total_points())
    trace.sort(key=lambda t: t.order)
    return TuneResult(
        winner=win_entry,
        winner_h=win_cand.h,
        winner_rays=win_cand.rays,
        winner_scales=win_cand.scales,
        baseline=baseline_trace,
        trace=trace,
        space=space,
        early_stop=early_stop,
        early_stop_reason=early_stop_reason,
        simulator_evals=len(frontier),
        candidate_count=costed,
        config=config,
        spec=spec,
        nest_name=getattr(nest, "name", "nest"),
        mapping_dim=mapping_dim,
        speedup=(t_seq / win_mk if win_mk > 0 else None),
        t_seq=t_seq,
    )
