"""The cost certificate: COST01-04 assembled, self-checked, JSON-able.

``certify_cost`` computes every closed-form quantity (per-edge volumes,
per-rank compute, lower bound), cross-checks each against an
independent path, reads the makespan and rank clocks from the
simulator (:meth:`DistributedRun.simulate`, the one clock of the
cluster model), and returns a :class:`CostCertificate` carrying the
numbers plus any diagnostics:

========  =========================================================
``COST01``  closed-form per-edge volume disagrees with the frozen
            plan replay (or an edge is missing/spurious)
``COST02``  informational: per-rank compute volumes / imbalance
``COST03``  the simulated schedule deadlocks under the analyzed
            protocol (the makespan is undefined)
``COST04``  tile shape exceeds the communication lower bound by more
            than the configured factor (warning), or the bound's
            AM-GM self-check fails (error)
========  =========================================================

``mutation=`` seeds one of :data:`MUTATIONS` into the computation —
the known-bad corpus proves every seeded miscomputation is caught by
one of the cross-checks above (same idiom as the ring model checker's
mutation corpus).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.cost.bound import communication_lower_bound
from repro.analysis.cost.volumes import edge_volumes, rank_volumes
from repro.analysis.diagnostics import ERROR, WARNING, Diagnostic
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import FAST_ETHERNET_CLUSTER, ClusterSpec
from repro.runtime.rankstep import build_rank_plans, edge_tally
from repro.runtime.vmpi import DeadlockError

PASS_COST = "cost"

#: Seeded miscomputations of the known-bad corpus.  Each one is a
#: classic cost-model bug; the certifier's built-in cross-checks must
#: reject every one of them with the named diagnostic.
MUTATIONS: Dict[str, str] = {
    "wrong_stride":
        "ignore the HNF strides when counting pack-region lattice "
        "points (COST01: closed form disagrees with the plan replay)",
    "off_by_one_halo":
        "size pack regions with cc_k - 1 instead of cc_k "
        "(COST01: every full-tile message is one slab too large)",
    "dropped_cc_edge":
        "forget the last processor dependence d^m entirely "
        "(COST01: the oracle sees edges the closed form lost)",
    "bad_lower_bound_constant":
        "double the lower-bound constant (COST04: the AM-GM "
        "self-check rejects a floor that exceeds the face sum)",
}


@dataclass(frozen=True)
class EdgeCost:
    """COST01: one directed channel's closed-form totals."""

    src_rank: int
    dst_rank: int
    tag: int
    messages: int
    elements: int
    nbytes: int


@dataclass(frozen=True)
class RankCost:
    """COST02: one rank's computation volume."""

    rank: int
    points: int
    compute_seconds: float


@dataclass(frozen=True)
class BoundCheck:
    """COST04: the lower-bound certification verdict."""

    applicable: bool
    bound_elements: float               # q_lb per interior tile, per array
    actual_elements: int                # interior tile comm, per array
    ratio: float                        # actual / bound (0 if n/a)
    factor: float                       # configured warning threshold
    worst_dim: int
    suggestion: str


@dataclass(frozen=True)
class CostCertificate:
    """Everything the static cost pass proved about one program."""

    protocol: str
    overlap: bool                       # spec.overlap (the model's)
    edges: Tuple[EdgeCost, ...]
    total_messages: int
    total_elements: int
    total_bytes: int
    ranks: Tuple[RankCost, ...]
    imbalance: float                    # max/mean rank points (1.0 = flat)
    makespan: float                     # inf if the schedule deadlocks
    rank_clocks: Tuple[float, ...]      # () if the schedule deadlocks
    bound: BoundCheck
    diagnostics: Tuple[Diagnostic, ...]

    @property
    def ok(self) -> bool:
        return not any(d.severity == ERROR for d in self.diagnostics)

    def channel_messages(self) -> Dict[Tuple[int, int, int], int]:
        """COST01 totals keyed like ``RunStats.channel_messages``."""
        return {(e.src_rank, e.dst_rank, e.tag): e.messages
                for e in self.edges}

    def channel_elements(self) -> Dict[Tuple[int, int, int], int]:
        return {(e.src_rank, e.dst_rank, e.tag): e.elements
                for e in self.edges}

    def to_dict(self) -> Dict[str, Any]:
        return {
            "pass": PASS_COST,
            "protocol": self.protocol,
            "overlap": self.overlap,
            "edges": [
                {"src": e.src_rank, "dst": e.dst_rank, "tag": e.tag,
                 "messages": e.messages, "elements": e.elements,
                 "bytes": e.nbytes}
                for e in self.edges
            ],
            "totals": {"messages": self.total_messages,
                       "elements": self.total_elements,
                       "bytes": self.total_bytes},
            "ranks": [
                {"rank": r.rank, "points": r.points,
                 "compute_seconds": r.compute_seconds}
                for r in self.ranks
            ],
            "imbalance": self.imbalance,
            "makespan": (None if self.makespan == float("inf")
                         else self.makespan),
            "rank_clocks": [None if c == float("inf") else c
                            for c in self.rank_clocks],
            "bound": {
                "applicable": self.bound.applicable,
                "bound_elements": self.bound.bound_elements,
                "actual_elements": self.bound.actual_elements,
                "ratio": self.bound.ratio,
                "factor": self.bound.factor,
                "worst_dim": self.bound.worst_dim,
                "suggestion": self.bound.suggestion,
            },
            "ok": self.ok,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }


def certify_cost(program: TiledProgram,
                 spec: Optional[ClusterSpec] = None,
                 protocol: str = "eager",
                 bound_factor: float = 2.0,
                 mutation: Optional[str] = None) -> CostCertificate:
    """Run the full cost analysis over one program."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; "
                         f"known: {sorted(MUTATIONS)}")
    if spec is None:
        spec = FAST_ETHERNET_CLUSTER
    diags: List[Diagnostic] = []

    # -- COST01: closed form vs the frozen plan replay -------------------------
    a_msgs, a_elems = edge_volumes(program, mutation=mutation)
    replayed = edge_tally(build_rank_plans(program))
    for chan in sorted(set(a_msgs) | set(replayed)):
        am, ae = a_msgs.get(chan, 0), a_elems.get(chan, 0)
        bm, be, _cap = replayed.get(chan, (0, 0, 0))
        if (am, ae) != (bm, be):
            diags.append(Diagnostic(
                code="COST01", severity=ERROR, pass_name=PASS_COST,
                message=(
                    f"closed-form edge volume disagrees with the plan "
                    f"replay on channel {chan}: analytic "
                    f"{am} msgs / {ae} elems, replay "
                    f"{bm} msgs / {be} elems"),
                equation=("pack region = {j' : j'_k >= d_k cc_k} "
                          "(§3.2 SEND)"),
                subject=(("channel", chan),
                         ("analytic", (am, ae)),
                         ("replay", (bm, be))),
                suggestion=("the closed-form lattice counting and the "
                            "region masks must agree; check strides, "
                            "cc and the D^m enumeration"),
            ))
    edges = tuple(
        EdgeCost(src_rank=chan[0], dst_rank=chan[1], tag=chan[2],
                 messages=a_msgs[chan], elements=a_elems[chan],
                 nbytes=a_elems[chan] * spec.bytes_per_element)
        for chan in sorted(a_msgs))
    total_messages = sum(e.messages for e in edges)
    total_elements = sum(e.elements for e in edges)

    # -- COST02: rank volumes and imbalance ------------------------------------
    points = rank_volumes(program)
    ranks = tuple(
        RankCost(rank=r, points=points[r],
                 compute_seconds=(spec.compute_time(points[r])
                                  * spec.node_speed_factor(r)))
        for r in sorted(points))
    mean_pts = (sum(points.values()) / len(points)) if points else 0.0
    imbalance = (max(points.values()) / mean_pts
                 if mean_pts > 0 else 1.0)

    # -- COST03: the simulated makespan ---------------------------------------
    try:
        stats = DistributedRun(program, spec).simulate(protocol)
        makespan = stats.makespan
        rank_clocks = tuple(stats.clocks[r] for r in sorted(stats.clocks))
    except DeadlockError as exc:
        makespan, rank_clocks = float("inf"), ()
        diags.append(Diagnostic(
            code="COST03", severity=ERROR, pass_name=PASS_COST,
            message=(
                f"the simulated schedule deadlocked under protocol "
                f"{protocol!r} (ranks {list(exc.ranks)} can never "
                f"progress); the makespan is undefined"),
            equation="discrete-event simulation (Hockney a+n/b)",
            subject=(("protocol", protocol),
                     ("stuck_ranks", exc.ranks)),
            suggestion=("run the HB certifier (repro analyze --hb) "
                        "for the wait cycle; the eager protocol "
                        "usually breaks it"),
        ))

    # -- COST04: lower-bound certification -------------------------------------
    lb = communication_lower_bound(program, mutation=mutation)
    ratio = (lb.actual_elements / lb.bound_elements
             if lb.applicable and lb.bound_elements > 0 else 0.0)
    suggestion = ""
    if lb.applicable and lb.worst_dim >= 0:
        suggestion = (
            f"dimension {lb.worst_dim} dominates the tile surface; "
            f"grow v_{lb.worst_dim} (and shrink the cheap dimensions "
            f"to keep the volume) toward balanced r_k/v_k")
    if not lb.selfcheck_ok:
        diags.append(Diagnostic(
            code="COST04", severity=ERROR, pass_name=PASS_COST,
            message=(
                f"lower-bound self-check failed: the computed floor "
                f"{lb.bound_elements:.6g} exceeds the face sum "
                f"{lb.face_sum:.6g} it is supposed to bound from "
                f"below (AM-GM violated)"),
            equation="|K| (prod face_k)^(1/|K|) <= sum face_k (AM-GM)",
            subject=(("bound", lb.bound_elements),
                     ("face_sum", lb.face_sum),
                     ("dims", lb.dims)),
            suggestion="the bound constant is miscomputed",
        ))
    elif lb.applicable and ratio > bound_factor:
        diags.append(Diagnostic(
            code="COST04", severity=WARNING, pass_name=PASS_COST,
            message=(
                f"tile shape moves {ratio:.2f}x the communication "
                f"lower bound ({lb.actual_elements} vs "
                f"{lb.bound_elements:.1f} elements per interior tile; "
                f"threshold {bound_factor:.2f}x); dimension "
                f"{lb.worst_dim} dominates"),
            equation=("Q >= |K| (prod_k r_k V / v_k)^(1/|K|) "
                      "(Dinh & Demmel)"),
            subject=(("ratio", ratio),
                     ("actual_elements", lb.actual_elements),
                     ("bound_elements", lb.bound_elements),
                     ("worst_dim", lb.worst_dim)),
            suggestion=suggestion,
        ))

    return CostCertificate(
        protocol=protocol,
        overlap=spec.overlap,
        edges=edges,
        total_messages=total_messages,
        total_elements=total_elements,
        total_bytes=total_elements * spec.bytes_per_element,
        ranks=ranks,
        imbalance=imbalance,
        makespan=makespan,
        rank_clocks=rank_clocks,
        bound=BoundCheck(
            applicable=lb.applicable,
            bound_elements=lb.bound_elements,
            actual_elements=lb.actual_elements,
            ratio=ratio,
            factor=bound_factor,
            worst_dim=lb.worst_dim,
            suggestion=suggestion,
        ),
        diagnostics=tuple(diags),
    )

