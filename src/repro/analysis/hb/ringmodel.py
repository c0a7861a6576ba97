"""Exhaustive model checking of the SPSC mailbox ring protocol.

Layer 2 of the HB certifier (HB03): an abstract two-thread model of
:class:`repro.runtime.parallel._Edge` — producer steps ``wait_space``
(``reserve``) / payload stores (the gather, one per array) / size store
/ ``head`` bump (``commit``); consumer steps ``wait_msg`` / size read /
payload read / ``tail`` bump (``release``) — explored exhaustively
over small bounded configurations (every ring depth 1-3, message
counts up to depth+2).

Exploration is a depth-first search with state memoization and a
persistent-set partial-order reduction: when the producer's and
consumer's next atomic steps touch disjoint shared locations (no
write/write or read/write overlap on ``head``, ``tail``, a ``sizes``
cell or a ``slots`` cell), only one interleaving is explored — the
standard independence argument makes the other order reach the same
state.  The state space is acyclic (program counters and counters are
monotone), where persistent-set selective search is sound for safety
properties (assertion violations and deadlocks are all found).

The safety properties are the ring discipline itself:

* publication-before-consumption — the consumer never reads a size or
  payload the producer has not finished writing (reads of stale or
  partially-written slots are violations);
* no slot reuse before ``consumed`` advances — the producer never
  overwrites a slot the consumer still holds;
* wraparound safety — slot indices ``head % depth`` stay coherent
  across ring wraps.

A corpus of known-bad mutations (commit barrier flipped, backpressure
dropped, release reordered before the payload read, wrap misindexing,
premature commit of a half-written reservation) must each be rejected
— ``python -m repro.analysis.hb.ringmodel --selftest`` checks the
faithful model verifies clean *and* every mutation is caught, and is
wired into CI.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.analysis.diagnostics import ERROR, Diagnostic

PASS_HB = "hb"

#: Shared-memory locations, as named tokens for the independence test.
Loc = Tuple[str, int]
#: One atomic step: (opcode, message number).
Step = Tuple[str, int]
#: Immutable model state:
#: (p_pc, c_pc, head, tail, sizes, slots, pending)
State = Tuple[int, int, int, int, Tuple[int, ...], Tuple[int, ...], int]

#: Known-bad mutations the checker must reject (name -> description).
MUTATIONS: Dict[str, str] = {
    "commit_before_payload": "head bump reordered before the payload "
                             "store (commit barrier flipped)",
    "commit_before_size": "head bump reordered before the size store",
    "no_backpressure": "producer skips the ring-full wait and reuses "
                       "a slot the consumer still holds",
    "early_release": "consumer releases the slot before reading the "
                     "payload (drain reordered)",
    "wrap_misindex": "producer writes slot (head+1) %% depth, breaking "
                     "wraparound coherence",
    "premature_commit": "commit publishes a half-written slot",
}

_PARTIAL = -10 ** 6         # sentinel token for a half-written payload

#: The one producer program of a message — the payload lands in two
#: partial writes (one gather per array), then size + head — and its
#: known-bad reorders, by mutation.
_PRODUCER: Dict[Optional[str], Tuple[str, ...]] = {
    None: ("wait_space", "write_part0", "write_part1", "write_size",
           "publish"),
    "commit_before_payload": ("wait_space", "publish", "write_part0",
                              "write_part1", "write_size"),
    "commit_before_size": ("wait_space", "write_part0", "write_part1",
                           "publish", "write_size"),
    "premature_commit": ("wait_space", "write_part0", "write_size",
                         "publish", "write_part1"),
    "no_backpressure": ("write_part0", "write_part1", "write_size",
                        "publish"),
}


@dataclass(frozen=True)
class RingConfig:
    """One bounded configuration of the two-thread ring model."""

    depth: int
    nmsgs: int
    mutation: Optional[str] = None


@dataclass
class ModelResult:
    """Outcome of exhaustively exploring one or more configurations."""

    ok: bool
    violations: List[str]
    states: int
    configs: int

    def merge(self, other: "ModelResult") -> None:
        self.ok = self.ok and other.ok
        self.violations.extend(other.violations)
        self.states += other.states
        self.configs += other.configs


def _producer_steps(cfg: RingConfig) -> List[Step]:
    """The producer's atomic-step program, msg by msg, with the
    configured mutation applied."""
    ops = _PRODUCER.get(cfg.mutation, _PRODUCER[None])
    return [(op, k) for k in range(1, cfg.nmsgs + 1) for op in ops]


def _consumer_steps(cfg: RingConfig) -> List[Step]:
    steps: List[Step] = []
    for k in range(1, cfg.nmsgs + 1):
        ops = ["wait_msg", "read_size", "read_payload", "release"]
        if cfg.mutation == "early_release":
            ops = ["wait_msg", "read_size", "release", "read_payload"]
        steps.extend((op, k) for op in ops)
    return steps


def _footprint(step: Step, state: State, cfg: RingConfig,
               producer: bool) -> Tuple[FrozenSet[Loc], FrozenSet[Loc]]:
    """(reads, writes) of one atomic step over the named locations."""
    op, _k = step
    _pp, _cp, head, tail, _sizes, _slots, _pending = state
    if producer:
        slot = head % cfg.depth
        if cfg.mutation == "wrap_misindex" and op.startswith("write_"):
            slot = (head + 1) % cfg.depth
        if op == "wait_space":
            return frozenset({("head", 0), ("tail", 0)}), frozenset()
        if op in ("write_part0", "write_part1"):
            return frozenset(), frozenset({("slots", slot)})
        if op == "write_size":
            return frozenset(), frozenset({("sizes", slot)})
        # publish
        return frozenset({("head", 0)}), frozenset({("head", 0)})
    slot = tail % cfg.depth
    if op == "wait_msg":
        return frozenset({("head", 0), ("tail", 0)}), frozenset()
    if op == "read_size":
        return frozenset({("sizes", slot)}), frozenset()
    if op == "read_payload":
        return frozenset({("slots", slot)}), frozenset()
    # release
    return frozenset({("tail", 0)}), frozenset({("tail", 0)})


def _independent(s1: Step, s2: Step, state: State,
                 cfg: RingConfig) -> bool:
    r1, w1 = _footprint(s1, state, cfg, producer=True)
    r2, w2 = _footprint(s2, state, cfg, producer=False)
    return not (w1 & (r2 | w2) or w2 & (r1 | w1))


def _enabled(step: Step, state: State, cfg: RingConfig,
             producer: bool) -> bool:
    op, _k = step
    _pp, _cp, head, tail, _sizes, _slots, _pending = state
    if producer and op == "wait_space":
        return head - tail < cfg.depth
    if not producer and op == "wait_msg":
        return head > tail
    return True


def _apply(step: Step, state: State, cfg: RingConfig,
           producer: bool) -> Tuple[State, Optional[str]]:
    """Execute one atomic step; returns (state', violation)."""
    op, k = step
    pp, cp, head, tail, sizes, slots, pending = state
    sizes_l = list(sizes)
    slots_l = list(slots)
    violation: Optional[str] = None
    if producer:
        slot = head % cfg.depth
        if cfg.mutation == "wrap_misindex" and op.startswith("write_"):
            slot = (head + 1) % cfg.depth
        if op == "write_part0":
            slots_l[slot] = _PARTIAL
        elif op == "write_part1":
            slots_l[slot] = k
        elif op == "write_size":
            sizes_l[slot] = k
        elif op == "publish":
            head += 1
        pp += 1
    else:
        slot = tail % cfg.depth
        if op == "read_size":
            if sizes_l[slot] != k:
                violation = (f"consumer read size {sizes_l[slot]} for "
                             f"message {k} (slot {slot}): size store "
                             f"not published before consumption")
        elif op == "read_payload":
            if slots_l[slot] != k:
                got = slots_l[slot]
                what = ("a half-written payload" if got == _PARTIAL
                        else f"payload of message {got}")
                violation = (f"consumer read {what} for message {k} "
                             f"(slot {slot}): slot reused or "
                             f"published before the payload store")
        elif op == "release":
            tail += 1
        cp += 1
    new = (pp, cp, head, tail, tuple(sizes_l), tuple(slots_l), pending)
    return new, violation


def explore(cfg: RingConfig, max_states: int = 200_000) -> ModelResult:
    """DFS over every reachable interleaving of one configuration,
    with state memoization and persistent-set reduction."""
    prod = _producer_steps(cfg)
    cons = _consumer_steps(cfg)
    init: State = (0, 0, 0, 0, (0,) * cfg.depth, (0,) * cfg.depth, 0)
    seen = set()
    violations: List[str] = []
    stack: List[State] = [init]
    states = 0
    while stack:
        state = stack.pop()
        if state in seen:
            continue
        seen.add(state)
        states += 1
        if states > max_states:
            violations.append(
                f"state-space bound exceeded on {cfg}")
            break
        pp, cp, *_rest = state
        p_step = prod[pp] if pp < len(prod) else None
        c_step = cons[cp] if cp < len(cons) else None
        p_ok = (p_step is not None
                and _enabled(p_step, state, cfg, producer=True))
        c_ok = (c_step is not None
                and _enabled(c_step, state, cfg, producer=False))
        if not p_ok and not c_ok:
            if p_step is not None or c_step is not None:
                violations.append(
                    f"deadlock in {cfg}: producer at "
                    f"{p_step}, consumer at {c_step}")
            continue
        branches: List[bool] = []          # True = producer moves
        if p_ok and c_ok:
            assert p_step is not None and c_step is not None
            if _independent(p_step, c_step, state, cfg):
                branches = [True]          # one order suffices
            else:
                branches = [True, False]
        elif p_ok:
            branches = [True]
        else:
            branches = [False]
        for producer in branches:
            step = p_step if producer else c_step
            assert step is not None
            new, violation = _apply(step, state, cfg, producer)
            if violation is not None:
                violations.append(f"{cfg}: {violation}")
                continue                   # do not explore past a bug
            stack.append(new)
    return ModelResult(ok=not violations, violations=violations,
                       states=states, configs=1)


def _configs(mutation: Optional[str],
             depths: Sequence[int] = (1, 2, 3),
             extra_msgs: int = 2) -> List[RingConfig]:
    """Every bounded configuration a mutation applies to."""
    return [RingConfig(depth=depth, nmsgs=nmsgs, mutation=mutation)
            for depth in depths
            # wrap_misindex needs a second slot to miss
            if not (mutation == "wrap_misindex" and depth < 2)
            for nmsgs in range(1, depth + extra_msgs + 1)]


def check_ring_model(mutation: Optional[str] = None) -> ModelResult:
    """Explore every bounded configuration of the (possibly mutated)
    ring protocol; ``ok`` means no interleaving violates the
    discipline."""
    if mutation is not None and mutation not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutation!r}; known: "
                         f"{sorted(MUTATIONS)}")
    total = ModelResult(ok=True, violations=[], states=0, configs=0)
    for cfg in _configs(mutation):
        total.merge(explore(cfg))
    return total


_FAITHFUL_CACHE: List[ModelResult] = []


def ring_diagnostics() -> List[Diagnostic]:
    """HB03 findings for the *faithful* protocol model (cached — the
    model is a property of the runtime code, not of any program)."""
    if not _FAITHFUL_CACHE:
        _FAITHFUL_CACHE.append(check_ring_model(None))
    res = _FAITHFUL_CACHE[0]
    if res.ok:
        return []
    return [Diagnostic(
        code="HB03", severity=ERROR, pass_name=PASS_HB,
        message=f"ring protocol model violates the SPSC discipline: "
                f"{res.violations[0]}"
                + (f" (+{len(res.violations) - 1} more)"
                   if len(res.violations) > 1 else ""),
        equation="payload/size stores precede the head bump; tail "
                 "advances only after the payload read",
        subject=(("violations", len(res.violations)),
                 ("states", res.states)),
        suggestion="the mailbox ring in runtime/parallel.py no longer "
                   "matches the verified store order",
    )]


def main(argv: Optional[List[str]] = None) -> int:
    """``python -m repro.analysis.hb.ringmodel --selftest``: verify
    the faithful model clean and every known-bad mutation rejected."""
    args = list(sys.argv[1:] if argv is None else argv)
    if args and args[0] != "--selftest":
        print(f"usage: ringmodel [--selftest]; got {args!r}",
              file=sys.stderr)
        return 2
    rc = 0
    clean = check_ring_model(None)
    status = "ok" if clean.ok else "VIOLATED"
    print(f"faithful ring protocol: {status} "
          f"({clean.configs} configs, {clean.states} states)")
    if not clean.ok:
        for v in clean.violations[:5]:
            print(f"  {v}")
        rc = 1
    for name in sorted(MUTATIONS):
        res = check_ring_model(name)
        caught = not res.ok
        print(f"mutation {name}: "
              f"{'rejected' if caught else 'NOT CAUGHT'} "
              f"({res.configs} configs, {res.states} states)")
        if not caught:
            rc = 1
    return rc


if __name__ == "__main__":
    sys.exit(main())
