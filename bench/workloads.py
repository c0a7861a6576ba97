"""The eight workloads: inputs, timed bodies and their checks.

Every workload has the same shape, driven by ``worker.py``:

``setup(env, ops)``  build inputs, oracle and whatever the body needs warm
``timed(clock)``     one pass of the timed body, its segments on ``clock``
``verify(ops)``      check that pass's outputs (outside the timed region)
``counts()``         exact, run-to-run identical counts
``replay_plan()``    programs and optional stage groups the traced run replays

Problem sizes are fixed (ISSUE 11); only the number of passes follows
``--seconds``.  All caches are fresh directories under ``env.root`` passed
explicitly as ``cache=`` — never ``$REPRO_CACHE_DIR`` or the per-user
default, which would turn a cold native build into a hit.
"""

from __future__ import annotations

import os
import random
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

import oracle

from repro.analysis import analyze, analyze_program, transval_report
from repro.apps import adi, jacobi, sor
from repro.artifacts import ARTIFACT_SUFFIX, ArtifactCache
from repro.native.engine import build_native_library
from repro.runtime import ClusterSpec, DistributedRun
from repro.runtime.machine import FAST_ETHERNET_CLUSTER
from repro.tuning import TuneConfig, tune_tile_shape

APPS = {"sor": sor, "jacobi": jacobi, "adi": adi}
_ns = time.perf_counter_ns


@dataclass
class Ops:
    """Operation ledger: an operation fails on exception, oracle
    mismatch, wrong count, wrong verdict or wrong hit/miss status."""

    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)

    def record(self, what: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{what}: {detail}" if detail else what)


def _calibration_loop() -> int:
    # Fixed for the life of the benchmark: changing it rescales body_cal.
    s = 0
    for i in range(300_000):
        s += i * i
    return s


def _best_loop_s() -> float:
    best = float("inf")
    for _ in range(3):
        t0 = _ns()
        _calibration_loop()
        best = min(best, (_ns() - t0) / 1e9)
    return best


def calibrate(procs: int = 1) -> float:
    """Seconds the fixed interpreter-bound loop takes right now (best of
    three, ~40 ms in all) on ``procs`` cores at once: the host's speed at
    this moment for a body that keeps that many cores busy.  With two, a
    forked child runs the loop beside this process and the slower of the
    two counts, as it does for a two-worker run."""
    if procs == 1:
        return _best_loop_s()
    rd, wr = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.write(wr, repr(_best_loop_s()).encode())
        finally:
            os._exit(0)
    os.close(wr)
    try:
        mine = _best_loop_s()
        other = float(os.read(rd, 64).decode())
    finally:
        os.close(rd)
        os.waitpid(pid, 0)
    return max(mine, other)


class Clock:
    """Times the segments of one pass in seconds and in calibration units.

    The sandbox's CPU speed flips between two modes about 25 % apart that
    last seconds to tens of seconds, so a run's median in plain seconds
    moves by up to 19 % from run to run however many passes it holds
    (``bench/SPREAD.json``).  Every segment is therefore also divided by
    the mean of the calibration loop taken just before and just after it;
    the sum of those quotients (``cal``) is the bounded ``body_cal``, next
    to the plain seconds (``raw_s``).  ``procs=0`` (the profiled pass)
    skips the loop so it does not show up in the profile.
    """

    def __init__(self, procs: int) -> None:
        self._procs = procs
        self._before = calibrate(procs) if procs else 1.0
        self.raw_s = 0.0
        self.cal = 0.0

    @contextmanager
    def segment(self) -> Iterator[None]:
        t0 = _ns()
        yield
        dt = (_ns() - t0) / 1e9
        after = calibrate(self._procs) if self._procs else 1.0
        self.raw_s += dt
        self.cal += dt / ((self._before + after) / 2.0)
        self._before = after


@dataclass
class Env:
    """Per-process inputs derived from ``--seed`` and the scratch root."""

    seed: int
    root: str
    rng: random.Random = field(init=False)
    offset: float = field(init=False)

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)
        # Small enough that ADI's B stays bounded away from zero.
        self.offset = self.rng.uniform(0.0, 0.125)

    def fresh_dir(self, prefix: str) -> str:
        return tempfile.mkdtemp(prefix=prefix, dir=self.root)

    def shifted(self, init: Callable[..., float]) -> Callable[..., float]:
        off = self.offset
        return lambda array, cell: init(array, cell) + off


@dataclass(frozen=True)
class Request:
    """One compile request: an app instance under one tiling."""

    rid: str
    app_name: str
    sizes: Tuple[int, ...]
    shape: str
    tile: Tuple[int, int, int]
    unskewed: bool = False      # known-bad: tile the original nest

    def build(self) -> Tuple[Any, Any, int]:
        """``(nest, h, mapping_dim)`` — fresh objects every call."""
        mod = APPS[self.app_name]
        app = mod.app(*self.sizes)
        h = getattr(mod, "h_" + self.shape)(*self.tile)
        nest = mod.original_nest(*self.sizes) if self.unskewed else app.nest
        return nest, h, app.mapping_dim


def _dir_bytes(root: str, suffix: str) -> int:
    return sum(os.path.getsize(os.path.join(root, f))
               for f in sorted(os.listdir(root)) if f.endswith(suffix))


def _program_counts(progs: Sequence[Any]) -> Dict[str, float]:
    return {
        "tiling.tiles": sum(len(p.dist.tiles) for p in progs),
        "distribution.processors": sum(p.num_processors for p in progs),
        # == memory_report(p).total_lds, without its per-tile point sweep
        "distribution.lds_cells": sum(
            p.addressing.lds_for(pid).cells * len(p.arrays)
            for p in progs for pid in p.pids),
        "runtime.points": sum(p.total_points() for p in progs),
    }


def _cache_counts(cache: ArtifactCache, libs: Optional[Sequence[Any]],
                  since: Optional[Dict[str, int]] = None
                  ) -> Dict[str, float]:
    """Artifact counts, lookups counted from the ``cache.stats()``
    snapshot ``since`` (default: all of them); native-build sizes where
    the workload has a native side (``libs`` given, possibly empty)."""
    st = cache.stats()
    hits = st["hits"] - (since["hits"] if since else 0)
    misses = st["misses"] - (since["misses"] if since else 0)
    out = {
        "artifacts.bytes": _dir_bytes(cache.root, ARTIFACT_SUFFIX),
        "artifacts.hits": hits,
        "artifacts.misses": misses,
        "artifacts.hit_ratio": (hits / (hits + misses)
                                if hits + misses else 0.0),
    }
    if libs is not None:
        out["native.source_bytes"] = sum(len(lib.source) for lib in libs)
        out["native.so_bytes"] = sum(os.path.getsize(lib.so_path)
                                     for lib in libs)
    return out


class Workload:
    """Defaults shared by the workloads below."""

    name: str
    #: timed passes per run, at least; more while ``--seconds`` last
    min_samples = 5
    #: cores the body keeps busy; the calibration loop runs on as many
    procs = 1
    #: the C reference solution, on workloads that execute a program
    ref: Optional[oracle.Reference] = None

    def timed(self, clock: Clock) -> None:
        raise NotImplementedError

    def verify(self, ops: Ops) -> None:
        raise NotImplementedError

    def warmup(self, ops: Ops) -> None:
        """One untimed pass of the body; its duration counts as set-up."""
        self.timed(Clock(0))
        self.verify(ops)

    def derived(self, body_s: float) -> Dict[str, float]:
        """The ISSUE's per-unit names for this body, for the report."""
        return {}

    def par_stats(self) -> Optional[Any]:
        """Measured ``RunStats`` of the last pass, parallel engines only."""
        return None


class RunWorkload(Workload):
    """One program executed end to end and checked against the C loop."""

    def __init__(self, name: str, request: Request, engine: str) -> None:
        assert engine in ("native", "numpy", "parallel", "overlap")
        self.name = name
        self.request = request
        self.engine = engine
        # Never more workers than the host has cores.
        self.workers = min(2, os.cpu_count() or 1)
        if engine in ("parallel", "overlap"):
            self.procs = self.workers

    def setup(self, env: Env, ops: Ops) -> None:
        req = self.request
        nest, h, mdim = req.build()
        self.init = env.shifted(APPS[req.app_name].init_value)
        lib = oracle.build(env.fresh_dir("ref-"))
        self.ref = oracle.solve(lib, req.app_name, req.sizes, self.init)
        self.cache = ArtifactCache(env.fresh_dir("cache-"))
        self.prog, status = self.cache.get_or_compile(nest, h, mdim)
        ops.record("cold compile", status == "miss", f"status {status}")
        self.lib = None
        if self.engine != "numpy":
            self.lib = build_native_library(self.prog, cache=self.cache)
            ops.record("native build",
                       self.lib.status == "miss" and self.lib.available,
                       f"{self.lib.status}: {self.lib.fallback_reason}")
        self.run = DistributedRun(self.prog, ClusterSpec())
        self.sim = self.run.simulate()
        self.last: Optional[Tuple[Any, Any]] = None

    def _execute(self, workers: int) -> Tuple[Any, Any]:
        if self.engine in ("native", "numpy"):
            return self.run.execute_dense(self.init, native=self.lib)
        return self.run.execute_parallel(
            self.init, workers=workers, protocol="spec", native=self.lib,
            overlap=self.engine == "overlap")

    def timed(self, clock: Clock) -> None:
        with clock.segment():
            self.last = self._execute(self.workers)

    def timed_one_worker(self) -> float:
        t0 = _ns()
        self.last = self._execute(1)
        return (_ns() - t0) / 1e9

    def verify(self, ops: Ops) -> None:
        assert self.last is not None and self.ref is not None
        fields, stats = self.last
        err = oracle.max_abs_err(fields, self.ref)
        totals = (stats.total_messages, stats.total_elements)
        want = (self.sim.total_messages, self.sim.total_elements)
        ops.record(f"{self.name} run", err == 0.0 and totals == want,
                   f"max_abs_err {err}, messages/elements {totals} "
                   f"vs simulate {want}")

    def derived(self, body_s: float) -> Dict[str, float]:
        return {"ns_per_point": body_s / self.prog.total_points() * 1e9}

    def counts(self) -> Dict[str, float]:
        out = _program_counts([self.prog])
        out.update(_cache_counts(self.cache, [self.lib] if self.lib else []))
        if self.engine in ("parallel", "overlap"):
            out["runtime.par.messages"] = self.sim.total_messages
            out["runtime.par.elements"] = self.sim.total_elements
            out["runtime.par.edges"] = len(self.sim.channel_messages)
        return out

    def par_stats(self) -> Optional[Any]:
        if self.engine in ("parallel", "overlap") and self.last:
            return self.last[1]
        return None

    def replay_plan(self) -> Tuple[List[Request], Tuple[str, ...]]:
        groups = ("artifacts", "simulate")
        if self.engine != "numpy":
            groups += ("native",)
        return [self.request], groups


GOOD_REQUESTS = (
    Request("sor-rect", "sor", (100, 200), "rectangular", (26, 76, 8)),
    Request("sor-nonrect", "sor", (100, 200), "nonrectangular", (26, 76, 8)),
    Request("jacobi-rect", "jacobi", (100, 200, 200), "rectangular",
            (10, 40, 40)),
    Request("jacobi-nonrect", "jacobi", (100, 200, 200), "nonrectangular",
            (10, 40, 40)),
    Request("adi-rect", "adi", (200, 256), "rectangular", (20, 64, 64)),
    Request("adi-nr1", "adi", (200, 256), "nr1", (20, 64, 64)),
    Request("adi-nr3", "adi", (200, 256), "nr3", (20, 64, 64)),
)
BAD_REQUESTS = (
    Request("sor-unskewed", "sor", (8, 12), "rectangular", (2, 3, 3), True),
    Request("jacobi-unskewed", "jacobi", (3, 6, 6), "rectangular",
            (2, 3, 3), True),
)
WARM_ROUNDS = 40

# Seconds-sized requests that walk the same code once before timing, so
# the first timed pass does not pay for lazy imports and regex compiles.
WARMUP_REQUESTS = (
    Request("warm-sor", "sor", (10, 20), "nonrectangular", (2, 3, 4)),
    Request("warm-jacobi", "jacobi", (6, 12, 12), "rectangular", (2, 4, 4)),
    Request("warm-adi", "adi", (8, 16), "nr3", (2, 4, 4)),
)


class RequestWorkload(Workload):
    """Shared by the three compile-side workloads: the request set, a
    per-pass result list and the counts of the last pass's programs."""

    def setup(self, env: Env, ops: Ops) -> None:
        self.env = env
        self.built = {r.rid: r.build() for r in
                      GOOD_REQUESTS + BAD_REQUESTS + WARMUP_REQUESTS}
        self.results: List[Tuple[str, bool, str]] = []
        self.progs: List[Any] = []
        self.libs: List[Any] = []

    def _compile(self, cache: ArtifactCache, req: Request, want: str,
                 native: bool) -> Any:
        """``get_or_compile`` (+ native build) with its status checked."""
        prog, status = cache.get_or_compile(*self.built[req.rid])
        self.results.append((f"compile {req.rid}", status == want,
                             f"status {status}, expected {want}"))
        if native:
            lib = build_native_library(prog, cache=cache)
            self.results.append((
                f"native {req.rid}", lib.status == want and lib.available,
                f"{lib.status}: {lib.fallback_reason}"))
            self.libs.append(lib)
        return prog

    def verify(self, ops: Ops) -> None:
        for what, ok, detail in self.results:
            ops.record(what, ok, detail)

    def counts(self) -> Dict[str, float]:
        """Of the last pass alone, so that they do not depend on how many
        passes fitted into ``--seconds``."""
        out = _program_counts(self.progs)
        out.update(_cache_counts(self.cache, self.libs or None, self.since))
        return out


class CompileCold(RequestWorkload):
    """Seven cold compiles + native builds into a fresh cache directory."""

    name = "compile_cold"

    def warmup(self, ops: Ops) -> None:
        self._pass(Clock(0), WARMUP_REQUESTS)
        self.verify(ops)

    def timed(self, clock: Clock) -> None:
        order = list(GOOD_REQUESTS)
        self.env.rng.shuffle(order)
        self._pass(clock, order)

    def _pass(self, clock: Clock, order: Sequence[Request]) -> None:
        self.cache = ArtifactCache(self.env.fresh_dir("cache-"))
        self.since = self.cache.stats()
        self.results, self.progs, self.libs = [], [], []
        for req in order:
            with clock.segment():
                prog = self._compile(self.cache, req, "miss", native=True)
            self.progs.append(prog)

    def replay_plan(self) -> Tuple[List[Request], Tuple[str, ...]]:
        return list(GOOD_REQUESTS), ("artifacts", "native")


class Certify(RequestWorkload):
    """Time to verdict of nine requests: seven good programs, loaded
    afresh from a warm cache before every pass (a second analysis of the
    same object would find its certificates memoised), and two known-bad
    nests."""

    name = "certify"
    min_samples = 2     # 11 s a pass, nine calibrated segments each

    def setup(self, env: Env, ops: Ops) -> None:
        super().setup(env, ops)
        self.cache = ArtifactCache(env.fresh_dir("cache-"))
        for req in GOOD_REQUESTS + WARMUP_REQUESTS:
            self._compile(self.cache, req, "miss", native=False)
        self.verify(ops)

    def warmup(self, ops: Ops) -> None:
        self._pass(Clock(0), WARMUP_REQUESTS + BAD_REQUESTS)
        self.verify(ops)

    def timed(self, clock: Clock) -> None:
        order = list(GOOD_REQUESTS + BAD_REQUESTS)
        self.env.rng.shuffle(order)
        self._pass(clock, order)

    def _pass(self, clock: Clock, order: Sequence[Request]) -> None:
        self.since = self.cache.stats()
        self.results, self.progs, self.reports = [], [], []
        for req in order:
            nest, h, mdim = self.built[req.rid]
            if req.unskewed:
                with clock.segment():
                    rep = analyze(nest, h, mapping_dim=mdim)
                codes = {d.code for d in rep.errors}
                self.results.append((f"verdict {req.rid}",
                                     codes == {"LEG01"}, f"codes {codes}"))
                continue
            prog = self._compile(self.cache, req, "hit", native=False)
            with clock.segment():
                rep = analyze_program(prog, hb=True, cost=True, overlap=True)
                tv = transval_report(nest, h, mapping_dim=mdim)
            self.results.append((
                f"verdict {req.rid}", rep.ok and tv.ok,
                f"errors {[d.code for d in rep.errors + tv.errors]}"))
            self.progs.append(prog)
            self.reports.append((rep, tv))

    def counts(self) -> Dict[str, float]:
        out = super().counts()
        out["analysis.diagnostics"] = sum(
            len(rep.diagnostics) + len(tv.diagnostics)
            for rep, tv in self.reports)
        return out

    def replay_plan(self) -> Tuple[List[Request], Tuple[str, ...]]:
        return list(GOOD_REQUESTS), ("analysis", "cost", "codegen",
                                     "simulate")


class CompileWarm(RequestWorkload):
    """280 shuffled warm ``get_or_compile`` hits over the seven keys."""

    name = "compile_warm"

    def setup(self, env: Env, ops: Ops) -> None:
        super().setup(env, ops)
        self.cache = ArtifactCache(env.fresh_dir("cache-"))
        for req in GOOD_REQUESTS:
            self._compile(self.cache, req, "miss", native=False)
        self.verify(ops)

    def timed(self, clock: Clock) -> None:
        rng = self.env.rng
        hits = [req for _ in range(WARM_ROUNDS)
                for req in rng.sample(GOOD_REQUESTS, len(GOOD_REQUESTS))]
        self.since = self.cache.stats()
        self.results = []
        latest: Dict[str, Any] = {}
        with clock.segment():
            for req in hits:
                latest[req.rid] = self._compile(self.cache, req, "hit",
                                                native=False)
        self.progs = list(latest.values())

    def derived(self, body_s: float) -> Dict[str, float]:
        return {"warm_load_s": body_s / (WARM_ROUNDS * len(GOOD_REQUESTS))}

    def replay_plan(self) -> Tuple[List[Request], Tuple[str, ...]]:
        return list(GOOD_REQUESTS), ("artifacts",)


# (request giving nest + baseline rectangle, TuneConfig): the three
# EXPERIMENTS.md tuner rows, a larger ADI, and one exhaustive SOR search.
TUNE_SEARCHES = (
    (Request("tune-sor", "sor", (16, 24), "rectangular", (4, 5, 5)),
     TuneConfig(extents=(2, 3, 4, 5, 6, 8), max_volume_scale=512)),
    (Request("tune-jacobi", "jacobi", (10, 16, 16), "rectangular",
             (3, 4, 4)), TuneConfig()),
    (Request("tune-adi", "adi", (12, 16), "rectangular", (3, 4, 4)),
     TuneConfig()),
    (Request("tune-adi-large", "adi", (24, 32), "rectangular", (6, 8, 8)),
     TuneConfig(extents=(2, 4, 6, 8), max_volume_scale=512)),
    (Request("tune-sor-exhaustive", "sor", (8, 12), "rectangular",
             (2, 3, 4)), TuneConfig(stop_ratio=0.0, top_k=10 ** 6)),
)


class TuneLadder(Workload):
    """Five cold tile-shape searches, no record store."""

    name = "tune_ladder"
    min_samples = 3     # 4 s a pass, five calibrated segments each

    def setup(self, env: Env, ops: Ops) -> None:
        self.env = env
        self.built = {req.rid: req.build() for req, _ in TUNE_SEARCHES}
        self.results: List[Any] = []

    def warmup(self, ops: Ops) -> None:
        # The exhaustive search alone walks every rung of the ladder.
        self._searches(Clock(0), TUNE_SEARCHES[-1:])
        self.verify(ops)

    def timed(self, clock: Clock) -> None:
        order = list(TUNE_SEARCHES)
        self.env.rng.shuffle(order)
        self._searches(clock, order)

    def _searches(self, clock: Clock, order: Sequence[Any]) -> None:
        self.results = []
        for req, cfg in order:
            nest, h, mdim = self.built[req.rid]
            with clock.segment():
                res = tune_tile_shape(nest, mdim, spec=FAST_ETHERNET_CLUSTER,
                                      config=cfg, baseline_h=h)
            self.results.append((req.rid, res))

    def verify(self, ops: Ops) -> None:
        for rid, res in self.results:
            base = res.baseline.simulated_makespan
            won = res.winner.simulated_makespan
            ops.record(f"search {rid}",
                       base is not None and won is not None and won <= base,
                       f"tuned makespan {won} vs baseline {base}")

    def counts(self) -> Dict[str, float]:
        rs = [res for _, res in self.results]
        return {
            "tuning.generated": sum(r.space.generated for r in rs),
            "tuning.costed": sum(r.candidate_count for r in rs),
            "tuning.sim_evals": sum(r.simulator_evals for r in rs),
            "tuning.early_stops": sum(bool(r.early_stop) for r in rs),
        }

    def replay_plan(self) -> Tuple[List[Request], Tuple[str, ...]]:
        return [req for req, _ in TUNE_SEARCHES], ("cost", "simulate")


_JACOBI = Request("jacobi-par", "jacobi", (100, 200, 200),
                  "nonrectangular", (5, 20, 20))


def make(name: str) -> Any:
    if name == "sor_native":
        return RunWorkload(name, Request(
            "sor-native", "sor", (150, 300), "nonrectangular",
            (26, 76, 8)), "native")
    if name == "adi_numpy":
        return RunWorkload(name, Request(
            "adi-numpy", "adi", (48, 128), "nr3", (8, 32, 32)), "numpy")
    if name == "jacobi_parallel":
        return RunWorkload(name, _JACOBI, "parallel")
    if name == "jacobi_overlap":
        return RunWorkload(name, _JACOBI, "overlap")
    if name == "compile_cold":
        return CompileCold()
    if name == "certify":
        return Certify()
    if name == "compile_warm":
        return CompileWarm()
    if name == "tune_ladder":
        return TuneLadder()
    raise ValueError(f"unknown workload {name!r}")
