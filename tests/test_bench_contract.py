"""The ``bench/`` contract, in tier-1.

``bench/`` reaches the program through ``src/`` by name
(``repro.runtime.parallel.build_rank_plans``,
``generate_python_node_programs``, ``lib.runtime(prog, init)``,
``prog.cost_certificate()``, ``prog.addressing.lds_for(pid).cells``,
``res.baseline.simulated_makespan``, ...) and the driver runs it only
after a PR is submitted.  This file imports the harness's own modules
and walks every workload's ``setup``/``warmup``/``counts`` and the whole
stage replay at warm-up size, so a refactor that moves or breaks one of
those names fails here — with ``ops.failed == 0`` the bar, as it is for
the benchmark.  ``bench/`` itself is not touched.
"""

import sys
from pathlib import Path

import pytest

BENCH = str(Path(__file__).resolve().parent.parent / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import stages  # noqa: E402
import workloads  # noqa: E402
from tracing import SpanLog  # noqa: E402

try:
    oracle.find_cc()
except oracle.OracleError as exc:
    pytestmark = pytest.mark.skip(reason=f"bench/ needs its C oracle: {exc}")

#: Jacobi 6x12x12 nonrect 2x4x4: seconds-sized, every engine, real edges.
SMALL = workloads.Request("contract-jacobi", "jacobi", (6, 12, 12),
                          "nonrectangular", (2, 4, 4))


@pytest.fixture
def env(tmp_path):
    return workloads.Env(0, str(tmp_path))


def _clean(ops):
    assert ops.attempted > 0
    assert ops.failed == 0, ops.failures


def test_stage_replay_every_group(env):
    log = SpanLog()
    extra = stages.replay(
        workloads.WARMUP_REQUESTS,
        ("artifacts", "native", "analysis", "cost", "codegen", "simulate"),
        log, env)
    assert extra["codegen.mpi_bytes"] > 0
    assert extra["analysis.cost.bound_ratio"] > 0
    replayed = {span["name"] for span in log.spans}
    for name in ("runtime.rank_plans_s", "artifacts.restore_s",
                 "native.build_hit_s", "native.runtime_init_s",
                 "analysis.hb_s", "analysis.cost_s", "codegen.pygen_s",
                 "runtime.simulate_s"):
        assert name in replayed and log.total_s(name) >= 0.0


@pytest.mark.parametrize("engine", ["native", "numpy", "parallel", "overlap"])
def test_run_workload(env, engine):
    ops = workloads.Ops()
    wl = workloads.RunWorkload(f"contract_{engine}", SMALL, engine)
    wl.setup(env, ops)
    wl.warmup(ops)
    counts = wl.counts()
    assert counts["runtime.points"] == wl.prog.total_points() > 0
    assert counts["distribution.lds_cells"] > 0
    assert wl.derived(1.0)["ns_per_point"] > 0
    par = wl.par_stats()
    if engine in ("parallel", "overlap"):
        assert counts["runtime.par.messages"] > 0
        assert counts["runtime.par.edges"] > 0
        assert par.makespan > 0
        assert sum(par.compute_time.values()) > 0
        assert sum(par.comm_time.values()) >= 0
        assert wl.timed_one_worker() > 0
        wl.verify(ops)
    else:
        assert par is None
    assert wl.ref.c_loop_s > 0
    requests, groups = wl.replay_plan()
    assert requests == [SMALL] and "simulate" in groups
    _clean(ops)


def test_compile_cold_warmup(env):
    ops = workloads.Ops()
    wl = workloads.CompileCold()
    wl.setup(env, ops)
    wl.warmup(ops)
    counts = wl.counts()
    assert counts["artifacts.misses"] == len(workloads.WARMUP_REQUESTS)
    assert counts["artifacts.bytes"] > 0 and counts["native.so_bytes"] > 0
    _clean(ops)


def test_certify_pass_over_warmup_and_bad_requests(env):
    """``Certify.setup`` compiles the seven paper-scale programs (too
    slow for tier-1): its ``_pass`` runs here against a cache holding
    the warm-up programs only."""
    ops = workloads.Ops()
    wl = workloads.Certify()
    workloads.RequestWorkload.setup(wl, env, ops)
    wl.cache = workloads.ArtifactCache(env.fresh_dir("cache-"))
    for req in workloads.WARMUP_REQUESTS:
        wl._compile(wl.cache, req, "miss", native=False)
    wl.verify(ops)
    wl.warmup(ops)      # WARMUP_REQUESTS + BAD_REQUESTS
    counts = wl.counts()
    assert counts["artifacts.hits"] == len(workloads.WARMUP_REQUESTS)
    assert counts["analysis.diagnostics"] >= 0
    _clean(ops)


def test_tune_ladder_warmup(env):
    ops = workloads.Ops()
    wl = workloads.TuneLadder()
    wl.setup(env, ops)
    wl.warmup(ops)
    counts = wl.counts()
    assert counts["tuning.generated"] >= counts["tuning.costed"] > 0
    assert counts["tuning.sim_evals"] > 0
    _clean(ops)


def test_every_benchmarked_workload_is_constructible():
    import json

    root = Path(BENCH).parent
    declared = json.loads((root / "BENCHMARK.json").read_text())
    for entry in declared["workloads"]:
        assert workloads.make(entry["name"]).name == entry["name"]
