"""Known-bad cost-model corpus: every seeded miscomputation in
:data:`repro.analysis.cost.MUTATIONS` must be rejected with its golden
COST diagnostic, and the clean run must stay clean.

The ``wrong_stride`` seed only bites where the HNF strides matter
*and* interior tiles exist: ADI's nr1 cone tiling has ``c = (1, 3,
1)`` and, at T=8 N=9, eight full tiles — small enough to certify in
milliseconds, big enough that the closed form actually counts strided
lattices.
"""

import dataclasses

import pytest

from repro.analysis.cost import MUTATIONS, certify_cost
from repro.apps import adi, sor
from repro.runtime.executor import TiledProgram
from repro.runtime.rankstep import build_rank_plans

#: mutation -> (config builder, golden diagnostic code)
GOLDEN = {
    "wrong_stride": "COST01",
    "off_by_one_halo": "COST01",
    "dropped_cc_edge": "COST01",
    "swapped_edge_weight": "COST03",
    "bad_lower_bound_constant": "COST04",
}


def _strided_prog():
    # HNF strides c = (1, 3, 1): the closed form must honor them.
    return TiledProgram(adi.app(8, 9).nest, adi.h_nr1(2, 3, 3),
                        mapping_dim=0)


def _plain_prog():
    return TiledProgram(sor.app(4, 6).nest,
                        sor.h_nonrectangular(2, 3, 4), mapping_dim=2)


def _prog_for(mutation):
    return _strided_prog() if mutation == "wrong_stride" \
        else _plain_prog()


def test_corpus_covers_the_contract():
    # The ISSUE contract: at least five seeded miscomputations.
    assert len(MUTATIONS) >= 5
    assert set(GOLDEN) == set(MUTATIONS)


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_mutation_rejected_with_golden_code(mutation):
    cert = certify_cost(_prog_for(mutation), mutation=mutation)
    assert not cert.ok, f"{mutation} survived certification"
    errors = [d for d in cert.diagnostics if d.severity == "error"]
    assert errors, f"{mutation} produced no error diagnostics"
    assert {d.code for d in errors} == {GOLDEN[mutation]}, \
        (mutation, [(d.code, d.message) for d in errors])
    for d in errors:
        assert d.pass_name == "cost"
        assert d.message and d.suggestion


@pytest.mark.parametrize("seed", ["dropped", "mistagged"])
def test_full_tile_send_corrupted_in_the_plans_is_cost01(seed):
    # A full tile's send the frozen plans lost (as a pack region wrongly
    # counted 0 would drop it) or tagged wrong: path A derives the sends
    # from the tile set, so exactly the touched channels disagree.
    prog = _plain_prog()
    plans = build_rank_plans(prog)
    rank, t = next((r, i) for r, plan in plans.items()
                   for i, (tile, ss) in enumerate(zip(plan.tiles, plan.sends))
                   if ss and prog.tiling.classify_tile(tile) == "full")
    s = plans[rank].sends[t][0]
    sends = list(plans[rank].sends)
    channels = [(rank, s.dst_rank, s.tag)]
    if seed == "dropped":
        sends[t] = sends[t][1:]
    else:
        bad = (s.tag + 1) % len(prog.comm.d_m)
        sends[t] = (dataclasses.replace(s, tag=bad),) + sends[t][1:]
        channels = sorted(channels + [(rank, s.dst_rank, bad)])
    prog.stages["rank_plans"] = {
        **plans, rank: dataclasses.replace(plans[rank], sends=tuple(sends))}
    cert = certify_cost(prog)
    cost01 = [d.subject_dict()["channel"] for d in cert.diagnostics
              if d.code == "COST01"]
    assert cost01 == channels


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_unmutated_twin_is_clean(mutation):
    # The same program certifies clean without the seed — the corpus
    # tests the certifier, not broken programs.
    cert = certify_cost(_prog_for(mutation))
    assert cert.ok, [d.message for d in cert.diagnostics]
