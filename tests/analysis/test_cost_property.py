"""Property: on hypothesis-random legal tilings of the reference apps,
the cost certifier's closed-form per-edge byte volumes equal the
simulator's accumulated per-channel message bytes **exactly** (tol=0),
and the certificate's makespan is the simulated one.

This is the COST01/COST03 contract beyond the six golden configs: the
closed-form lattice counting (HNF strides, ``cc`` lower bounds, the
``D^m`` enumeration) has no tolerance to hide behind — one miscounted
lattice point on any channel of any legal tiling fails the run.
"""

import dataclasses

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.apps import adi, sor
from repro.runtime.executor import DistributedRun, TiledProgram
from repro.runtime.machine import ClusterSpec


def _exact_equality(prog, spec):
    cert = prog.cost_certificate(protocol="spec", spec=spec)
    assert cert.ok, [d.message for d in cert.diagnostics]
    stats = DistributedRun(prog, spec).simulate()
    # tol = 0: element counts are integers and must match per channel.
    assert cert.channel_elements() == stats.channel_elements
    assert cert.channel_messages() == stats.channel_messages
    bpe = spec.bytes_per_element
    for edge in cert.edges:
        assert edge.nbytes == \
            stats.channel_elements[(edge.src_rank, edge.dst_rank,
                                    edge.tag)] * bpe
    assert cert.makespan == stats.makespan


class TestRandomTilings:
    @settings(max_examples=12, deadline=None)
    @given(
        sizes=st.tuples(st.integers(3, 5), st.integers(4, 8)),
        factors=st.tuples(st.integers(2, 3), st.integers(2, 4),
                          st.integers(2, 4)),
        nonrect=st.booleans(),
        mdim=st.integers(0, 2),
        rdv=st.sampled_from([None, 64]),
    )
    def test_random_sor_tiling_volumes_exact(self, sizes, factors,
                                             nonrect, mdim, rdv):
        app = sor.app(*sizes)
        h = (sor.h_nonrectangular(*factors) if nonrect
             else sor.h_rectangular(*factors))
        try:
            prog = TiledProgram(app.nest, h, mapping_dim=mdim)
        except ValueError:
            assume(False)
        assume(prog.num_processors > 1)
        spec = dataclasses.replace(ClusterSpec(),
                                   rendezvous_threshold=rdv)
        _exact_equality(prog, spec)

    @settings(max_examples=8, deadline=None)
    @given(
        sizes=st.tuples(st.integers(4, 8), st.integers(5, 9)),
        factors=st.tuples(st.integers(2, 3), st.integers(2, 3),
                          st.integers(2, 3)),
        shape=st.sampled_from(["rect", "nr1", "nr2", "nr3"]),
    )
    def test_random_adi_tiling_volumes_exact(self, sizes, factors,
                                             shape):
        # ADI's cone tilings have non-unimodular HNFs (strides > 1):
        # the closed form's strided lattice counting gets exercised
        # for real here, full tiles included.
        app = adi.app(*sizes)
        h_of = {"rect": adi.h_rectangular, "nr1": adi.h_nr1,
                "nr2": adi.h_nr2, "nr3": adi.h_nr3}[shape]
        try:
            prog = TiledProgram(app.nest, h_of(*factors),
                                mapping_dim=0)
        except ValueError:
            assume(False)
        assume(prog.num_processors > 1)
        _exact_equality(prog, ClusterSpec())
