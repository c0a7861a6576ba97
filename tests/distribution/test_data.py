"""Unit tests for the LDS and Tables 1-2 address translation."""

import numpy as np
import pytest

from repro.distribution import (
    CommunicationSpec,
    ComputationDistribution,
    DistributedAddressing,
    LocalDataSpace,
)
from repro.polyhedra import box
from repro.tiling import TilingTransformation
from repro.tiling.shapes import parallelepiped_tiling

JACOBI_DEPS = [(1, 1, 1), (1, 2, 1), (1, 0, 1), (1, 1, 2), (1, 1, 0)]


@pytest.fixture(scope="module")
def setup():
    """A strided TTIS (c = (1,2,1)) exercising the phase logic."""
    h = parallelepiped_tiling(
        [["1/2", "-1/4", 0], [0, "1/4", 0], [0, 0, "1/3"]])
    tt = TilingTransformation(h, box([0, 0, 0], [7, 11, 8]))
    dist = ComputationDistribution(tt, mapping_dim=0)
    comm = CommunicationSpec(tt, JACOBI_DEPS, dist.m)
    return tt, dist, comm


class TestLDSGeometry:
    def test_shape_formula(self, setup):
        tt, _, comm = setup
        lds = LocalDataSpace(comm, 3)
        v, c = tt.ttis.v, tt.ttis.c
        for k in range(3):
            if k == comm.m:
                assert lds.shape[k] == comm.offsets[k] + 3 * v[k] // c[k]
            else:
                assert lds.shape[k] == comm.offsets[k] + v[k] // c[k]

    def test_cells(self, setup):
        _, _, comm = setup
        lds = LocalDataSpace(comm, 2)
        assert lds.cells == int(np.prod(lds.shape))

    def test_nonpositive_tiles_rejected(self, setup):
        _, _, comm = setup
        with pytest.raises(ValueError):
            LocalDataSpace(comm, 0)


class TestMapRoundtrip:
    def test_exhaustive(self, setup):
        tt, _, comm = setup
        lds = LocalDataSpace(comm, 4)
        for jp in tt.ttis.lattice_points():
            for t in range(4):
                cell = lds.map(jp, t)
                assert lds.in_bounds(cell), (jp, t, cell)
                assert lds.map_inv(cell) == (tuple(jp), t)

    def test_computation_cells_disjoint(self, setup):
        tt, _, comm = setup
        lds = LocalDataSpace(comm, 3)
        seen = set()
        for jp in tt.ttis.lattice_points():
            for t in range(3):
                cell = lds.map(jp, t)
                assert cell not in seen
                seen.add(cell)

    def test_condensation_is_dense_per_tile(self, setup):
        """Within one tile, computation cells fill a full sub-box —
        the paper's 'no unused space after condensation' claim."""
        tt, _, comm = setup
        lds = LocalDataSpace(comm, 1)
        cells = {lds.map(jp, 0) for jp in tt.ttis.lattice_points()}
        assert len(cells) == tt.ttis.tile_volume
        rows = tt.ttis.rows_per_dim
        expect = 1
        for r in rows:
            expect *= r
        assert len(cells) == expect


class TestHaloSlot:
    def test_matches_read_address(self, setup):
        """halo_slot(pred point) == map(j' - d') for the crossing read."""
        tt, _, comm = setup
        lds = LocalDataSpace(comm, 3)
        v = tt.ttis.v
        for ds in comm.d_s:
            for dp in comm.d_prime:
                for jp in list(tt.ttis.lattice_points())[:8]:
                    read = tuple(a - b for a, b in zip(jp, dp))
                    pred = tuple(
                        r + v[k] * ds[k] for k, r in enumerate(read))
                    t = 1
                    assert lds.halo_slot(pred, ds, t) == lds.map(read, t)


class TestTables12:
    def test_loc_roundtrip_exhaustive(self, setup):
        tt, dist, comm = setup
        addr = DistributedAddressing(dist, comm)
        from itertools import product
        for j in product(range(8), range(12), range(9)):
            pid, cell = addr.loc(j)
            assert addr.loc_inv(cell, pid) == j

    def test_loc_assigns_to_owner(self, setup):
        tt, dist, comm = setup
        addr = DistributedAddressing(dist, comm)
        pid, _ = addr.loc((0, 0, 0))
        assert pid == dist.pid_of(tt.tile_of((0, 0, 0)))

    def test_mismatched_mapping_dim_rejected(self, setup):
        tt, dist, comm = setup
        other = CommunicationSpec(tt, JACOBI_DEPS, (dist.m + 1) % 3)
        with pytest.raises(ValueError):
            DistributedAddressing(dist, other)
