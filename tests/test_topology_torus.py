"""Tests for torus/mesh topologies and dimension-order routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import host_path, mesh, torus
from repro.topology.torus import _coords, _index

from tests.conftest import route_all_pairs


class TestCoordinateMath:
    def test_roundtrip(self):
        dims = [3, 4, 5]
        for i in range(60):
            assert _index(_coords(i, dims), dims) == i

    def test_row_major(self):
        assert _coords(0, [2, 3]) == (0, 0)
        assert _coords(5, [2, 3]) == (1, 2)


class TestStructure:
    def test_ring(self):
        topo = torus([4])
        assert topo.n_hosts == 4
        assert topo.n_switches == 4
        assert len(topo.switch_links) == 4  # a full ring

    def test_mesh_has_fewer_links(self):
        assert len(mesh([4]).switch_links) == 3
        assert len(mesh([3, 3]).switch_links) == 12
        assert len(torus([3, 3]).switch_links) == 18

    def test_2d_torus_dimensions(self):
        topo = torus([4, 4])
        assert topo.n_hosts == 16
        assert all(s.n_ports == 5 for s in topo.switches)  # host + 2*2

    def test_3d(self):
        topo = torus([2, 3, 4])
        assert topo.n_hosts == 24
        route_all_pairs(topo)

    def test_k2_has_single_link_per_dim(self):
        # k=2: +1 and wraparound are the same neighbour; only one cable.
        topo = torus([2, 2])
        assert len(topo.switch_links) == 4

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            torus([])
        with pytest.raises(ValueError):
            torus([1, 4])

    def test_names(self):
        assert torus([4, 4]).name == "torus-4x4"
        assert mesh([4, 4]).name == "mesh-4x4"


class TestRouting:
    @given(
        dims=st.lists(st.integers(min_value=2, max_value=4), min_size=1, max_size=3),
        wrap=st.booleans(),
    )
    @settings(max_examples=20, deadline=None)
    def test_every_pair_routable(self, dims, wrap):
        route_all_pairs(torus(dims, wrap=wrap))

    def test_dimension_order(self):
        # In a 4x4 mesh, 0 -> 15 first corrects dim 0 (rows), then dim 1.
        topo = mesh([4, 4])
        path = host_path(topo, 0, 15)
        switches = [n[1] for n in path if n[0] == "switch"]
        coords = [_coords(s, [4, 4]) for s in switches]
        rows = [c[0] for c in coords]
        cols = [c[1] for c in coords]
        # Rows adjust first (monotone), then columns.
        assert rows == sorted(rows)
        assert cols[: rows.count(0)] == [0] * rows.count(0)

    def test_wraparound_takes_short_way(self):
        topo = torus([8])
        # 0 -> 7 is one hop backwards around the ring, not 7 forwards.
        path = host_path(topo, 0, 7)
        switches = [n for n in path if n[0] == "switch"]
        assert len(switches) == 2

    def test_mesh_never_wraps(self):
        topo = mesh([8])
        path = host_path(topo, 0, 7)
        switches = [n for n in path if n[0] == "switch"]
        assert len(switches) == 8

    def test_torus_runs_in_simulator(self):
        # End-to-end sanity: a flow crosses a 3x3 torus.
        from repro.engine import RngRegistry, Simulator
        from repro.metrics import Collector
        from repro.network import Network, NetworkConfig
        from repro.traffic import FixedRateSource

        topo = torus([3, 3])
        sim = Simulator()
        col = Collector(topo.n_hosts, warmup_ns=0.0)
        net = Network(sim, topo, NetworkConfig(), collector=col)
        gen = FixedRateSource(0, topo.n_hosts, 8, 10.0, RngRegistry(1).stream("g"))
        gen.bind(net.hcas[0])
        net.hcas[0].attach_generator(gen)
        net.run(until=1e6)
        assert col.rx_rate_gbps(8, 1e6) == pytest.approx(10.0, rel=0.05)
