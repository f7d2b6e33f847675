"""Tests for topology blueprints, fat-tree builders and routing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.topology import (
    HostLink,
    SwitchLink,
    SwitchSpec,
    Topology,
    folded_clos,
    host_path,
    path_ports,
    sun_dcs_648,
    three_stage_fat_tree,
)

from tests.conftest import route_all_pairs


class TestFoldedClos:
    def test_dimensions(self):
        topo = folded_clos(4, 2, 3)
        assert topo.n_hosts == 12
        assert topo.n_switches == 6
        assert len(topo.host_links) == 12
        assert len(topo.switch_links) == 8

    def test_leaf_port_layout(self):
        topo = folded_clos(4, 2, 3)
        # Host 5 is the 3rd host (index 2) of leaf 1.
        hl = topo.host_attachment(5)
        assert hl.switch_id == 1 and hl.switch_port == 2

    def test_lft_local_delivery(self):
        topo = folded_clos(4, 2, 3)
        # Leaf 0 delivers its own hosts 0..2 on ports 0..2.
        assert topo.lfts[0][:3] == [0, 1, 2]

    def test_lft_dmodk_up_routing(self):
        topo = folded_clos(4, 2, 3)
        # Remote destinations leave leaf 0 via port 3 + (d mod 2).
        assert topo.lfts[0][3] == 3 + (3 % 2)
        assert topo.lfts[0][4] == 3 + (4 % 2)

    def test_spine_routes_to_destination_leaf(self):
        topo = folded_clos(4, 2, 3)
        spine0 = topo.lfts[4]
        assert spine0[0] == 0 and spine0[11] == 3

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            folded_clos(0, 1, 1)


class TestThreeStageFatTree:
    def test_radix_relation(self):
        topo = three_stage_fat_tree(8)
        assert topo.n_hosts == 32
        assert topo.meta["n_leaves"] == 8
        assert topo.meta["n_spines"] == 4
        assert topo.meta["hosts_per_leaf"] == 4

    def test_all_crossbars_same_radix(self):
        topo = three_stage_fat_tree(8)
        assert all(s.n_ports == 8 for s in topo.switches)

    def test_odd_radix_rejected(self):
        with pytest.raises(ValueError):
            three_stage_fat_tree(7)

    def test_sun_dcs_648(self):
        topo = sun_dcs_648()
        assert topo.n_hosts == 648
        assert topo.n_switches == 54
        assert all(s.n_ports == 36 for s in topo.switches)
        assert topo.name == "sun-dcs-648"

    @given(radix=st.sampled_from([2, 4, 6, 8, 10, 12]))
    @settings(max_examples=6, deadline=None)
    def test_every_pair_routable(self, radix):
        route_all_pairs(three_stage_fat_tree(radix))


class TestPaths:
    def test_local_pair_stays_in_leaf(self):
        topo = three_stage_fat_tree(4)
        # Hosts 0 and 1 share leaf 0: path crosses exactly one switch.
        path = host_path(topo, 0, 1)
        assert path == [("host", 0), ("switch", 0), ("host", 1)]

    def test_remote_pair_crosses_three_stages(self):
        topo = three_stage_fat_tree(4)
        path = host_path(topo, 0, 7)  # leaf 0 -> leaf 3
        switches = [n for n in path if n[0] == "switch"]
        assert len(switches) == 3  # leaf, spine, leaf

    def test_same_host(self):
        topo = three_stage_fat_tree(4)
        assert host_path(topo, 3, 3) == [("host", 3)]

    def test_path_ports_end_at_destination_leaf(self):
        topo = three_stage_fat_tree(4)
        hops = path_ports(topo, 0, 7)
        last_sw, last_port = hops[-1]
        att = topo.host_attachment(7)
        assert (last_sw, last_port) == (att.switch_id, att.switch_port)

    def test_hotspot_convergence(self):
        # All flows toward one destination share its final link: the
        # root of the congestion tree.
        topo = three_stage_fat_tree(4)
        att = topo.host_attachment(0)
        root = (att.switch_id, att.switch_port)
        assert all(path_ports(topo, s, 0)[-1] == root for s in range(1, 8))

    def test_dmodk_spreads_destinations(self):
        topo = three_stage_fat_tree(4)
        # Distinct remote destinations from one source use both spines.
        spines_used = set()
        for dst in range(4, 8):
            for sw, port in path_ports(topo, 0, dst):
                if sw >= 4:  # spine ids start at n_leaves
                    spines_used.add(sw)
        assert len(spines_used) == 2


class TestValidation:
    def _tiny(self):
        return Topology(
            n_hosts=2,
            switches=[SwitchSpec(0, 3)],
            host_links=[HostLink(0, 0, 0), HostLink(1, 0, 1)],
            switch_links=[],
            lfts=[[0, 1]],
        )

    def test_valid_passes(self):
        self._tiny().validate()

    def test_duplicate_host(self):
        topo = self._tiny()
        topo.host_links.append(HostLink(1, 0, 2))
        with pytest.raises(ValueError, match="twice"):
            topo.validate()

    def test_port_collision(self):
        topo = self._tiny()
        topo.host_links[1] = HostLink(1, 0, 0)
        with pytest.raises(ValueError, match="used twice"):
            topo.validate()

    def test_bad_lft_length(self):
        topo = self._tiny()
        topo.lfts = [[0]]
        with pytest.raises(ValueError, match="wrong length"):
            topo.validate()

    def test_bad_lft_port(self):
        topo = self._tiny()
        topo.lfts = [[0, 99]]
        with pytest.raises(ValueError, match="bad port"):
            topo.validate()

    def test_noncontiguous_hosts(self):
        topo = self._tiny()
        topo.host_links[1] = HostLink(5, 0, 1)
        with pytest.raises(ValueError, match="0..n_hosts-1"):
            topo.validate()

    def test_missing_lft(self):
        topo = self._tiny()
        topo.lfts = []
        with pytest.raises(ValueError, match="one LFT"):
            topo.validate()

