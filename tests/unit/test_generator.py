"""Unit tests for the network generators."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.net.generator import (
    GeneratorConfig,
    MANET_PRESET,
    MAPPING_PRESET,
    NetworkGenerator,
    generate_manet_network,
    generate_mapping_network,
)
from repro.net.geometry import Point
from repro.net.mobility import Stationary


class TestGeneratorConfig:
    def test_presets_are_paper_scale(self):
        assert MAPPING_PRESET.node_count == 300
        assert MAPPING_PRESET.target_edges == 2164
        assert MANET_PRESET.node_count == 250
        assert MANET_PRESET.gateway_count == 12
        assert MANET_PRESET.mobile_fraction == 0.5

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GeneratorConfig(node_count=1)
        with pytest.raises(ConfigurationError):
            GeneratorConfig(range_heterogeneity=1.0)
        with pytest.raises(ConfigurationError):
            GeneratorConfig(mobile_fraction=1.5)
        with pytest.raises(ConfigurationError):
            GeneratorConfig(gateway_count=300)
        with pytest.raises(ConfigurationError):
            GeneratorConfig(degradation_amount=1.0)

    def test_hashable_for_caching(self):
        assert hash(GeneratorConfig()) == hash(GeneratorConfig())


SMALL = GeneratorConfig(
    node_count=30,
    target_edges=None,
    range_heterogeneity=0.3,
    require_strong_connectivity=True,
)


class TestStaticGeneration:
    def test_node_count(self):
        topology = NetworkGenerator(SMALL, 1).generate_static()
        assert topology.node_count == 30

    def test_strongly_connected(self):
        for seed in range(5):
            topology = NetworkGenerator(SMALL, seed).generate_static()
            assert topology.is_strongly_connected()

    def test_deterministic_per_seed(self):
        a = NetworkGenerator(SMALL, 5).generate_static()
        b = NetworkGenerator(SMALL, 5).generate_static()
        assert a.edge_set() == b.edge_set()

    def test_different_seeds_differ(self):
        a = NetworkGenerator(SMALL, 1).generate_static()
        b = NetworkGenerator(SMALL, 2).generate_static()
        assert a.edge_set() != b.edge_set()

    def test_edge_target_respected(self):
        config = GeneratorConfig(
            node_count=60,
            target_edges=400,
            edge_tolerance=40,
            range_heterogeneity=0.2,
            require_strong_connectivity=True,
        )
        topology = NetworkGenerator(config, 3).generate_static()
        # Repair may push the count slightly above the tolerance window;
        # it must stay in the right ballpark.
        assert 300 <= topology.edge_count <= 600

    def test_heterogeneity_zero_gives_symmetric_links(self):
        config = GeneratorConfig(
            node_count=25,
            target_edges=None,
            range_heterogeneity=0.0,
            require_strong_connectivity=True,
        )
        topology = NetworkGenerator(config, 4).generate_static()
        for source, destination in topology.edges():
            assert topology.has_edge(destination, source)

    def test_degraded_fraction_marks_nodes(self):
        config = GeneratorConfig(
            node_count=30,
            target_edges=None,
            require_strong_connectivity=False,
            degraded_fraction=0.2,
            degradation_amount=0.3,
        )
        topology = NetworkGenerator(config, 5).generate_static()
        degraded = [
            n for n in topology.nodes if getattr(n.radio, "degradation", 0.0) > 0
        ]
        assert len(degraded) == 6

    def test_convenience_wrapper(self):
        topology = generate_mapping_network(1, SMALL)
        assert topology.node_count == 30


class TestManetGeneration:
    CONFIG = GeneratorConfig(
        node_count=40,
        target_edges=None,
        require_strong_connectivity=False,
        gateway_count=4,
        mobile_fraction=0.5,
    )

    def test_gateway_count_and_placement(self):
        topology = NetworkGenerator(self.CONFIG, 1).generate_manet()
        assert topology.gateway_ids == [0, 1, 2, 3]
        for gateway in topology.gateway_ids:
            node = topology.node(gateway)
            assert node.is_gateway
            assert isinstance(node.mobility, Stationary)

    def test_mobile_fraction(self):
        topology = NetworkGenerator(self.CONFIG, 1).generate_manet()
        mobile = [n for n in topology.nodes if n.is_mobile]
        assert len(mobile) == 20  # half of 40

    def test_gateways_never_mobile_or_battery_limited(self):
        topology = NetworkGenerator(self.CONFIG, 2).generate_manet()
        for gateway in topology.gateway_ids:
            node = topology.node(gateway)
            assert not node.is_mobile
            assert node.battery.level == 1.0

    def test_deterministic_including_movement(self):
        a = NetworkGenerator(self.CONFIG, 3).generate_manet()
        b = NetworkGenerator(self.CONFIG, 3).generate_manet()
        for __ in range(10):
            a.advance()
            b.advance()
        assert a.edge_set() == b.edge_set()

    def test_movement_changes_topology(self):
        topology = NetworkGenerator(self.CONFIG, 4).generate_manet()
        before = topology.edge_set()
        for __ in range(30):
            topology.advance()
        assert topology.edge_set() != before

    def test_convenience_wrapper_defaults_gateways(self):
        config = GeneratorConfig(
            node_count=30,
            target_edges=None,
            require_strong_connectivity=False,
            mobile_fraction=0.5,
        )
        topology = generate_manet_network(1, config)
        assert len(topology.gateway_ids) == 12


def _count_edges_oracle(positions, factors, scale):
    """The pairwise walk ``_count_edges`` replaced, kept as its oracle."""
    count = 0
    for i, (pos, factor) in enumerate(zip(positions, factors)):
        radius_sq = (scale * factor) ** 2
        for j, other in enumerate(positions):
            if i != j and pos.distance_squared_to(other) <= radius_sq:
                count += 1
    return count


_coordinate = st.floats(min_value=0.0, max_value=50.0, allow_nan=False, width=64)
_factor = st.one_of(
    st.just(0.0), st.floats(min_value=0.0, max_value=2.0, allow_nan=False)
)


class TestCountEdges:
    count = staticmethod(NetworkGenerator._count_edges)

    def test_pairs_at_exactly_the_range_count(self):
        positions = [Point(0.0, 0.0), Point(3.0, 4.0)]
        assert self.count(positions, [1.0, 1.0], 5.0) == 2
        assert self.count(positions, [1.0, 1.0], 4.999999) == 0

    def test_coincident_points_link_but_never_self(self):
        positions = [Point(1.5, 2.5)] * 3
        assert self.count(positions, [0.0, 0.0, 0.0], 10.0) == 6
        assert self.count(positions[:1], [1.0], 10.0) == 0

    def test_zero_factor_reaches_only_coincident_points(self):
        positions = [Point(0.0, 0.0), Point(0.0, 0.0), Point(1.0, 0.0)]
        assert self.count(positions, [0.0, 1.0, 1.0], 1.0) == 1 + 2 + 2

    def test_matches_oracle_on_a_generated_layout(self):
        import random

        rng = random.Random(5)
        positions = [Point(rng.uniform(0, 100), rng.uniform(0, 100)) for _ in range(120)]
        factors = [rng.uniform(0.7, 1.3) for _ in positions]
        for scale in (0.0, 3.0, 11.5, 40.0, 200.0):
            assert self.count(positions, factors, scale) == _count_edges_oracle(
                positions, factors, scale
            )

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(_coordinate, _coordinate, _factor), min_size=0, max_size=25),
        st.floats(min_value=0.0, max_value=80.0, allow_nan=False),
        st.booleans(),
    )
    def test_matches_oracle(self, nodes, scale, snap):
        if snap and nodes:
            # Put coordinates on a coarse grid so ties at exactly the
            # range and coincident points are common.
            nodes = [(round(x), round(y), round(f * 2) / 2) for x, y, f in nodes]
            scale = float(round(scale))
        positions = [Point(x, y) for x, y, _ in nodes]
        factors = [f for _, _, f in nodes]
        assert self.count(positions, factors, scale) == _count_edges_oracle(
            positions, factors, scale
        )

    def test_blocks_do_not_change_the_count(self, monkeypatch):
        import random

        from repro.net import generator

        rng = random.Random(9)
        positions = [Point(rng.uniform(0, 30), rng.uniform(0, 30)) for _ in range(40)]
        factors = [rng.uniform(0.5, 1.5) for _ in positions]
        whole = self.count(positions, factors, 6.0)
        monkeypatch.setattr(generator, "_COUNT_BLOCK_CELLS", 7 * len(positions))
        assert self.count(positions, factors, 6.0) == whole
        assert whole == _count_edges_oracle(positions, factors, 6.0)

    def test_paper_network_is_unchanged(self):
        from repro.experiments.config import PAPER

        config = PAPER.mapping_generator_config()
        topology = NetworkGenerator(config, seed=2010).generate_static()
        assert topology.edge_count == 2233
