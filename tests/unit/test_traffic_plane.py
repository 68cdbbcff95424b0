"""Unit tests for the traffic plane, routers, and conservation ledger."""

import json

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.persistence import result_from_dict, result_to_dict
from repro.experiments.runner import parse_spec
from repro.net.channel import ChannelConfig, ChannelModel
from repro.net.manual import fixed_topology
from repro.rng import SeedSpawner
from repro.routing.table import RouteEntry, TableBank
from repro.routing.world import RoutingResult
from repro.traffic.payload import Payload, TrafficLedger
from repro.traffic.plane import TrafficConfig, TrafficPlane
from repro.traffic.routers import ROUTERS, make_router


def full_mesh(node_count=5, gateways=(0,)):
    edges = [
        (a, b)
        for a in range(node_count)
        for b in range(node_count)
        if a != b
    ]
    return fixed_topology(node_count, edges, gateways=list(gateways))


def line_topology(node_count=4, gateways=(0,)):
    edges = []
    for a in range(node_count - 1):
        edges.extend([(a, a + 1), (a + 1, a)])
    return fixed_topology(node_count, edges, gateways=list(gateways))


def chain_tables(node_count=4, gateway=0):
    bank = TableBank(node_count)
    for node in range(1, node_count):
        bank.table(node).install(
            RouteEntry(gateway, node - 1, node, installed_at=1)
        )
    return bank


def build_plane(topology, tables=None, channel=None, **overrides):
    config = TrafficConfig(**overrides)
    return TrafficPlane(
        topology, config, SeedSpawner(5), channel=channel, tables=tables
    )


def run_plane(plane, steps):
    for now in range(steps):
        plane.step(now)
        assert plane.consistency_problems() == []
    return plane.report()


class TestLedger:
    def test_conservation_and_terminal_guards(self):
        ledger = TrafficLedger()
        payload = Payload(0, source=1, created_at=0, ttl=10)
        ledger.register(payload)
        assert ledger.conservation_error() is None
        ledger.deliver(0, now=4, hops=2)
        assert ledger.delivered == 1
        with pytest.raises(SimulationError):
            ledger.deliver(0, now=5, hops=2)
        with pytest.raises(SimulationError):
            ledger.expire(0)

    def test_latency_histogram_buckets(self):
        ledger = TrafficLedger()
        for pid, latency in enumerate((1, 3, 200, 1000)):
            ledger.register(Payload(pid, source=1, created_at=0, ttl=2000))
            ledger.deliver(pid, now=latency, hops=1)
        counts = ledger.latency_counts
        assert sum(counts) == 4
        assert counts[-1] == 1  # 1000 overflows the last bound (256)


class TestDeliveryAtZeroLoss:
    @pytest.mark.parametrize("router", ROUTERS)
    def test_full_mesh_delivers_everything(self, router):
        """Acceptance: p=0 on a static fully-connected graph => 100%."""
        topology = full_mesh()
        plane = build_plane(
            topology,
            tables=chain_tables(5),
            router=router,
            rate=1.0,
            payload_ttl=50,
        )
        report = run_plane(plane, 40)
        assert report.generated > 10
        # everything generated up to the second-to-last step had a full
        # step to make the single hop to the gateway
        assert report.delivered + report.buffered + report.in_flight == report.generated
        assert report.buffered + report.in_flight <= 2  # only the tail
        assert report.dropped == 0 and report.expired == 0
        assert report.mean_hops <= 1.0

    def test_store_and_forward_walks_the_chain(self):
        from repro.traffic.payload import PayloadCopy

        topology = line_topology(4)
        plane = build_plane(
            topology,
            tables=chain_tables(4),
            rate=0.0,
        )
        payload = Payload(0, source=3, created_at=0, ttl=30)
        plane.ledger.register(payload)
        plane._payloads[0] = payload
        plane.queue(3).offer(PayloadCopy(payload))
        for now in range(5):
            plane.step(now)
            assert plane.consistency_problems() == []
        report = plane.report()
        assert report.delivered == 1
        assert report.mean_hops == 3.0
        assert report.counters["custody_transfers"] == 2  # final hop delivers


class TestLossAndRetry:
    def test_total_loss_retransmits_then_abandons(self):
        topology = line_topology(4)
        channel = ChannelModel(topology, ChannelConfig(loss=1.0), seed=3)
        plane = build_plane(
            topology,
            tables=chain_tables(4),
            channel=channel,
            rate=0.5,
            payload_ttl=10,
            max_retransmit=2,
        )
        report = run_plane(plane, 30)
        assert report.generated > 0
        assert report.delivered == 0
        assert report.counters["retransmissions"] > 0
        assert report.counters["abandons"] > 0
        assert report.expired > 0  # TTL reaps what the channel blocks

    def test_partial_loss_still_delivers(self):
        topology = full_mesh()
        channel = ChannelModel(topology, ChannelConfig(loss=0.4), seed=3)
        plane = build_plane(
            topology,
            tables=chain_tables(5),
            channel=channel,
            rate=1.0,
            payload_ttl=60,
        )
        report = run_plane(plane, 60)
        assert report.delivered > 0
        assert report.counters["retransmissions"] > 0


class TestBufferPressure:
    def test_source_overflow_is_accounted(self):
        # no tables and no neighbors: payloads pile up at their sources
        topology = fixed_topology(3, [], gateways=[0])
        plane = build_plane(
            topology, router="epidemic", rate=3.0, queue_capacity=2, payload_ttl=500
        )
        report = run_plane(plane, 40)
        assert report.generated > 10
        assert report.dropped > 0
        assert report.counters["source_drops"] == report.dropped
        assert report.queues["rejected"] == report.counters["source_drops"]
        assert report.queues["peak"] <= 2

    def test_drop_oldest_sheds_via_eviction(self):
        topology = fixed_topology(3, [], gateways=[0])
        plane = build_plane(
            topology,
            router="epidemic",
            rate=3.0,
            queue_capacity=2,
            queue_policy="drop-oldest",
            payload_ttl=500,
        )
        report = run_plane(plane, 40)
        assert report.counters["overflow_drops"] > 0
        assert report.dropped == (
            report.counters["overflow_drops"] + report.counters["source_drops"]
        )


class TestCrashCustody:
    def test_custody_survives_crash_and_recovery(self):
        from repro.traffic.payload import PayloadCopy

        topology = line_topology(3)
        plane = build_plane(topology, tables=chain_tables(3), rate=0.0)
        payload = Payload(0, source=2, created_at=0, ttl=1000)
        plane.ledger.register(payload)
        plane._payloads[0] = payload
        plane.queue(2).offer(PayloadCopy(payload))
        topology.set_node_down(1)  # the only route to the gateway
        topology.recompute()
        for now in range(5):
            plane.step(now)
            assert plane.consistency_problems() == []
        assert plane.report().delivered == 0
        assert plane.report().buffered == 1  # custody held, not lost
        topology.set_node_up(1)
        topology.recompute()
        for now in range(5, 10):
            plane.step(now)
            assert plane.consistency_problems() == []
        assert plane.report().delivered == 1

    def test_expiry_purges_copies_on_down_nodes(self):
        from repro.traffic.payload import PayloadCopy

        topology = line_topology(3)
        plane = build_plane(topology, tables=chain_tables(3), rate=0.0, payload_ttl=3)
        payload = Payload(0, source=2, created_at=0, ttl=3)
        plane.ledger.register(payload)
        plane._payloads[0] = payload
        plane.queue(2).offer(PayloadCopy(payload))
        topology.set_node_down(2)
        topology.recompute()
        for now in range(6):
            plane.step(now)
            assert plane.consistency_problems() == []
        report = plane.report()
        assert report.expired == 1
        assert report.buffered == 0


class TestSprayAndWait:
    def test_ticket_budget_bounds_copies(self):
        topology = full_mesh(6, gateways=())  # no gateway: nothing delivers
        plane = build_plane(
            topology,
            router="spray-and-wait",
            rate=0.0,
            spray_copies=4,
            payload_ttl=1000,
        )
        from repro.traffic.payload import PayloadCopy

        payload = Payload(0, source=1, created_at=0, ttl=1000)
        plane.ledger.register(payload)
        plane._payloads[0] = payload
        plane.queue(1).offer(PayloadCopy(payload, tickets=4))
        for now in range(10):
            plane.step(now)
            assert plane.consistency_problems() == []
        # binary spray: at most spray_copies physical copies ever exist
        assert plane.ledger.copy_count(0) <= 4
        copies = [
            copy
            for __, queue in plane.sorted_queues()
            for copy in queue.copies()
        ]
        assert sum(copy.tickets for copy in copies) == 4


class TestRouterFactory:
    def test_unknown_router_rejected(self):
        with pytest.raises(ConfigurationError):
            TrafficConfig(router="flooding")

    def test_store_and_forward_requires_tables(self):
        with pytest.raises(ConfigurationError):
            build_plane(full_mesh(), tables=None)  # default router needs tables
        plane = build_plane(full_mesh(), tables=None, router="epidemic")
        with pytest.raises(ConfigurationError):
            make_router("store-and-forward", plane)


class TestReportAndSpec:
    def test_report_roundtrip(self):
        topology = full_mesh()
        plane = build_plane(topology, tables=chain_tables(5), rate=1.0)
        report = run_plane(plane, 20)
        payload = json.loads(json.dumps(result_to_dict(RoutingResult(traffic=report))))
        assert result_from_dict(RoutingResult, payload).traffic == report
        assert result_from_dict(RoutingResult, {"traffic": None}).traffic is None

    def test_parse_bare_rate(self):
        config = parse_spec(TrafficConfig, "0.75")
        assert config.rate == 0.75
        assert config.router == "store-and-forward"

    def test_parse_long_form(self):
        config = parse_spec(
            TrafficConfig,
            "profile=burst,burst=12,every=8,cap=32,policy=drop-oldest,"
            "ttl=40,router=epidemic,retries=4,backoff=2,fanout=3",
        )
        assert config.profile == "burst"
        assert config.burst_size == 12
        assert config.burst_every == 8
        assert config.queue_capacity == 32
        assert config.queue_policy == "drop-oldest"
        assert config.payload_ttl == 40
        assert config.router == "epidemic"
        assert config.max_retransmit == 4
        assert config.backoff_base == 2
        assert config.epidemic_fanout == 3

    @pytest.mark.parametrize(
        "spec", ["", "rate", "speed=1", "rate=fast", "router=flooding"]
    )
    def test_parse_rejects_malformed(self, spec):
        with pytest.raises(ConfigurationError):
            parse_spec(TrafficConfig, spec)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrafficConfig(rate=-1.0)
        with pytest.raises(ConfigurationError):
            TrafficConfig(queue_capacity=0)
        with pytest.raises(ConfigurationError):
            TrafficConfig(start=5, stop=5)


class TestDeterminism:
    @pytest.mark.parametrize("router", ROUTERS)
    def test_same_seed_same_report(self, router):
        def run():
            topology = full_mesh(6)
            channel = ChannelModel(topology, ChannelConfig(loss=0.3), seed=9)
            plane = build_plane(
                topology,
                tables=chain_tables(6),
                channel=channel,
                router=router,
                rate=1.0,
            )
            return run_plane(plane, 40)

        assert run() == run()
