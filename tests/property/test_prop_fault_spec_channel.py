"""Property tests: fault-spec round-trips and lossy meeting exchanges.

Two contracts the robustness layers promise:

* the ``--faults`` spec DSL is a faithful serialisation — any plan the
  builders can express survives ``describe() -> parse_fault_plan``
  unchanged (including the loss-burst kinds and their amounts), and
* meeting exchanges stay order-independent even when a lossy channel
  drops payloads: reception draws are keyed by the receiving agent, so
  shuffling the iteration order cannot change anyone's outcome.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.comms import exchange_mapping_knowledge, exchange_routing_knowledge
from repro.core.knowledge import EdgeIndex
from repro.core.mapping_agents import ConscientiousAgent
from repro.core.routing_agents import OldestNodeAgent
from repro.faults.plan import AGENT_POLICIES, FaultEvent, FaultPlan, parse_fault_plan
from repro.net.channel import ChannelConfig, ChannelModel
from repro.net.manual import fixed_topology

times = st.integers(min_value=1, max_value=200)
nodes = st.integers(min_value=0, max_value=30)
#: hundredths, so the spec's ``:g`` float formatting round-trips exactly.
amounts = st.integers(min_value=1, max_value=100).map(lambda n: n / 100)

plain_node_events = st.builds(
    FaultEvent,
    time=times,
    kind=st.sampled_from(["crash", "recover", "wipe", "corrupt", "lossclear"]),
    target=st.tuples(nodes),
    gateway_relative=st.booleans(),
)
amount_events = st.builds(
    FaultEvent,
    time=times,
    kind=st.sampled_from(["shock", "lossburst"]),
    target=st.tuples(nodes),
    amount=amounts,
    gateway_relative=st.booleans(),
)
edge_events = st.builds(
    FaultEvent,
    time=times,
    kind=st.sampled_from(["blackout", "restore"]),
    target=st.tuples(nodes, nodes),
)
kill_events = st.builds(
    FaultEvent, time=times, kind=st.just("kill"), target=st.tuples(nodes)
)
events = st.one_of(plain_node_events, amount_events, edge_events, kill_events)
plans = st.builds(
    FaultPlan,
    events=st.lists(events, max_size=12).map(tuple),
    agent_policy=st.sampled_from(sorted(AGENT_POLICIES)),
)


class TestFaultSpecRoundTrip:
    @given(plans)
    @settings(max_examples=150)
    def test_describe_then_parse_is_identity(self, plan):
        assert parse_fault_plan(plan.describe()) == plan

    @given(st.lists(events, min_size=1, max_size=12))
    @settings(max_examples=100)
    def test_event_specs_round_trip_individually(self, batch):
        spec = ";".join(event.describe() for event in batch)
        parsed = parse_fault_plan(spec)
        assert sorted(parsed.events, key=lambda e: (e.time, e.kind, e.target)) == sorted(
            batch, key=lambda e: (e.time, e.kind, e.target)
        )


def _shuffled(items, order_seed):
    shuffled = list(items)
    random.Random(order_seed).shuffle(shuffled)
    return shuffled


def _lossy_channel(seed):
    topology = fixed_topology(3, [(0, 1), (1, 0), (1, 2), (2, 1)])
    return ChannelModel(topology, ChannelConfig(loss=0.5), seed=seed)


class TestLossyMeetingOrderIndependence:
    @given(
        population=st.integers(min_value=2, max_value=6),
        channel_seed=st.integers(min_value=0, max_value=2**32),
        order_seed=st.integers(min_value=0, max_value=2**32),
        now=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60)
    def test_mapping_exchange(self, population, channel_seed, order_seed, now):
        def build():
            index = EdgeIndex(population + 10)
            agents = []
            for i in range(population):
                agent = ConscientiousAgent(
                    i, 1, random.Random(i), population + 10, index=index
                )
                agent.knowledge.observe_node(i, [i + 10], time=i + 1)
                agent.location = 1
                agents.append(agent)
            return agents

        ordered = build()
        exchange_mapping_knowledge(
            ordered, channel=_lossy_channel(channel_seed), now=now
        )
        shuffled = _shuffled(build(), order_seed)
        exchange_mapping_knowledge(
            shuffled, channel=_lossy_channel(channel_seed), now=now
        )
        by_id = {agent.agent_id: agent for agent in shuffled}
        for agent in ordered:
            twin = by_id[agent.agent_id]
            assert agent.knowledge.all_edges == twin.knowledge.all_edges
            assert agent.overhead.payloads_lost == twin.overhead.payloads_lost
            assert agent.overhead.items_received == twin.overhead.items_received

    @given(
        population=st.integers(min_value=2, max_value=6),
        channel_seed=st.integers(min_value=0, max_value=2**32),
        order_seed=st.integers(min_value=0, max_value=2**32),
        now=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=60)
    def test_routing_exchange(self, population, channel_seed, order_seed, now):
        def build():
            agents = []
            for i in range(population):
                agent = OldestNodeAgent(
                    i, 1, random.Random(i), history_size=8, visiting=True
                )
                agent.history.record(i + 2, time=i + 1)
                agent.location = 1
                agents.append(agent)
            return agents

        ordered = build()
        exchange_routing_knowledge(
            ordered, channel=_lossy_channel(channel_seed), now=now
        )
        shuffled = _shuffled(build(), order_seed)
        exchange_routing_knowledge(
            shuffled, channel=_lossy_channel(channel_seed), now=now
        )
        by_id = {agent.agent_id: agent for agent in shuffled}
        for agent in ordered:
            twin = by_id[agent.agent_id]
            assert agent.history.snapshot() == twin.history.snapshot()
            assert agent.tracks == twin.tracks
            assert agent.overhead.payloads_lost == twin.overhead.payloads_lost
