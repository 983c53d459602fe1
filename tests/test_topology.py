import math

import numpy as np
import pytest

from ackflow.engine import (
    SimConfig, SimulationError, _feeds, circuit_backward_time, simulate,
)
from ackflow.fifo_queue import FifoQueue
from ackflow.scenario import (
    ConstantProfile, QueueConf, RateFlowConf, ScheduledProtocol, UserConf, load_scenario,
    to_network,
)
from ackflow.topology import TopologyError, build_network


def user(uid, path, hops, ret):
    return UserConf(uid, path, hops, ret, ScheduledProtocol(10.0))


def rate_flow(fid, path, hops):
    return RateFlowConf(fid, path, hops, ConstantProfile(5.0))


def single_buffer_net():
    return build_network(
        queues=[QueueConf("b", 100.0)],
        users=[user("u1", ("b",), (0.01,), 0.02)],
    )


def shared_buffer_net():
    return build_network(
        queues=[QueueConf("b", 100.0)],
        users=[
            user("u1", ("b",), (0.001,), 0.002),
            user("u2", ("b",), (0.05,), 0.06),
        ],
    )


def series_net():
    # user 1 crosses both queues, users 2/3 one each
    return build_network(
        queues=[QueueConf("b1", 100.0), QueueConf("b2", 200.0)],
        users=[
            user("u1", ("b1", "b2"), (0.0, 0.02), 0.1),
            user("u2", ("b2",), (0.0,), 0.08),
            user("u3", ("b1",), (0.0,), 0.04),
        ],
    )


class TestBuild:
    def test_network_indexes_the_scenario_objects(self):
        sc = load_scenario("scenario5")
        net = to_network(sc)
        assert all(net.queues[q.id] is q for q in sc.queues)
        assert all(net.users[u.id] is u for u in sc.users)
        assert all(net.rate_flows[f.id] is f for f in sc.rate_flows)

    def test_two_users_share_queue_edge(self):
        net = shared_buffer_net()
        assert net.users["u1"].queue_path == net.users["u2"].queue_path == ("b",)
        assert net.flows_through("b") == ("u1", "u2")

    def test_flows_share_a_queue_to_queue_hop(self):
        # two users and a rate flow all cross b1 -> b2 over the same link
        net = build_network(
            [QueueConf("b1", 100.0), QueueConf("b2", 100.0)],
            [user("u1", ("b1", "b2"), (0.01, 0.005), 0.03),
             user("u2", ("b1", "b2"), (0.02, 0.005), 0.06)],
            [rate_flow("x", ("b1", "b2"), (0.0, 0.005))],
        )
        assert net.flows_through("b2") == ("u1", "u2", "x")

    def test_series_circuit_traverses_queues_in_order(self):
        net = series_net()
        assert net.users["u1"].queue_path == ("b1", "b2")
        assert net.users["u3"].queue_path == ("b1",)
        assert net.flows_through("b1") == ("u1", "u3")
        assert net.flows_through("b2") == ("u1", "u2")

    def test_dangling_queue_reference_named(self):
        with pytest.raises(TopologyError, match="ghost"):
            build_network(
                queues=[QueueConf("b", 10.0)],
                users=[user("u1", ("ghost",), (0.01,), 0.01)],
            )

    def test_duplicate_ids_rejected(self):
        with pytest.raises(TopologyError, match="duplicate queue"):
            build_network([QueueConf("b", 1.0), QueueConf("b", 2.0)], [])
        with pytest.raises(TopologyError, match="duplicate flow"):
            build_network(
                [QueueConf("b", 1.0)],
                [user("u", ("b",), (0.1,), 0.1), user("u", ("b",), (0.1,), 0.1)],
            )

    def test_dotted_ids_rejected(self):
        # trace names join ids with '.': queue 'a.b' with flow 'c' and queue
        # 'a' with flow 'b.c' would both name their input 'in.a.b.c'
        with pytest.raises(TopologyError, match=r"queue id 'a\.b' contains '\.'") as err:
            build_network([QueueConf("a.b", 1.0)], [])
        assert err.value.field == "id"
        for users, flows in (([user("b.c", ("a",), (0.1,), 0.1)], []),
                             ([], [rate_flow("b.c", ("a",), (0.1,))])):
            with pytest.raises(TopologyError, match=r"id 'b\.c' contains '\.'") as err:
                build_network([QueueConf("a", 1.0)], users, flows)
            assert err.value.field == "id"

    def test_same_buffer_twice_rejected(self):
        with pytest.raises(TopologyError, match="twice"):
            build_network(
                [QueueConf("b", 1.0)],
                [user("u", ("b", "b"), (0.1, 0.1), 0.1)],
            )

    def test_zero_total_delay_rejected(self):
        with pytest.raises(TopologyError, match="zero total"):
            build_network(
                [QueueConf("b", 1.0)],
                [user("u", ("b",), (0.0,), 0.0)],
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_capacity_rejected(self, bad):
        with pytest.raises(TopologyError, match="capacity must be finite") as err:
            build_network([QueueConf("b", bad)], [])
        assert err.value.field == "capacity_pps"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_hop_delay_rejected(self, bad):
        with pytest.raises(TopologyError, match="non-finite channel") as err:
            build_network([QueueConf("b", 1.0)], [user("u", ("b",), (bad,), 0.1)])
        assert err.value.field == "hop_delays_s"

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_return_delay_rejected(self, bad):
        with pytest.raises(TopologyError, match="non-finite return") as err:
            build_network([QueueConf("b", 1.0)], [user("u", ("b",), (0.1,), bad)])
        assert err.value.field == "return_delay_s"

    def test_zero_delay_cycle_rejected(self):
        with pytest.raises(TopologyError, match="cycle"):
            build_network(
                [QueueConf("a", 1.0), QueueConf("b", 1.0)],
                [
                    user("u1", ("a", "b"), (0.0, 0.0), 0.1),
                    user("u2", ("b", "a"), (0.0, 0.0), 0.1),
                ],
            )


class TestCircuitInvariants:
    @pytest.mark.parametrize("net_fn", [single_buffer_net, shared_buffer_net, series_net])
    def test_circuits_closed(self, net_fn):
        # walking a circuit back from the user's input through empty queues
        # reaches the user's output one total propagation delay earlier
        net = net_fn()
        queues = {qid: FifoQueue(qid, q.capacity_pps, net.flows_through(qid),
                                     dt_s=1e-3, n_ticks=1)
                  for qid, q in net.queues.items()}
        for user in net.users.values():
            assert circuit_backward_time(user, queues, np.array([0.0])) == pytest.approx(
                [-user.total_delay_s], abs=1e-12)

    @pytest.mark.parametrize("net_fn", [single_buffer_net, shared_buffer_net, series_net])
    def test_total_delay_is_channel_sum(self, net_fn):
        net = net_fn()
        for user in net.users.values():
            assert user.total_delay_s == pytest.approx(
                sum(user.hop_delays_s) + user.return_delay_s)
        delays = [d for reads in _feeds(net).values() for _, _, d in reads]
        assert sum(delays) == pytest.approx(
            sum(u.total_delay_s for u in net.users.values()))

    def test_min_positive_delay(self):
        # the dt headroom check reads the smallest positive channel delay,
        # u1's 20 ms hop, past the zero-delay hops
        net = series_net()
        delays = [d for reads in _feeds(net).values() for _, _, d in reads]
        assert min(d for d in delays if d > 0) == pytest.approx(0.02)
        with pytest.raises(SimulationError, match=r"positive propagation delay 0\.02s;"):
            simulate(net, None, SimConfig(dt_s=0.0021, horizon_s=0.01, init="cold"))
        simulate(net, None, SimConfig(dt_s=0.0019, horizon_s=0.01, init="cold"))
