"""Unit and system tests for link partitions and the failure detector.

Covers the PR's invariants:

* a plan with no link faults is normalized away (pay-for-what-you-use:
  bit-identical to the partition-free fabric);
* a healed symmetric cut drives the victim through quarantine and a
  resync rejoin, and every coherence invariant holds afterwards;
* asymmetric (one-way) cuts are detected too — a lost reply is as good
  as a lost probe;
* ``serve_local_reads`` answers queue-head reads from the stale replica
  with monitor-visible accounting, and those reads are exempt from the
  sequential-consistency witness;
* ``detect=False`` is the retry-forever baseline: no heartbeats, no
  quarantine;
* runs are bit-identical given the same seeds.
"""

import math

import pytest

from repro.core.parameters import WorkloadParams
from repro.sim import DSMSystem, Network, ReliableNetwork, RunConfig
from repro.sim.partition import (
    PARTITION_POLICIES,
    LinkFault,
    PartitionPlan,
    cut,
    isolate,
)
from repro.workloads import read_disturbance_workload

from .util import fabric, transmit

PARAMS = WorkloadParams(N=4, p=0.3, a=3, sigma=0.15, S=100.0, P=30.0)
SEQ = PARAMS.N + 1  # sequencer node id


def workload():
    return read_disturbance_workload(PARAMS, M=1)


def run(protocol, partitions=None, num_ops=1200, warmup=200, seed=3,
        monitor=False):
    config = RunConfig(ops=num_ops, warmup=warmup, seed=seed,
                       partitions=partitions, monitor=monitor)
    system = DSMSystem(protocol, N=PARAMS.N, S=PARAMS.S, P=PARAMS.P,
                       config=config)
    result = system.run_workload(workload())
    return system, result


class TestLinkFault:
    def test_validation(self):
        with pytest.raises(ValueError, match="distinct"):
            LinkFault(2, 2)
        with pytest.raises(ValueError, match="start"):
            LinkFault(1, 2, start=-1.0)
        with pytest.raises(ValueError, match="end after"):
            LinkFault(1, 2, start=10.0, end=5.0)
        with pytest.raises(ValueError, match="drop_rate"):
            LinkFault(1, 2, drop_rate=1.5)

    def test_covers_and_is_cut(self):
        f = LinkFault(1, 2, start=10.0, end=20.0)
        assert not f.covers(9.9) and f.covers(10.0) and f.covers(19.9)
        assert not f.covers(20.0)
        assert f.is_cut
        assert not LinkFault(1, 2, drop_rate=0.5).is_cut

    def test_cut_is_symmetric(self):
        a, b = cut(1, 5, 100.0, 200.0)
        assert (a.src, a.dst) == (1, 5) and (b.src, b.dst) == (5, 1)
        assert a.start == b.start == 100.0 and a.end == b.end == 200.0

    def test_isolate_severs_every_peer(self):
        links = isolate(3, [1, 2, 5])
        assert len(links) == 6
        assert {(f.src, f.dst) for f in links} == {
            (3, 1), (1, 3), (3, 2), (2, 3), (3, 5), (5, 3)}


class TestPartitionPlan:
    def test_validation(self):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            PartitionPlan(heartbeat_interval=0.0)
        with pytest.raises(ValueError, match="suspect_after"):
            PartitionPlan(suspect_after=0)
        with pytest.raises(ValueError, match="policy"):
            PartitionPlan(policy="panic")

    def test_policies_enumerated(self):
        assert PARTITION_POLICIES == ("stall", "serve_local_reads")

    def test_none_plan_is_none(self):
        assert PartitionPlan().is_none
        assert not PartitionPlan(links=cut(1, 2)).is_none

    def test_validate_nodes(self):
        plan = PartitionPlan(links=cut(2, 9))
        with pytest.raises(ValueError, match="node 9"):
            plan.validate_nodes(5)
        PartitionPlan(links=cut(2, 5)).validate_nodes(5)  # no raise

    def test_full_cut_consumes_no_randomness(self):
        plan = PartitionPlan(seed=1, links=cut(1, 5, 0.0, 100.0))
        state = plan._rng.getstate()
        net = fabric(partitions=plan)
        assert transmit(net, 1, 5, 50.0).dropped
        assert not transmit(net, 1, 5, 150.0).dropped  # healed
        assert not transmit(net, 2, 5, 50.0).dropped  # other link untouched
        assert plan._rng.getstate() == state

    def test_degraded_link_is_probabilistic_and_seeded(self):
        def draws(seed):
            net = fabric(partitions=PartitionPlan(
                seed=seed, links=[LinkFault(1, 5, drop_rate=0.5)]))
            return [transmit(net, 1, 5, 1.0).dropped for _ in range(64)]

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)
        assert any(draws(3)) and not all(draws(3))

    def test_describe_merges_symmetric_cuts(self):
        plan = PartitionPlan(links=cut(2, 5, 100.0, 200.0))
        text = plan.describe()
        assert "cut(2<->5: 100..200)" in text
        assert "detector(interval=40" in text
        one_way = PartitionPlan(links=[LinkFault(1, 5, 0.0, 50.0)],
                                detect=False)
        text = one_way.describe()
        assert "cut(1->5: 0..50)" in text and "detector=off" in text

    def test_config_key_round_trip(self):
        plan = PartitionPlan(seed=7, links=cut(1, 5, 10.0),
                             heartbeat_interval=25.0, suspect_after=2,
                             policy="serve_local_reads", detect=True)
        clone = PartitionPlan.from_dict(plan.to_dict())
        assert clone == plan
        # infinite ends survive the JSON round trip as None
        assert plan.to_dict()["links"][0][3] is None
        assert math.isinf(clone.links[0].end)


class TestPayForWhatYouUse:
    def test_none_plan_uses_plain_network(self):
        system = DSMSystem(
            "write_through", N=2,
            config=RunConfig(partitions=PartitionPlan()))
        assert isinstance(system.network, Network)
        assert system.partitions is None and system.detector is None

    def test_partition_plan_implies_reliable_network(self):
        system = DSMSystem(
            "write_through", N=2,
            config=RunConfig(partitions=PartitionPlan(links=cut(1, 3))))
        assert isinstance(system.network, ReliableNetwork)
        assert system.detector is not None

    def test_none_plan_bit_identical_to_baseline(self):
        _s1, r1 = run("write_through")
        s2, r2 = run("write_through", partitions=PartitionPlan())
        assert r1.acc == r2.acc
        assert r1.messages == r2.messages
        assert r1.end_time == r2.end_time
        part = s2.metrics.partition
        assert part.heartbeats == 0 and part.cost == 0.0


class TestDetectorQuarantineAndRejoin:
    @pytest.mark.parametrize("protocol", ["write_through", "berkeley"])
    def test_healed_cut_quarantines_and_rejoins(self, protocol):
        plan = PartitionPlan(links=cut(2, SEQ, 3000.0, 8000.0))
        system, result = run(protocol, partitions=plan, num_ops=2000,
                             warmup=300, monitor=True)
        part = system.metrics.partition
        assert part.heartbeats > 0
        assert part.suspicions >= 1
        assert part.rejoins >= 1
        assert part.partition_time > 0.0
        assert not [v for v in result.violations if v.kind != "delivery"]
        system.check_coherence()

    def test_one_way_cut_is_detected(self):
        # only the reply path 2 -> SEQ is severed: probes arrive, replies
        # are lost — the detector must still quarantine.
        plan = PartitionPlan(links=[LinkFault(2, SEQ, 3000.0, 8000.0)])
        system, _result = run("write_through", partitions=plan,
                              num_ops=2000, warmup=300)
        part = system.metrics.partition
        assert part.suspicions >= 1
        assert part.rejoins >= 1
        system.check_coherence()

    def test_detector_traffic_is_priced(self):
        plan = PartitionPlan(links=cut(2, SEQ, 3000.0, 8000.0))
        system, _result = run("write_through", partitions=plan,
                              num_ops=2000, warmup=300)
        part = system.metrics.partition
        # one token per probe plus one per successful reply
        assert part.cost >= part.heartbeats
        breakdown = system.metrics.average_cost_breakdown(skip=300)
        assert breakdown["detector"] > 0.0

    def test_detect_false_never_quarantines(self):
        plan = PartitionPlan(links=cut(2, SEQ, 3000.0, 5000.0),
                             detect=False)
        system, result = run("write_through", partitions=plan,
                             num_ops=2000, warmup=300)
        part = system.metrics.partition
        assert part.heartbeats == 0
        assert part.suspicions == 0 and part.rejoins == 0
        # the reliable layer bridged the outage by retrying across it
        assert system.metrics.reliability.retransmissions > 0
        assert result.incomplete_ops == 0
        system.check_coherence()


class TestDegradedModePolicies:
    def test_serve_local_reads_accounts_staleness(self):
        plan = PartitionPlan(links=cut(2, SEQ, 3000.0, 9000.0),
                             policy="serve_local_reads")
        system, result = run("write_through", partitions=plan,
                             num_ops=2000, warmup=300, monitor=True)
        part = system.metrics.partition
        assert part.rejoins >= 1
        assert part.stale_reads_served > 0
        # degraded reads are exempt from the SC witness: no violations
        assert not [v for v in result.violations if v.kind != "delivery"]
        system.check_coherence()

    def test_stall_holds_operations_instead(self):
        def stale(policy):
            plan = PartitionPlan(links=cut(2, SEQ, 3000.0, 9000.0),
                                 policy=policy)
            system, _ = run("write_through", partitions=plan,
                            num_ops=2000, warmup=300)
            return system.metrics.partition.stale_reads_served

        assert stale("stall") == 0
        assert stale("serve_local_reads") > 0


class TestDeterminism:
    def test_identical_seeds_identical_runs(self):
        def one():
            plan = PartitionPlan(
                seed=11,
                links=cut(2, SEQ, 3000.0, 8000.0)
                + [LinkFault(1, 3, 2000.0, 4000.0, drop_rate=0.5)],
            )
            system, result = run("berkeley", partitions=plan, num_ops=2000,
                                 warmup=300, seed=9)
            part = system.metrics.partition
            return (result.acc, result.messages, result.end_time,
                    part.heartbeats, part.suspicions, part.rejoins,
                    part.partition_time, part.cost)

        assert one() == one()

    def test_detector_stream_is_independent_of_fabric(self):
        """Attaching the detector must not change fault decisions: a
        degraded-link run with detect on/off sees identical drop rolls,
        so the coherence traffic differs only via quarantine effects.
        Here the link never severs fully and never triggers quarantine,
        so the runs must be identical up to detector traffic."""

        def one(detect):
            plan = PartitionPlan(
                seed=5, links=[LinkFault(1, 3, 2000.0, 4000.0,
                                         drop_rate=0.3)],
                detect=detect,
            )
            system, result = run("write_through", partitions=plan,
                                 num_ops=1500, warmup=300, seed=9)
            return (result.acc, system.metrics.reliability.drops)

        acc_on, drops_on = one(True)
        acc_off, drops_off = one(False)
        assert drops_on == drops_off
        assert acc_on == acc_off
