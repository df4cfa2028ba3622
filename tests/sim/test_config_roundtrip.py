"""Serialization round-trips for every run-configuration object.

The sweep cache, the JSONL output and the chaos repro files all rely on
``to_dict`` / ``from_dict`` being loss-free and on plan equality being
a pure function of the configuration.  Rather than enumerating cases by
hand, these tests build randomized-but-seeded configurations (so every
run exercises the same population) and assert the round trip is exact.
"""

import math
import random
from dataclasses import replace

import pytest

from repro.obs.trace import TraceConfig
from repro.sim.config import RunConfig
from repro.sim.faults import CRASH_SEMANTICS, CrashWindow, FaultPlan
from repro.sim.partition import LinkFault, PartitionPlan
from repro.sim.reliable import ReliabilityConfig


def random_fault_plan(rng):
    crashes = []
    taken = {}  # node -> list of (start, end); overlapping draws discarded
    for _ in range(rng.randrange(0, 4)):
        node = rng.randint(1, 6)
        start = rng.uniform(0.0, 5000.0)
        if rng.random() < 0.3:
            end = math.inf
        else:
            end = start + rng.uniform(10.0, 900.0)
        if any(start < e and s < end for s, e in taken.get(node, [])):
            continue
        taken.setdefault(node, []).append((start, end))
        crashes.append(CrashWindow(
            node, start, end, semantics=rng.choice(CRASH_SEMANTICS)))
    return FaultPlan(
        seed=rng.getrandbits(32),
        drop_rate=rng.choice([0.0, rng.uniform(0.0, 0.4)]),
        duplicate_rate=rng.choice([0.0, rng.uniform(0.0, 0.4)]),
        jitter=rng.choice([0.0, rng.uniform(0.0, 5.0)]),
        crashes=crashes,
    )


def random_partition_plan(rng):
    links = []
    for _ in range(rng.randrange(0, 4)):
        src = rng.randint(1, 6)
        dst = rng.randint(1, 5)
        if dst >= src:
            dst += 1
        start = rng.uniform(0.0, 5000.0)
        end = (math.inf if rng.random() < 0.3
               else start + rng.uniform(10.0, 900.0))
        links.append(LinkFault(
            src, dst, start, end,
            drop_rate=rng.choice([1.0, rng.uniform(0.1, 0.9)]),
            duplicate_rate=rng.choice([0.0, rng.uniform(0.0, 0.5)]),
            jitter=rng.choice([0.0, rng.uniform(0.0, 4.0)]),
        ))
    return PartitionPlan(
        seed=rng.getrandbits(32),
        links=links,
        heartbeat_interval=rng.choice([20.0, 40.0, 60.0]),
        suspect_after=rng.randint(1, 5),
        policy=rng.choice(["stall", "serve_local_reads"]),
        detect=rng.random() < 0.8,
    )


def random_reliability(rng):
    return ReliabilityConfig(
        timeout=rng.uniform(2.0, 16.0),
        backoff=rng.uniform(1.0, 3.0),
        max_retries=rng.randint(0, 20),
    )


def random_run_config(rng):
    faults = random_fault_plan(rng)
    partitions = random_partition_plan(rng)
    return RunConfig(
        ops=rng.randint(1, 5000),
        warmup=None if rng.random() < 0.5 else 0,
        seed=None if rng.random() < 0.2 else rng.getrandbits(32),
        mean_gap=rng.uniform(5.0, 50.0),
        faults=None if faults.is_none else faults,
        partitions=None if partitions.is_none else partitions,
        reliability=(None if rng.random() < 0.3
                     else random_reliability(rng)),
        failover=rng.random() < 0.5,
        monitor=rng.random() < 0.5,
        tracing=(None if rng.random() < 0.5
                 else TraceConfig(sample_every=rng.randint(1, 200))),
    )


SEEDS = range(40)


class TestFaultPlanRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_to_from_dict_exact(self, seed):
        plan = random_fault_plan(random.Random(seed))
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.to_dict() == plan.to_dict()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_config_key_ignores_rng_state(self, seed):
        plan = random_fault_plan(random.Random(seed))
        fresh = replace(plan)
        if plan.drop_rate > 0:
            plan._rng.random()  # consume the stream, as a drop roll does
        assert plan == fresh and hash(plan) == hash(fresh)
        assert replace(plan) == plan


class TestPartitionPlanRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_to_from_dict_exact(self, seed):
        plan = random_partition_plan(random.Random(seed))
        clone = PartitionPlan.from_dict(plan.to_dict())
        assert clone == plan
        assert clone.to_dict() == plan.to_dict()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_config_key_ignores_rng_state(self, seed):
        plan = random_partition_plan(random.Random(seed))
        fresh = replace(plan)
        for f in plan.links:
            if 0 < f.drop_rate < 1:
                plan._rng.random()  # one link drop roll per degraded link
        assert plan == fresh and hash(plan) == hash(fresh)
        assert replace(plan) == plan


class TestReliabilityRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_to_from_dict_exact(self, seed):
        cfg = random_reliability(random.Random(seed))
        clone = ReliabilityConfig.from_dict(cfg.to_dict())
        assert clone == cfg
        assert clone.to_dict() == cfg.to_dict()


class TestRunConfigRoundTrip:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_to_from_dict_exact(self, seed):
        config = random_run_config(random.Random(seed))
        clone = RunConfig.from_dict(config.to_dict())
        assert clone.to_dict() == config.to_dict()
        # nested plans survive with identity (not just dict equality)
        assert clone.faults == config.faults
        assert clone.partitions == config.partitions
        assert clone.reliability == config.reliability

    @pytest.mark.parametrize("seed", SEEDS)
    def test_dict_is_json_plain(self, seed):
        import json

        config = random_run_config(random.Random(seed))
        text = json.dumps(config.to_dict(), sort_keys=True)
        assert RunConfig.from_dict(json.loads(text)).to_dict() \
            == config.to_dict()

    def test_key_dict_stability_through_sweep_cell(self):
        """The cache key of a sim cell is stable across payload
        round-trips (a cache hit tomorrow equals a cache hit today)."""
        from repro.core.parameters import WorkloadParams
        from repro.exp.spec import SweepCell

        rng = random.Random(99)
        params = WorkloadParams(N=4, p=0.3, a=3, sigma=0.15,
                                S=100.0, P=30.0)
        for _ in range(10):
            config = random_run_config(rng)
            cell = SweepCell(protocol="berkeley", params=params,
                             kind="sim", M=2, config=config)
            clone = SweepCell.from_payload(cell.to_payload())
            assert clone.key_dict() == cell.key_dict()


class TestDescribeRobustness:
    """The unified banner renders every robustness layer, including the
    silently-defaulted retry policy (previously invisible)."""

    def test_paper_faithful_config_says_so(self):
        text = RunConfig().describe_robustness()
        assert "faults:      none" in text
        assert "partitions:  none" in text
        assert "reliability: none (paper-faithful fabric)" in text
        assert "failover:    off" in text
        assert "monitor:     off" in text

    def test_partitions_only_surfaces_detector_and_defaulted_retries(self):
        plan = PartitionPlan(links=[LinkFault(1, 2, 0.0, 100.0)],
                             policy="serve_local_reads")
        text = RunConfig(partitions=plan, monitor=True).describe_robustness()
        assert "policy=serve_local_reads" in text
        assert "detector(" in text
        assert "max_retries=10 (defaulted)" in text
        assert "monitor:     on" in text

    def test_explicit_reliability_is_not_marked_defaulted(self):
        config = RunConfig(
            faults=FaultPlan(drop_rate=0.1),
            reliability=ReliabilityConfig(timeout=6.0, max_retries=8),
        )
        text = config.describe_robustness()
        assert "timeout=6, backoff=2, max_retries=8" in text
        assert "(defaulted)" not in text
