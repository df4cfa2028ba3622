"""Bounded replica caches (partial replication, ``repro.sim.cache``).

The subsystem's acceptance bar: configuration is strict and
deterministic, each client ends a run with at most ``capacity``
resident copies, the counters and the ``cache`` cost share are
internally consistent, the quorum overlay never changes ``acc``, dirty
evictions write back (and a sabotaged write-back is *caught* by the
monitor as a structured violation), evicted copies are never
resurrected by crash resync, and a cache cell's sweep row is
byte-identical across repeated runs.
"""

from dataclasses import astuple

import pytest

from repro.core.parameters import WorkloadParams
from repro.exp import SweepCell, row_line, run_cell
from repro.sim import CacheConfig, CrashWindow, DSMSystem, FaultPlan, RunConfig
from repro.sim.cache import CACHE_POLICIES, PINNED_STATES
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=4, p=0.3, a=3, sigma=0.15, S=100.0, P=30.0,
                        hot_set=4, hot_fraction=0.9)
M = 16


def run(protocol, cache, ops=1500, warmup=200, seed=21, faults=None,
        sabotage=False):
    config = RunConfig(ops=ops, warmup=warmup, seed=seed, monitor=True,
                      cache=cache, faults=faults)
    system = DSMSystem(protocol, N=PARAMS.N, M=M, S=PARAMS.S, P=PARAMS.P,
                       config=config)
    if sabotage:
        for node_id in range(1, PARAMS.N + 1):
            system.nodes[node_id].cache.sabotage_writeback = True
    result = system.run_workload(read_disturbance_workload(PARAMS, M=M))
    return system, result


class TestCacheConfig:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="at least 1"):
            CacheConfig(capacity=0)

    def test_unknown_policy_suggests(self):
        with pytest.raises(ValueError, match="did you mean 'lru'"):
            CacheConfig(policy="lur")

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="capacity"):
            CacheConfig.from_dict({"capactiy": 2})

    def test_round_trip(self):
        config = CacheConfig(capacity=3, policy="clock", seed=11)
        again = CacheConfig.from_dict(config.to_dict())
        assert again == config and hash(again) == hash(config)
        assert astuple(again) == (3, "clock", 11)

    def test_runconfig_checks_nested_cache_keys(self):
        with pytest.raises(ValueError, match="policy"):
            RunConfig.from_dict({"ops": 100, "cache": {"polcy": "lru"}})

    def test_runconfig_cache_round_trip(self):
        config = RunConfig(ops=100, seed=5,
                          cache=CacheConfig(capacity=2, seed=9))
        data = config.to_dict()
        assert data["cache"] == {"capacity": 2, "policy": "lru", "seed": 9}
        assert RunConfig.from_dict(data).to_dict() == data

    def test_no_cache_serializes_without_the_key(self):
        # pay-for-what-you-use: pre-cache cell ids and cache keys are
        # byte-identical to a tree without the subsystem.
        assert "cache" not in RunConfig(ops=100, seed=5).to_dict()

    def test_cache_must_be_a_cacheconfig(self):
        with pytest.raises(TypeError, match="CacheConfig"):
            RunConfig(ops=100, cache={"capacity": 2})


class TestResidency:
    @pytest.mark.parametrize("protocol", ["write_through", "firefly",
                                          "synapse", "berkeley", "dragon"])
    def test_clients_end_within_capacity(self, protocol):
        system, result = run(protocol, CacheConfig(capacity=3, seed=7))
        assert result.violations == ()
        system.check_coherence()
        # owner copies (Berkeley, Dragon) are the objects' backing store:
        # pinned, so only the evictable copies count against the bound.
        pinned = PINNED_STATES.get(protocol, frozenset()) | {"INVALID"}
        for node_id in range(1, PARAMS.N + 1):
            states = [port.process.state
                      for port in system.nodes[node_id].ports.values()]
            assert sum(st not in pinned for st in states) <= 3, node_id
        # home copies are the memory of record: the sequencer never
        # evicts, however many objects it touches.
        seq = system.sequencer_id
        evictions = system.metrics.cache.evictions
        for obj in range(1, M + 1):
            system.submit(seq, "read", obj=obj)
            system.settle()
        assert system.metrics.cache.evictions == evictions
        assert not system.nodes[seq].cache.evicted

    def test_evicted_objects_are_not_resident(self):
        system, _ = run("write_through", CacheConfig(capacity=2, seed=7))
        cache = system.nodes[1].cache
        assert cache.evicted  # capacity 2 over 16 objects must evict
        for obj in cache.evicted:
            assert cache.is_evicted(obj)
            assert system.copy_state(1, obj) == "INVALID"

    @pytest.mark.parametrize("policy", CACHE_POLICIES)
    def test_every_policy_runs_clean(self, policy):
        system, result = run("write_through",
                             CacheConfig(capacity=2, policy=policy, seed=7),
                             ops=800, warmup=100)
        assert result.violations == ()
        assert system.metrics.cache.evictions > 0
        # a cache holding the whole working set never evicts and costs
        # exactly what full replication does; the tight one thrashes.
        roomy, _ = run("write_through",
                       CacheConfig(capacity=M, policy=policy, seed=7),
                       ops=800, warmup=100)
        bare, _ = run("write_through", None, ops=800, warmup=100)
        assert roomy.metrics.cache.evictions == 0
        acc = roomy.metrics.average_cost(skip=100)
        assert acc == bare.metrics.average_cost(skip=100)
        assert system.metrics.average_cost(skip=100) > acc


class TestCounters:
    def test_counter_and_share_invariants(self):
        system, result = run("firefly", CacheConfig(capacity=3, seed=7))
        stats = system.metrics.cache
        assert stats.hits > 0 and stats.misses > 0
        assert 0 < stats.capacity_misses <= stats.misses
        assert stats.evictions > 0
        assert stats.refetch_cost > 0.0
        assert stats.cost >= stats.refetch_cost
        breakdown = system.metrics.average_cost_breakdown(skip=200)
        assert breakdown["cache"] > 0.0
        assert breakdown["acc"] == pytest.approx(
            breakdown["protocol"] + breakdown["reliability"]
            + breakdown["quorum"] + breakdown["hedge"]
            + breakdown["cache"]
        )

    def test_no_cache_keeps_counters_zero(self):
        system, _ = run("firefly", None, ops=600, warmup=100)
        stats = system.metrics.cache
        assert stats.hits == stats.misses == stats.evictions == 0
        assert system.metrics.average_cost_breakdown(skip=100)["cache"] \
            == 0.0

    def test_identical_configs_are_deterministic(self):
        a_sys, a = run("write_through", CacheConfig(capacity=2, seed=7),
                       ops=800, warmup=100)
        b_sys, b = run("write_through", CacheConfig(capacity=2, seed=7),
                       ops=800, warmup=100)
        assert a_sys.metrics.average_cost(skip=100) == \
            b_sys.metrics.average_cost(skip=100)
        assert a_sys.metrics.cache == b_sys.metrics.cache


class TestQuorumOverlay:
    def test_sc_abd_acc_is_exactly_flat(self):
        bare, _ = run("sc_abd", None, ops=800, warmup=100)
        for policy in CACHE_POLICIES:
            capped, result = run(
                "sc_abd", CacheConfig(capacity=2, policy=policy, seed=7),
                ops=800, warmup=100)
            assert result.violations == ()
            # the quorum replicas are load-bearing: bounding what a
            # client holds locally cannot change what the rounds cost.
            assert capped.metrics.average_cost(skip=100) == \
                bare.metrics.average_cost(skip=100), policy
            assert capped.metrics.cache.evictions > 0
            assert capped.metrics.cache.writebacks == 0


class TestWriteBack:
    def test_dirty_evictions_flush_home(self):
        system, result = run("write_once", CacheConfig(capacity=2, seed=7))
        assert result.violations == ()
        system.check_coherence()
        assert system.metrics.cache.writebacks > 0

    @pytest.mark.parametrize("protocol", ["write_once", "illinois",
                                          "synapse"])
    def test_sabotaged_writeback_is_caught(self, protocol):
        # mutation test: a dirty eviction that flushes a stale value
        # loses the copy's writes — the monitor must report it as a
        # structured violation, not a crash.
        _, result = run(protocol, CacheConfig(capacity=2, seed=7),
                        sabotage=True)
        assert result.violations
        kinds = {v.kind for v in result.violations}
        assert kinds <= {"divergence", "sequential_consistency"}

    def test_sabotage_hook_defaults_off(self):
        system, _ = run("write_once", CacheConfig(capacity=2, seed=7),
                        ops=400, warmup=50)
        assert not system.nodes[1].cache.sabotage_writeback


class TestEvictedIsNotInvalidated:
    def test_amnesia_resync_never_resurrects_evicted_copies(self):
        plan = FaultPlan(seed=1, crashes=[
            CrashWindow(2, 150.0, 300.0, semantics="amnesia"),
        ])
        system, result = run("write_through", CacheConfig(capacity=3, seed=7),
                             faults=plan)
        assert result.violations == ()
        system.check_coherence()
        assert system.metrics.recovery.epoch_resets >= 2
        cache = system.nodes[2].cache
        for obj in cache.evicted:
            # rejoin resync skipped what the cache had given up: the
            # copy must be re-fetched and paid for, not warm-installed.
            assert system.copy_state(2, obj) == "INVALID"


class TestSweepRows:
    CELL = SweepCell(
        protocol="write_through", params=PARAMS, kind="sim", M=M,
        config=RunConfig(ops=600, warmup=100, seed=5, monitor=True,
                        cache=CacheConfig(capacity=2, policy="clock",
                                          seed=3)),
    )

    def test_cache_cell_rows_are_byte_identical(self):
        assert row_line(run_cell(self.CELL)) == row_line(run_cell(self.CELL))

    def test_cache_columns_only_when_configured(self):
        row = run_cell(self.CELL)
        assert row["cache_evictions"] > 0
        assert row["acc_cache_share"] > 0.0
        bare = SweepCell(protocol="write_through", params=PARAMS,
                         kind="sim", M=M,
                         config=RunConfig(ops=600, warmup=100, seed=5))
        assert "cache_hits" not in run_cell(bare)

    def test_payload_round_trip_keeps_cell_id(self):
        again = SweepCell.from_payload(self.CELL.to_payload())
        assert again.cell_id() == self.CELL.cell_id()
        assert again.config.cache == self.CELL.config.cache
