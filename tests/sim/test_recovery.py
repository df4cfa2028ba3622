"""Crash recovery: amnesia rejoin, sequencer failover, epoch resets.

The acceptance bar for the recovery subsystem: every registered protocol
survives a seeded sweep with amnesia crash windows — including a
sequencer crash that triggers failover — with zero consistency
violations, bit-identically between serial and parallel sweep execution;
and a deliberately sabotaged rejoin (resynchronization skipped) is caught
by the monitor as a structured violation, not a crash.
"""

import pytest

from repro.core.parameters import WorkloadParams
from repro.exp import SweepSpec, run_sweep
from repro.exp.runner import row_line
from repro.protocols.registry import EXTENSION_PROTOCOLS, PROTOCOLS
from repro.sim import CrashWindow, DSMSystem, FaultPlan, RunConfig
from repro.sim.partition import LinkFault, PartitionPlan
from repro.sim.recovery import RecoveryManager, WriteLog
from repro.workloads import read_disturbance_workload

PARAMS = WorkloadParams(N=4, p=0.3, a=3, sigma=0.15, S=100.0, P=30.0)
# every star protocol: amnesia crashes and sequencer failover are
# meaningless for the quorum family (DSMSystem rejects both by design).
ALL_PROTOCOLS = [name for name, spec
                 in {**PROTOCOLS, **EXTENSION_PROTOCOLS}.items()
                 if not spec.quorum_based]


def run(protocol, crashes, failover=False, monitor=True, ops=1200,
        warmup=200, seed=3, mean_gap=25.0):
    config = RunConfig(ops=ops, warmup=warmup, seed=seed,
                       mean_gap=mean_gap,
                       faults=FaultPlan(seed=1, crashes=crashes),
                       failover=failover, monitor=monitor)
    system = DSMSystem(protocol, N=PARAMS.N, M=2, S=PARAMS.S, P=PARAMS.P,
                       config=config)
    return system, system.run_workload(read_disturbance_workload(PARAMS, M=2))


class TestPayForWhatYouUse:
    def test_durable_only_plan_builds_no_recovery_manager(self):
        plan = FaultPlan(crashes=[(2, 100.0, 200.0)])
        system = DSMSystem("write_through", N=4,
                           config=RunConfig(faults=plan))
        assert system.recovery is None
        assert system.write_log is None
        assert system.monitor is None

    def test_amnesia_window_builds_recovery_manager(self):
        plan = FaultPlan(crashes=[(2, 100.0, 200.0, "amnesia")])
        system = DSMSystem("write_through", N=4,
                           config=RunConfig(faults=plan))
        assert system.recovery is not None
        assert system.write_log is not None

    def test_failover_flag_builds_recovery_manager(self):
        plan = FaultPlan(crashes=[(5, 100.0, 200.0)])
        system = DSMSystem("write_through", N=4,
                           config=RunConfig(faults=plan, failover=True))
        assert system.recovery is not None

    def test_failover_without_faults_rejected_by_config_check(self):
        system = DSMSystem("write_through", N=4)
        assert system.recovery is None


class TestAmnesiaRejoin:
    def test_client_amnesia_crash_recovers_cleanly(self):
        system, result = run("write_through",
                             [CrashWindow(2, 150.0, 300.0,
                                          semantics="amnesia")])
        assert result.violations == ()
        system.check_coherence()
        rec = system.metrics.recovery
        assert rec.epoch_resets >= 2  # crash edge + rejoin edge
        assert rec.quarantine_time > 0.0
        assert rec.resync_cost > 0.0

    def test_lost_submissions_are_accounted(self):
        # a long outage guarantees the crashed node's submissions die.
        system, result = run("write_through",
                             [CrashWindow(2, 100.0, 20_000.0,
                                          semantics="amnesia")],
                             ops=600, warmup=100)
        rec = system.metrics.recovery
        assert rec.ops_lost > 0
        assert result.incomplete_ops == rec.ops_lost
        assert result.violations == ()

    def test_recovery_share_in_breakdown(self):
        system, result = run("write_through",
                             [CrashWindow(2, 150.0, 300.0,
                                          semantics="amnesia")])
        breakdown = system.metrics.average_cost_breakdown(skip=200)
        assert breakdown["recovery"] > 0.0
        # acc keeps its PR-2 meaning (protocol + reliability).
        assert breakdown["acc"] == pytest.approx(
            breakdown["protocol"] + breakdown["reliability"]
        )

    def test_sequencer_amnesia_without_failover_recovers(self):
        # the sequencer's log is stable storage: it replays locally and
        # clients' retried traffic carries the protocol through.
        system, result = run("write_through",
                             [CrashWindow(5, 150.0, 300.0,
                                          semantics="amnesia")])
        assert result.violations == ()
        system.check_coherence()
        assert system.sequencer_id == 5  # no failover: role unchanged


class TestFailover:
    CRASH = [CrashWindow(5, 200.0, 400.0, semantics="amnesia")]

    def test_standby_election_promotes_lowest_live_node(self):
        system, result = run("write_through", self.CRASH, failover=True)
        assert system.metrics.recovery.failovers == 1
        assert system.sequencer_id == 1
        assert result.violations == ()
        system.check_coherence()

    def test_no_failback_after_rejoin(self):
        system, _ = run("write_through", self.CRASH, failover=True)
        # node 5 rejoined long before quiescence, yet stays a client.
        assert system.sequencer_id == 1
        assert 5 in system.nodes

    def test_election_and_snapshot_are_priced(self):
        system, _ = run("write_through", self.CRASH, failover=True)
        rec = system.metrics.recovery
        # election (4 live nodes) + standby snapshot (2 objects, S+1).
        assert rec.cost >= 4 + 2 * (PARAMS.S + 1.0)


class TestAcceptanceSweep:
    """Every protocol, amnesia + sequencer failover, serial == parallel."""

    def _spec(self):
        plan = FaultPlan(seed=1, crashes=[
            CrashWindow(5, 150.0, 300.0, semantics="amnesia"),
            CrashWindow(2, 500.0, 650.0, semantics="amnesia"),
        ])
        base = PARAMS.with_(p=0.0, sigma=0.0)
        return SweepSpec.cartesian(
            ALL_PROTOCOLS, base, p_values=[0.3], disturb_values=[0.15],
            kind="sim", M=2,
            config=RunConfig(ops=800, warmup=200, faults=plan,
                             failover=True, monitor=True),
            seed=7,
        )

    def test_all_protocols_zero_violations_serial_equals_parallel(self):
        spec = self._spec()
        serial = run_sweep(spec, workers=1)
        parallel = run_sweep(spec, workers=2)
        assert serial.failed == parallel.failed == 0
        assert sorted(row_line(r) for r in serial.rows) == \
            sorted(row_line(r) for r in parallel.rows)
        assert len(serial.rows) == len(ALL_PROTOCOLS)
        for row in serial.rows:
            assert row["status"] == "ok", row
            assert row["violations"] == 0, row
            assert row["failovers"] == 1, row
            assert row["epoch_resets"] >= 2, row


class TestMutation:
    """Sabotaged recovery must be *detected*, not crash the run."""

    def _crash_after_quiescence(self):
        # ops=60 at mean_gap=25 finish well before t=2000, so nothing
        # after the rejoin repairs the sabotaged replica.
        return [CrashWindow(2, 2000.0, 2200.0, semantics="amnesia")]

    def test_honest_rejoin_is_clean(self):
        system, result = run("write_through", self._crash_after_quiescence(),
                             ops=60, warmup=10, seed=5)
        assert result.violations == ()

    def test_skipped_resync_reported_as_divergence(self, monkeypatch):
        def sabotage(self, node):
            # rejoin WITHOUT resynchronizing: re-enable the node with a
            # stale readable replica and skip the epoch reset entirely.
            self._quarantined.discard(node.node_id)
            for port in node.ports.values():
                port.process.state = "VALID"
                port.process.value = -1  # garbage predating the crash
                port.local_enabled = True
            self._pump_all()

        monkeypatch.setattr(RecoveryManager, "_finish_rejoin", sabotage)
        system, result = run("write_through", self._crash_after_quiescence(),
                             ops=60, warmup=10, seed=5)
        assert any(v.kind == "divergence" for v in result.violations)
        bad = [v for v in result.violations if v.kind == "divergence"]
        assert any("node 2" in v.detail for v in bad)


class TestWriteLog:
    def test_late_install_of_the_initial_value_is_not_a_write(self):
        log = WriteLog()
        log.absorb(1, 3)  # the sequencer serializes write 3
        log.absorb(1, 0)  # a stale read grant of the initial value lands
        assert log.current(1) == 3
        assert log.version(1) == 1

    def test_partitioned_directory_keeps_a_completed_write(self):
        """A chaos cell (base seed 2403) whose late read grant of the
        initial value once made the write log read ``[3, 0]``: the epoch
        reset then rebuilt every copy with 0 and lost write 3, which the
        monitor reported as a sequential-consistency violation."""
        partitions = PartitionPlan(
            seed=1180012645, heartbeat_interval=30.0, suspect_after=2,
            links=[LinkFault(5, 1, 204.1, 276.1625, 0.503, 0.0, 1.17)],
        )
        config = RunConfig(ops=300, warmup=50, seed=477375047,
                           monitor=True, partitions=partitions)
        system = DSMSystem("write_through_dir", N=PARAMS.N, M=3,
                           S=PARAMS.S, P=PARAMS.P, config=config)
        result = system.run_workload(read_disturbance_workload(PARAMS, M=3))
        assert result.violations == ()
