"""Unit tests for the DSMSystem facade."""

import hashlib
import itertools
import re

import pytest

from repro.core.parameters import WorkloadParams
from repro.obs.trace import TraceConfig
from repro.protocols.sc_abd import SCABDProcess
from repro.sim import (CacheConfig, CrashWindow, DSMSystem, FaultPlan,
                       HedgeConfig, LinkFault, MembershipChange,
                       PartitionPlan, ReconfigPlan, ReliabilityConfig,
                       RunConfig, SlowWindow)
from repro.sim.channel import Network
from repro.sim.engine import EventScheduler, TimerHandle
from repro.sim.system import _SUBSYSTEMS
from repro.workloads import (read_disturbance_workload,
                             write_disturbance_workload)

#: the ``RunConfig`` fields each optional-subsystem knob sets
FAMILY_CASES = {
    "faults": dict(faults=FaultPlan(
        seed=3, drop_rate=0.05, crashes=[CrashWindow(2, 100.0, 300.0)],
        slowdowns=[SlowWindow(3, 50.0, 400.0, 4.0)])),
    "amnesia": dict(faults=FaultPlan(
        crashes=[CrashWindow(2, 0.0, 50.0, "amnesia")])),
    "partitions": dict(partitions=PartitionPlan(
        seed=5, links=(LinkFault(1, 5, 200.0, 500.0),))),
    "reliability": dict(reliability=ReliabilityConfig()),
    "failover": dict(failover=True),
    "monitor": dict(monitor=True),
    "tracing": dict(tracing=TraceConfig()),
    "reconfig": dict(reconfig=ReconfigPlan(
        changes=[MembershipChange(at=100.0, joins=(6,))])),
    "quorum_weights": dict(quorum_weights={1: 2.0}),
    "hedge": dict(hedge=HedgeConfig()),
    "cache": dict(cache=CacheConfig(capacity=1)),
}

#: the protocol family each family-bound knob needs and the error a
#: protocol of the other family raises, in the order the constructor
#: checks them
FAMILY_ERRORS = {
    "failover": (
        "sequencer",
        "has no sequencer to fail over; drop failover=True (a majority "
        "of replicas is sufficient for liveness)"),
    "amnesia": (
        "sequencer",
        "requires durable replicas: amnesia crash semantics would forget "
        "quorum-acknowledged state; use crash_semantics='durable'"),
    "reconfig": (
        "quorum",
        "has a fixed star membership; online reconfiguration (reconfig=) "
        "needs a quorum protocol"),
    "quorum_weights": (
        "quorum",
        "has no quorums to weight; quorum_weights= needs a quorum "
        "protocol"),
    "hedge": (
        "quorum",
        "has no quorum phases to hedge; hedge= needs a quorum protocol"),
}

#: the protocols of the composition matrix: three star protocols and the
#: quorum protocol
MATRIX_PROTOCOLS = ("write_through", "berkeley", "write_once", "sc_abd")

#: the system attributes an optional subsystem fills when it is built
SUBSYSTEM_ATTRS = ("tracer", "membership", "reconfig", "monitor",
                   "write_log", "recovery", "detector")

#: sha256 over every composing cell of the matrix: its protocol, knob
#: pair, built subsystems and the run's (acc, messages, events executed,
#: incomplete operations)
MATRIX_DIGEST = ("178ff0e97aad0f3d79d7c8c0d7eb1520"
                 "142940171d4e0e7e7a6e3670ffdf264c")


def _expected_error(protocol, knobs):
    """The named error a protocol raises for a knob set, or ``None``."""
    quorum = protocol == "sc_abd"
    for knob, (family, error) in FAMILY_ERRORS.items():
        if knob in knobs and quorum != (family == "quorum"):
            return f"{protocol} {error}"
    return None


def _matrix_cell(protocol, knobs):
    """Build and run one cell; return what it built and measured."""
    fields = {}
    for knob in knobs:
        fields.update(FAMILY_CASES[knob])
    config = RunConfig(ops=60, seed=7, **fields)
    params = WorkloadParams(N=4, p=0.3, a=2, sigma=0.1, S=100, P=30)
    system = DSMSystem(protocol, N=4, M=2, config=config)
    result = system.run_workload(read_disturbance_workload(params, M=2))
    system.check_coherence()
    built = tuple(attr for attr in SUBSYSTEM_ATTRS
                  if getattr(system, attr) is not None)
    return (protocol, knobs, type(system.network).__name__, built,
            repr(result.acc), result.messages, system.scheduler.executed,
            result.incomplete_ops)


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            DSMSystem("write_through", N=0)
        with pytest.raises(ValueError):
            DSMSystem("write_through", N=3, M=0)
        with pytest.raises(KeyError):
            DSMSystem("mesi", N=3)

    def test_accepts_spec_object(self):
        from repro.protocols import get_protocol
        system = DSMSystem(get_protocol("berkeley"), N=2)
        assert system.spec.name == "berkeley"

    def test_node_layout(self):
        system = DSMSystem("write_through", N=4, M=2)
        assert system.sequencer_id == 5
        assert system.all_nodes == (1, 2, 3, 4, 5)
        assert len(system.nodes) == 5


class TestProtocolFamilyRules:
    """Every run knob either composes with a protocol family or is
    rejected with the rule's named error."""

    @pytest.mark.parametrize("protocol", ["write_through", "sc_abd"])
    @pytest.mark.parametrize("knob", sorted(FAMILY_ERRORS))
    def test_knob_builds_or_names_its_family(self, knob, protocol):
        family, error = FAMILY_ERRORS[knob]
        config = RunConfig(ops=50, seed=1, **FAMILY_CASES[knob])
        if (protocol == "sc_abd") != (family == "quorum"):
            with pytest.raises(ValueError,
                               match=re.escape(f"{protocol} {error}")):
                DSMSystem(protocol, N=4, config=config)
            return
        params = WorkloadParams(N=4, p=0.3, a=2, sigma=0.1, S=100, P=30)
        system = DSMSystem(protocol, N=4, config=config)
        result = system.run_workload(read_disturbance_workload(params, M=1))
        assert result.total_ops == 50
        assert result.measured > 0

    def test_each_family_rule_is_declared_once(self):
        """The system's subsystem table states each knob's family and
        error once, and only that knob's rule fires on its case."""
        for knob, rule in FAMILY_ERRORS.items():
            config = RunConfig(**FAMILY_CASES[knob])
            fired = [(sub.family, error) for sub in _SUBSYSTEMS
                     for is_set, error in sub.rules if is_set(config)]
            assert fired == [rule], knob
        declared = [error for sub in _SUBSYSTEMS for _, error in sub.rules]
        assert len(declared) == len(FAMILY_ERRORS)

    def test_every_pair_composes_or_names_its_family(self):
        """Each protocol crossed with every pair of knobs that set
        different fields either raises the family's named error or
        builds, runs 60 operations and stays coherent; the composing
        cells' subsystems and results are pinned by one digest."""
        cells = []
        for protocol in MATRIX_PROTOCOLS:
            for pair in itertools.combinations(FAMILY_CASES, 2):
                if set(FAMILY_CASES[pair[0]]) & set(FAMILY_CASES[pair[1]]):
                    continue  # both knobs set the same field
                error = _expected_error(protocol, pair)
                if error is not None:
                    with pytest.raises(ValueError, match=re.escape(error)):
                        _matrix_cell(protocol, pair)
                    continue
                cells.append(_matrix_cell(protocol, pair))
        assert len(cells) == 117
        digest = hashlib.sha256(repr(cells).encode()).hexdigest()
        assert digest == MATRIX_DIGEST


class TestRunWorkload:
    def _run(self, protocol="write_through", **kw):
        params = WorkloadParams(N=3, p=0.3, a=2, sigma=0.2, S=100, P=30)
        wl = read_disturbance_workload(params, M=2)
        system = DSMSystem(protocol, N=3, M=2, S=100, P=30)
        defaults = dict(ops=600, warmup=100, seed=1)
        defaults.update(kw)
        return system, system.run_workload(wl, RunConfig(**defaults))

    def test_all_ops_complete(self):
        system, res = self._run()
        assert res.measured == 500
        assert system.metrics.completed_count == 600

    def test_acc_reproducible_with_seed(self):
        _, r1 = self._run(seed=42)
        _, r2 = self._run(seed=42)
        assert r1.acc == r2.acc

    def test_different_seeds_differ(self):
        _, r1 = self._run(seed=1)
        _, r2 = self._run(seed=2)
        assert r1.acc != r2.acc

    def test_warmup_must_be_smaller(self):
        with pytest.raises(ValueError):
            self._run(ops=100, warmup=100)

    def test_workload_object_count_checked(self):
        params = WorkloadParams(N=3, p=0.3, a=2, sigma=0.2)
        wl = read_disturbance_workload(params, M=5)
        system = DSMSystem("write_through", N=3, M=2)
        with pytest.raises(ValueError):
            system.run_workload(wl, RunConfig(ops=100, warmup=10))

    def test_cost_conservation(self):
        """Every charged message cost lands on exactly one operation."""
        system, res = self._run()
        total_attr = system.total_attributed_cost()
        assert system.metrics.unattributed_cost == 0.0
        # recompute total message cost from records
        assert total_attr == pytest.approx(
            sum(r.cost for r in system.metrics.records())
        )

    def test_coherence_after_run(self):
        system, _ = self._run(protocol="berkeley")
        system.check_coherence()

    def test_clock_is_a_plain_float(self):
        """The arrival gaps reach the scheduler as Python floats, so no
        numpy scalar leaks into the clock, the result or the op records."""
        system, res = self._run()
        assert type(system.scheduler.now) is float
        assert type(res.end_time) is float
        records = system.metrics.records()
        assert len(records) == 600
        for rec in records:
            assert type(rec.issue_time) is float
            assert type(rec.complete_time) is float

    def test_max_events_cutoff_is_not_reported_as_deadlock(self):
        """A run cut short by the max_events safety net still has events
        pending; the error names the cap and both counts."""
        params = WorkloadParams(N=4, p=0.3, a=2, sigma=0.2, S=100, P=30)
        system = DSMSystem("berkeley", N=4, M=1)
        with pytest.raises(RuntimeError) as info:
            system.run_workload(read_disturbance_workload(params),
                                RunConfig(ops=1000, seed=1, max_events=500))
        message = str(info.value)
        assert "deadlock" not in message
        pending = len(system.scheduler)
        assert pending > 0
        assert (f"max_events=500 ({system.scheduler.executed} events "
                f"executed, {pending} pending)") in message

    def test_max_events_cap_is_exact_inside_a_fan_out(self):
        """A fan-out's members fire back to back, yet the cap stops
        inside one: the counts are those of one event per step."""
        params = WorkloadParams(N=4, p=0.3, a=2, sigma=0.2, S=100, P=30)
        system = DSMSystem("firefly", N=4, M=1)
        with pytest.raises(RuntimeError, match=r"max_events=500 \(500 "
                           r"events executed, 3 pending\)"):
            system.run_workload(read_disturbance_workload(params),
                                RunConfig(ops=1000, seed=1, max_events=500))
        assert (system.scheduler.executed, len(system.scheduler)) == (500, 3)

    @pytest.mark.parametrize("protocol, cap, counts", [
        ("write_through", 2347, (2347, 4)),
        ("berkeley", 500, (500, 8)),
        ("firefly", 1001, (1001, 9)),
        ("sc_abd", 2347, (2347, 7)),
    ])
    def test_max_events_cap_counts_on_fan_out_heavy_runs(
            self, protocol, cap, counts):
        """``(executed, pending)`` at the cap under write disturbance,
        where most events are broadcast members; recorded with one
        event per engine step."""
        params = WorkloadParams(N=8, p=0.3, a=6, xi=0.1, S=100, P=30)
        system = DSMSystem(protocol, N=8, M=2)
        with pytest.raises(RuntimeError, match="run stopped at max_events"):
            system.run_workload(write_disturbance_workload(params),
                                RunConfig(ops=2000, seed=3, max_events=cap))
        assert (system.scheduler.executed, len(system.scheduler)) == counts


class TestEventAccounting:
    """Every event that enters the scheduler fires once or is cancelled,
    counted at integration scale by wrapping the scheduler's entry
    points, on the fabrics that mix lane posts, heap fallbacks, timers
    and cancellations."""

    PARAMS = WorkloadParams(N=4, p=0.2, a=2, sigma=0.1, S=50.0, P=20.0)

    @pytest.fixture
    def ledger(self, monkeypatch):
        """Counts of what enters and leaves the scheduler; wrap before the
        system is built, since the fabric binds some methods once."""
        book = {"lane": 0, "heap": 0, "timers": 0, "cancels": 0,
                "cancel_calls": 0}
        post = EventScheduler.post
        post_many = EventScheduler.post_many
        post_at = EventScheduler._post_at
        push = EventScheduler._push
        arm = EventScheduler._arm
        cancel = TimerHandle.cancel

        def counting_post(sched, delay, callback, arg):
            ahead = sched.now + delay < sched._lane_tail
            book["heap" if ahead else "lane"] += 1
            post(sched, delay, callback, arg)

        def counting_post_many(sched, delay, calls):
            ahead = sched.now + delay < sched._lane_tail
            book["heap" if ahead else "lane"] += len(calls)
            post_many(sched, delay, calls)

        def counting_post_at(sched, *args):
            book["heap"] += 1
            post_at(sched, *args)

        def counting_push(sched, *args):
            book["timers"] += 1
            return push(sched, *args)

        def counting_arm(sched, *args):
            # a reliable transport's pending send, armed as its own timer
            book["timers"] += 1
            arm(sched, *args)

        def counting_cancel(handle):
            cancelled = cancel(handle)
            book["cancel_calls"] += 1
            book["cancels"] += cancelled
            return cancelled

        monkeypatch.setattr(EventScheduler, "post", counting_post)
        monkeypatch.setattr(EventScheduler, "post_many", counting_post_many)
        monkeypatch.setattr(EventScheduler, "_post_at", counting_post_at)
        monkeypatch.setattr(EventScheduler, "_push", counting_push)
        monkeypatch.setattr(EventScheduler, "_arm", counting_arm)
        monkeypatch.setattr(TimerHandle, "cancel", counting_cancel)
        return book

    def _run(self, config, protocol="berkeley"):
        system = DSMSystem(protocol, N=self.PARAMS.N, M=2, S=self.PARAMS.S,
                           P=self.PARAMS.P, config=config)
        result = system.run_workload(
            read_disturbance_workload(self.PARAMS, M=2))
        return system, result

    @staticmethod
    def assert_balanced(book, scheduler):
        """Drain what the run left pending (acks, spent retry timers),
        then every entered event fired once or was cancelled."""
        scheduler.run()
        assert len(scheduler) == 0
        entered = book["lane"] + book["heap"] + book["timers"]
        assert scheduler.executed == entered - book["cancels"]

    @pytest.mark.parametrize("faulty", [False, True])
    def test_every_live_event_fires_once_on_a_reliable_fabric(
            self, ledger, faulty):
        """Retransmission timers sit in the heap and frames on the
        physical fabric, faulty or not, are posted handle-free."""
        faults = (FaultPlan(seed=1, drop_rate=0.05,
                            crashes=[CrashWindow(2, 300.0, 600.0)])
                  if faulty else None)
        system, _ = self._run(RunConfig(ops=300, warmup=30, seed=2,
                                        faults=faults,
                                        reliability=ReliabilityConfig()))
        assert system.metrics.reliability.acks > 0  # timers were armed
        assert ledger["lane"] and ledger["timers"]
        self.assert_balanced(ledger, system.scheduler)

    def test_every_live_event_fires_once_on_a_jittered_fabric(self, ledger):
        """Jitter sends some faulty deliveries to the lane and some, due
        before the lane's tail, to the heap; with drops, retry timers are
        armed, cancelled on ack and fired."""
        faults = FaultPlan(seed=3, drop_rate=0.05, duplicate_rate=0.05,
                           jitter=2.0)
        system, _ = self._run(RunConfig(ops=300, warmup=30, seed=2,
                                        faults=faults,
                                        reliability=ReliabilityConfig()))
        assert ledger["lane"] and ledger["heap"]
        assert ledger["cancels"]  # acked retry timers left in the heap
        assert system.metrics.reliability.retransmissions > 0
        self.assert_balanced(ledger, system.scheduler)

    def test_deliveries_match_messages_on_a_fault_free_quorum_run(
            self, ledger, monkeypatch):
        """sc_abd on the plain fabric mixes lane posts (deliveries), heap
        timers (quorum phases) and timers cancelled when a phase
        completes.  Every counted message is one fabric delivery, to the
        node handler attached to the fabric, and one ``on_message`` at
        the receiving port."""
        fabric = []
        ports = []
        attach = Network.attach
        on_message = SCABDProcess.on_message

        def counting_attach(net, node_id, handler):
            def counting_handler(msg):
                fabric.append(msg)
                handler(msg)

            attach(net, node_id, counting_handler)

        def counting_on_message(process, msg):
            ports.append(msg)
            on_message(process, msg)

        monkeypatch.setattr(Network, "attach", counting_attach)
        monkeypatch.setattr(SCABDProcess, "on_message", counting_on_message)
        system, result = self._run(RunConfig(ops=300, warmup=30, seed=2),
                                   protocol="sc_abd")
        assert result.incomplete_ops == 0
        assert ledger["lane"] and ledger["timers"] and ledger["cancels"]
        assert len(fabric) == result.messages
        assert len(ports) == len(fabric)
        self.assert_balanced(ledger, system.scheduler)


class TestInspection:
    def test_copy_state_and_value(self):
        system = DSMSystem("write_through", N=2, M=1, S=100, P=30)
        system.submit(1, "write", params=5)
        system.settle()
        assert system.copy_state(1) == "INVALID"
        assert system.copy_value(3) == 5
        assert system.authoritative_value() == 5

    def test_check_coherence_detects_corruption(self):
        system = DSMSystem("write_through", N=2, M=1, S=100, P=30)
        system.submit(1, "read")
        system.settle()
        # corrupt a VALID copy behind the protocol's back
        system.nodes[1].process_for(1).value = "garbage"
        with pytest.raises(AssertionError):
            system.check_coherence()


@pytest.mark.parametrize("protocol", ["berkeley", "write_through", "sc_abd"])
@pytest.mark.parametrize("kind", ["bogus", "acquire"])
def test_submit_rejects_unknown_kind(protocol, kind):
    system = DSMSystem(protocol, N=2, M=1, S=100, P=1)
    with pytest.raises(ValueError, match="read, write, eject"):
        system.submit(2, kind)
    assert len(system.scheduler) == 0
