"""Simulator identity: pinned outputs of every protocol, plain and faulty.

Speed-ups of the event path (the engine's FIFO lane, handle-free channel
deliveries, arrivals generated one at a time, shared message tokens) and
of the faulty fabric (one link-fault lookup per transmission, indexed
fault windows, handle-free faulty deliveries, lighter transport frames)
must not move a single simulated number.  These values were recorded
before those changes; every protocol's ``(acc, messages, events,
end_time)`` and steady-state trace histogram must reproduce them exactly,
on the faulty fabric so must the reliability, partition and recovery
counters, and traced runs must export byte-identical Chrome and JSONL
traces.  Three larger sc_abd runs pin the quorum paths the N=4 runs never
reach: initiators outside the core quorum, re-selection and hedging
around a straggler, and the membership-view predicate.

Under ``frozen_messages`` a built message and its dict payload are both
read-only, so a handler that mutated a payload another message shares
(an sc_abd fan-out sends one payload to every target) fails loudly.
"""

import dataclasses
import hashlib

import pytest

from repro.core import WorkloadParams
from repro.machines.message import (
    Message, MessageToken, MsgType, ParamPresence, QueueTag,
)
from repro.obs import TraceConfig
from repro.obs.export import events_jsonl, trace_json
from repro.protocols.registry import all_protocol_names
from repro.sim import (
    CrashWindow, DSMSystem, FaultPlan, Frame, HedgeConfig, LinkFault,
    MembershipChange, PartitionPlan, ReconfigPlan, RunConfig, SlowWindow,
)
from repro.workloads import (
    read_disturbance_workload, write_disturbance_workload,
)

PARAMS = WorkloadParams(N=4, p=0.3, a=2, xi=0.1, S=50.0, P=20.0)
WARMUP = 200

#: protocol -> (acc, messages, events executed, end_time, sha256 of the
#: sorted trace histogram), N=4, M=2, 2000 ops, seed 11
PINNED = {
    "write_through": (
        24.706666666666667, 4950, 6950, 50192.90939780658,
        "52e069d1655d68ea331a6db5fdbe67d518a7d89fa84c10e490e0e65cfd878b47"),
    "write_through_v": (
        28.336666666666666, 6338, 8338, 50194.90939780658,
        "d5f9d45efd69aa0f88460a49511eb8372c7b06fd4616a9c76e85e56795befcd5"),
    "write_once": (
        31.53611111111111, 4402, 6402, 50194.90939780658,
        "ceb0db4ee10d765fe8f32501b1137146c888e621a61a562f6b62809592428456"),
    "synapse": (
        36.84722222222222, 5743, 7743, 50196.90939780658,
        "f4913237563457f0e8fb69835aaef2198df65d69de1d35e1fa4a0bc6c7da1cd4"),
    "illinois": (
        32.00666666666667, 4544, 6544, 50194.90939780658,
        "6b5c0bc616e1ef09ee0ab62f15aadd2f72587a25b693224e8ad8a32fe741de2f"),
    "berkeley": (
        16.946666666666665, 3350, 5350, 50192.90939780658,
        "3e0a0be5c50d0e036a196ff3fbd47ecf402f62dcaa4a5c93cd78b71999e60c2d"),
    "dragon": (
        41.58, 3968, 5968, 50191.90939780658,
        "128c08ffc79ecb4ac6777bf0067726bcf91dc554f38f273c547c0ccfe9d9497c"),
    "firefly": (
        42.075, 4960, 6960, 50192.90939780658,
        "41c225794ca13e278a4edddfbf982503f9aabb99295094ff5e42ac4723091918"),
    "write_through_dir": (
        23.308333333333334, 2149, 4149, 50192.90939780658,
        "c682f9f9d3571b8e879e063dbd9a5c41bdbc35ca404c246a328293b68505bc7e"),
    "sc_abd": (
        76.28, 17952, 20944, 50214.90939780658,
        "8e335a507859602246f0332d777319549b9e4b2d78676c2ad4f47741b10b7fc6"),
}

#: sha256 of the Chrome trace and of the JSONL event export of a traced
#: berkeley run (600 ops, seed 5, every third operation sampled)
TRACED_CHROME = "ab11c0e72b55cc132b7a79e96932a1b638820b61932c7f542b8d5a9d6e8f98c8"
TRACED_JSONL = "a3efe267132cfd3f780570efe1dfbc1cf6d783d7d95a614d433f5312e3070447"


#: the faulty fabric: global drops, duplicates and jitter, node 2 crashed
#: (durable) over [4000, 7000), node 3 a 6x straggler over [9000, 15000),
#: and a lossy, duplicating, jittery 1 -> sequencer link over
#: [2000, 12000) with the failure detector on; the reliable transport and
#: the consistency monitor run on every protocol.  N=4, M=2, seed 11.
FAULTY_OPS = 1000
FAULTY_WARMUP = 100

#: protocol -> (acc, messages, events executed, end_time, sha256 of the
#: sorted trace histogram) on the faulty fabric
FAULTY_PINNED = {
    "berkeley": (
        23.0, 4006, 5736, 24842.60554611574,
        "56a3f05a536de88c4df7e0c976b39b1523ea375102b3f4ac87a82d37c3c5ff8d"),
    "dragon": (
        51.714444444444446, 4641, 6410, 24836.741223838915,
        "a7ddcc27e679e443ea2cc23436c43119769791a9100f662adbad7477d2158027"),
    "firefly": (
        51.96888888888889, 5754, 7519, 24836.741223838915,
        "c4d4979871e6ca2be330e6e45b9918c7251f85947ebe93324d32373e8cd61b1f"),
    "illinois": (
        37.94555555555556, 5027, 6764, 24844.380550058082,
        "ac007a985c63855d4c35d3397055ec7169d6c78ca934c1eac83def426e282f70"),
    "sc_abd": (
        135.26111111111112, 22284, 28401, 24887.034452190397,
        "9877a1f2caca265502d7aaac7e67fe6a5f032ca604cdb7a20d67719f2b0136ca"),
    "synapse": (
        43.88666666666666, 6167, 7962, 24858.125286365223,
        "9cbc5d6c59554cc2bb0e32cafbece908abda0031ca121a4b860325d2a701cb9e"),
    "write_once": (
        37.867777777777775, 4873, 6584, 24844.679858245403,
        "e079c19fa71efc27adf662650012ad6e633a7611bc68ffa91d7173d6f1b2024d"),
    "write_through": (
        33.714444444444446, 5659, 7411, 24841.378046487465,
        "9e97b8d9be41b275d9e3d27942cabb501fa9fee720335162d49d1809db9fedf3"),
    "write_through_dir": (
        30.534444444444443, 2616, 4141, 24842.603977974577,
        "d4d9b3b03f7d5e7d3c7d44e17cd9d88bfd8ac449dcfcb4618a7c8d9e6737fd9e"),
    "write_through_v": (
        39.57222222222222, 7437, 9288, 24842.292541510797,
        "d385ead4cca50f4f4410d9d37ae681931035b999a370a0dcfc414f675f6a8c6b"),
}

#: sha256 of the Chrome trace and of the JSONL event export of a traced
#: berkeley run on the faulty fabric (400 ops, seed 5, every third
#: operation sampled)
TRACED_FAULTY_CHROME = "10c3ccd1de79085d34061c7c4538396c5e72f266daafa624bbc228a99909ee5c"
TRACED_FAULTY_JSONL = "1a08f3407b90b6fea2aac38a682f5d9fd7298dc279dad39b3e2541f4cfacfdd6"

#: protocol -> ``ReliabilityStats``/``PartitionStats``/``RecoveryStats``
#: field values after the faulty run above
FAULTY_STATS = {
    "berkeley": {
        "reliability": dict(
            retransmissions=437, acks=1977, duplicates_suppressed=386,
            out_of_order_held=17, drops=268, duplicates_injected=159,
            sends_suppressed=0, crashes=1, recoveries=1, delivery_failures=0,
            dgram_abandoned=0, quorum_reselections=0, hedges_launched=0,
            failed_op_ids=[], cost=6614.0),
        "partition": dict(
            heartbeats=1524, suspicions=13, demotions=1, restorations=1,
            rejoins=13, stale_reads_served=0, sends_absorbed=27,
            ops_stalled=0, suppressed_violations=0, partition_time=3520.0,
            cost=2901.0),
        "recovery": dict(
            epoch_resets=26, failovers=0, ops_lost=0, ops_redriven=0,
            frames_voided=3, stale_frames_dropped=4, resync_objects=0,
            resync_cost=26.0, quarantine_time=26.0, cost=130.0),
    },
    "dragon": {
        "reliability": dict(
            retransmissions=468, acks=2275, duplicates_suppressed=383,
            out_of_order_held=63, drops=302, duplicates_injected=201,
            sends_suppressed=0, crashes=1, recoveries=1, delivery_failures=0,
            dgram_abandoned=0, quorum_reselections=0, hedges_launched=0,
            failed_op_ids=[], cost=12103.0),
        "partition": dict(
            heartbeats=1524, suspicions=13, demotions=1, restorations=1,
            rejoins=13, stale_reads_served=0, sends_absorbed=50,
            ops_stalled=0, suppressed_violations=0, partition_time=3520.0,
            cost=2901.0),
        "recovery": dict(
            epoch_resets=26, failovers=0, ops_lost=0, ops_redriven=0,
            frames_voided=10, stale_frames_dropped=8, resync_objects=26,
            resync_cost=191.0, quarantine_time=26.0, cost=295.0),
    },
    "firefly": {
        "reliability": dict(
            retransmissions=532, acks=2833, duplicates_suppressed=451,
            out_of_order_held=39, drops=441, duplicates_injected=272,
            sends_suppressed=0, crashes=1, recoveries=1, delivery_failures=0,
            dgram_abandoned=0, quorum_reselections=0, hedges_launched=0,
            failed_op_ids=[], cost=11725.0),
        "partition": dict(
            heartbeats=1524, suspicions=13, demotions=1, restorations=1,
            rejoins=13, stale_reads_served=0, sends_absorbed=50,
            ops_stalled=0, suppressed_violations=0, partition_time=3520.0,
            cost=2901.0),
        "recovery": dict(
            epoch_resets=26, failovers=0, ops_lost=0, ops_redriven=0,
            frames_voided=11, stale_frames_dropped=11, resync_objects=26,
            resync_cost=191.0, quarantine_time=26.0, cost=295.0),
    },
    "illinois": {
        "reliability": dict(
            retransmissions=471, acks=2478, duplicates_suppressed=402,
            out_of_order_held=44, drops=373, duplicates_injected=237,
            sends_suppressed=0, crashes=1, recoveries=1, delivery_failures=0,
            dgram_abandoned=0, quorum_reselections=0, hedges_launched=0,
            failed_op_ids=[], cost=9099.0),
        "partition": dict(
            heartbeats=1524, suspicions=13, demotions=1, restorations=1,
            rejoins=13, stale_reads_served=0, sends_absorbed=27,
            ops_stalled=0, suppressed_violations=0, partition_time=3520.0,
            cost=2901.0),
        "recovery": dict(
            epoch_resets=26, failovers=0, ops_lost=0, ops_redriven=0,
            frames_voided=5, stale_frames_dropped=6, resync_objects=0,
            resync_cost=26.0, quarantine_time=26.0, cost=130.0),
    },
    "sc_abd": {
        "reliability": dict(
            retransmissions=4349, acks=8377, duplicates_suppressed=1097,
            out_of_order_held=0, drops=3524, duplicates_injected=779,
            sends_suppressed=648, crashes=1, recoveries=1,
            delivery_failures=0, dgram_abandoned=0, quorum_reselections=203,
            hedges_launched=0, failed_op_ids=[], cost=37958.0),
        "partition": dict(
            heartbeats=1524, suspicions=0, demotions=1, restorations=1,
            rejoins=0, stale_reads_served=0, sends_absorbed=0, ops_stalled=0,
            suppressed_violations=0, partition_time=0.0, cost=2901.0),
        "recovery": dict(
            epoch_resets=0, failovers=0, ops_lost=0, ops_redriven=0,
            frames_voided=0, stale_frames_dropped=0, resync_objects=0,
            resync_cost=0.0, quarantine_time=0.0, cost=0.0),
    },
    "synapse": {
        "reliability": dict(
            retransmissions=559, acks=3044, duplicates_suppressed=482,
            out_of_order_held=44, drops=470, duplicates_injected=305,
            sends_suppressed=0, crashes=1, recoveries=1, delivery_failures=0,
            dgram_abandoned=0, quorum_reselections=0, hedges_launched=0,
            failed_op_ids=[], cost=10253.0),
        "partition": dict(
            heartbeats=1524, suspicions=13, demotions=1, restorations=1,
            rejoins=13, stale_reads_served=0, sends_absorbed=27,
            ops_stalled=0, suppressed_violations=0, partition_time=3520.0,
            cost=2901.0),
        "recovery": dict(
            epoch_resets=26, failovers=0, ops_lost=0, ops_redriven=0,
            frames_voided=6, stale_frames_dropped=8, resync_objects=0,
            resync_cost=26.0, quarantine_time=26.0, cost=130.0),
    },
    "write_once": {
        "reliability": dict(
            retransmissions=465, acks=2392, duplicates_suppressed=380,
            out_of_order_held=23, drops=380, duplicates_injected=225,
            sends_suppressed=0, crashes=1, recoveries=1, delivery_failures=0,
            dgram_abandoned=0, quorum_reselections=0, hedges_launched=0,
            failed_op_ids=[], cost=9487.0),
        "partition": dict(
            heartbeats=1524, suspicions=13, demotions=1, restorations=1,
            rejoins=13, stale_reads_served=0, sends_absorbed=27,
            ops_stalled=0, suppressed_violations=0, partition_time=3520.0,
            cost=2901.0),
        "recovery": dict(
            epoch_resets=26, failovers=0, ops_lost=0, ops_redriven=0,
            frames_voided=11, stale_frames_dropped=13, resync_objects=0,
            resync_cost=26.0, quarantine_time=26.0, cost=130.0),
    },
    "write_through": {
        "reliability": dict(
            retransmissions=502, acks=2782, duplicates_suppressed=415,
            out_of_order_held=105, drops=439, duplicates_injected=287,
            sends_suppressed=0, crashes=1, recoveries=1, delivery_failures=0,
            dgram_abandoned=0, quorum_reselections=0, hedges_launched=0,
            failed_op_ids=[], cost=9334.0),
        "partition": dict(
            heartbeats=1524, suspicions=13, demotions=1, restorations=1,
            rejoins=13, stale_reads_served=0, sends_absorbed=47,
            ops_stalled=0, suppressed_violations=0, partition_time=3520.0,
            cost=2901.0),
        "recovery": dict(
            epoch_resets=26, failovers=0, ops_lost=0, ops_redriven=0,
            frames_voided=14, stale_frames_dropped=14, resync_objects=26,
            resync_cost=254.0, quarantine_time=26.0, cost=358.0),
    },
    "write_through_dir": {
        "reliability": dict(
            retransmissions=286, acks=1250, duplicates_suppressed=176,
            out_of_order_held=53, drops=305, duplicates_injected=146,
            sends_suppressed=0, crashes=1, recoveries=1, delivery_failures=0,
            dgram_abandoned=0, quorum_reselections=0, hedges_launched=0,
            failed_op_ids=[], cost=6776.0),
        "partition": dict(
            heartbeats=1524, suspicions=13, demotions=1, restorations=1,
            rejoins=13, stale_reads_served=0, sends_absorbed=0, ops_stalled=0,
            suppressed_violations=0, partition_time=3520.0, cost=2901.0),
        "recovery": dict(
            epoch_resets=26, failovers=0, ops_lost=0, ops_redriven=0,
            frames_voided=9, stale_frames_dropped=4, resync_objects=0,
            resync_cost=26.0, quarantine_time=26.0, cost=130.0),
    },
    "write_through_v": {
        "reliability": dict(
            retransmissions=720, acks=3648, duplicates_suppressed=586,
            out_of_order_held=113, drops=630, duplicates_injected=360,
            sends_suppressed=0, crashes=1, recoveries=1, delivery_failures=0,
            dgram_abandoned=0, quorum_reselections=0, hedges_launched=0,
            failed_op_ids=[], cost=11648.0),
        "partition": dict(
            heartbeats=1524, suspicions=13, demotions=1, restorations=1,
            rejoins=13, stale_reads_served=0, sends_absorbed=46,
            ops_stalled=0, suppressed_violations=0, partition_time=3520.0,
            cost=2901.0),
        "recovery": dict(
            epoch_resets=26, failovers=0, ops_lost=0, ops_redriven=2,
            frames_voided=16, stale_frames_dropped=13, resync_objects=0,
            resync_cost=26.0, quarantine_time=26.0, cost=130.0),
    },
}


#: the benchmark's ``quorum`` point: N=8 (core quorum 1..5, so nodes 6
#: and 7 initiate from outside it), M=4, read disturbance
QUORUM_PARAMS = WorkloadParams(N=8, p=0.3, a=6, sigma=0.1, S=100.0, P=30.0)
QUORUM_WARMUP = 200

#: run -> RunConfig of the three sc_abd quorum runs (seed 13, mean gap 10)
QUORUM_RUNS = {
    # the plain fabric at the workload's own shape
    "plain": RunConfig(ops=3000, warmup=QUORUM_WARMUP, seed=13,
                       mean_gap=10.0),
    # a 12x straggler (node 3, inside the core) hedged around and
    # re-selected past
    "hedge": RunConfig(
        ops=2000, warmup=QUORUM_WARMUP, seed=13, mean_gap=10.0,
        faults=FaultPlan(slowdowns=[SlowWindow(3, 2000.0, 12000.0, 12.0)]),
        hedge=HedgeConfig(budget=8.0, max_legs=2, seed=3)),
    # node 10 joins, node 2 leaves, node 5 carries three votes: every
    # phase runs through the membership view
    "view": RunConfig(
        ops=2000, warmup=QUORUM_WARMUP, seed=13, mean_gap=10.0,
        reconfig=ReconfigPlan(seed=3, changes=(
            MembershipChange(at=3000.0, joins=(10,)),
            MembershipChange(at=9000.0, leaves=(2,)),
        )),
        quorum_weights=((5, 3.0),)),
}

#: run -> (acc, messages, events executed, end_time, sha256 of the sorted
#: trace histogram)
QUORUM_PINNED = {
    "plain": (
        350.52785714285716, 38760, 42636, 30230.013161243773,
        "9f99afa62411e5bd2f6564cb5141bcf0ad8848dd96a93ab3a4bfdf8fded1417f"),
    "hedge": (
        551.7366666666667, 57966, 64594, 19734.808193682304,
        "f4cc5f93a05600fe9bdc3fa87913611ca5d2496be4e96f952188cf95309606b9"),
    "view": (
        309.65555555555557, 40332, 42916, 19734.808193682304,
        "f2d46732948bf216a5cb0174ec936b2b8f87f6c75e47f2f67ad6db091bf7f964"),
}

_NO_FAULTS = dict(
    retransmissions=0, acks=0, duplicates_suppressed=0, out_of_order_held=0,
    drops=0, duplicates_injected=0, sends_suppressed=0, crashes=0,
    recoveries=0, delivery_failures=0, dgram_abandoned=0,
    quorum_reselections=0, hedges_launched=0, failed_op_ids=[], cost=0.0)

#: run -> ``ReliabilityStats`` field values after the run
QUORUM_STATS = {
    "plain": _NO_FAULTS,
    "hedge": dict(_NO_FAULTS, retransmissions=3558, acks=26708,
                  duplicates_suppressed=3558, quorum_reselections=84,
                  hedges_launched=188, cost=283156.0),
    "view": dict(_NO_FAULTS, acks=18132, cost=18132.0),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _histogram_digest(hist) -> str:
    return _digest("\n".join(repr((sig, n))
                             for sig, n in sorted(hist.items())))


class _ReadOnlyDict(dict):
    """A dict whose mutators raise; still ``isinstance(dict)``, which
    ``RecoveryManager._absorb_voided`` checks."""

    def _read_only(self, *args, **kwargs):
        raise TypeError("a message payload is read-only")

    __setitem__ = __delitem__ = __ior__ = _read_only
    clear = pop = popitem = setdefault = update = _read_only


def _make_read_only(monkeypatch, cls):
    """Make a built ``cls`` instance read-only, as a frozen dataclass is.

    A dict assigned to a ``payload`` field is replaced by a read-only copy.
    """
    def set_once(obj, name, value):
        try:
            getattr(obj, name)
        except AttributeError:  # an unset slot: ``__init__`` is filling it
            if name == "payload" and type(value) is dict:
                value = _ReadOnlyDict(value)
            object.__setattr__(obj, name, value)
            return
        raise dataclasses.FrozenInstanceError(
            f"cannot assign to field {name!r}")

    def no_delete(obj, name):
        raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")

    monkeypatch.setattr(cls, "__setattr__", set_once)
    monkeypatch.setattr(cls, "__delattr__", no_delete)


@pytest.fixture
def frozen_messages(monkeypatch):
    """Make a built :class:`Message` and its dict payload read-only.

    ``Message`` is not frozen (construction speed), yet a delivered
    message may be delivered again — by retransmission or as a
    duplicate — so a handler that assigned to one would corrupt the
    later delivery.  A payload may also be shared by several messages
    (every target of an sc_abd fan-out gets the same dict), so no
    handler may mutate it either.  Under this fixture both raise.
    """
    _make_read_only(monkeypatch, Message)


@pytest.fixture
def frozen_frames(monkeypatch):
    """Make a built transport :class:`Frame` read-only, likewise: the
    reliable layer retransmits the same frame object, and the faulty
    fabric delivers an injected duplicate as the same object."""
    _make_read_only(monkeypatch, Frame)


def test_every_protocol_is_pinned():
    assert sorted(PINNED) == sorted(all_protocol_names())


def test_frozen_messages_fixture_rejects_assignment(frozen_messages):
    token = MessageToken(MsgType.R_PER, 1, 0, QueueTag.DISTRIBUTED,
                         ParamPresence.NONE)
    msg = Message(token, 1, 2)
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.payload = 3
    with pytest.raises(dataclasses.FrozenInstanceError):
        del msg.op_id
    assert (msg.payload, msg.op_id) == (None, None)
    shared = {"gen": 1, "retry": False, "hedge": False}
    msg = Message(token, 1, 2, shared)
    assert isinstance(msg.payload, dict)
    assert msg.payload == shared
    for mutate in (lambda p: p.__setitem__("gen", 2),
                   lambda p: p.__delitem__("gen"),
                   lambda p: p.update(gen=2), lambda p: p.pop("gen"),
                   lambda p: p.popitem(), lambda p: p.clear(),
                   lambda p: p.setdefault("ts", (0, 0))):
        with pytest.raises(TypeError):
            mutate(msg.payload)
    with pytest.raises(TypeError):
        payload = msg.payload
        payload |= {"gen": 2}
    with pytest.raises(dataclasses.FrozenInstanceError):
        msg.payload = {}
    assert msg.payload == {"gen": 1, "retry": False, "hedge": False}
    assert Message(token, 1, 2, (1, 2)).payload == (1, 2)


def test_frozen_frames_fixture_rejects_assignment(frozen_frames):
    frame = Frame("ack", 2, 1, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        frame.seq = 8
    with pytest.raises(dataclasses.FrozenInstanceError):
        del frame.epoch
    assert (frame.seq, frame.epoch) == (7, 0)


def test_frames_are_unhashable():
    """An unfrozen dataclass with field equality has no hash, so any
    code that put a frame in a set or a dict key would fail the faulty
    runs below instead of hashing a mutable object."""
    assert Frame.__hash__ is None
    with pytest.raises(TypeError):
        hash(Frame("ack", 2, 1, 7))


@pytest.mark.parametrize("protocol", sorted(PINNED))
def test_no_handler_modifies_a_redelivered_message(protocol,
                                                   frozen_messages,
                                                   frozen_frames):
    """Drops force retransmissions and duplicates redeliver the same
    message and frame objects; no protocol, transport or detector
    handler assigns to either."""
    config = RunConfig(
        ops=400, warmup=40, seed=11,
        faults=FaultPlan(seed=4, drop_rate=0.05, duplicate_rate=0.05))
    system = DSMSystem(protocol, N=PARAMS.N, M=2, S=PARAMS.S, P=PARAMS.P,
                       config=config)
    result = system.run_workload(write_disturbance_workload(PARAMS, M=2))
    assert result.incomplete_ops == 0
    assert system.metrics.reliability.retransmissions > 0


@pytest.mark.parametrize("protocol", sorted(PINNED))
def test_plain_fabric_outputs_are_unchanged(protocol, frozen_messages):
    system = DSMSystem(protocol, N=PARAMS.N, M=2, S=PARAMS.S, P=PARAMS.P)
    result = system.run_workload(
        write_disturbance_workload(PARAMS, M=2),
        RunConfig(ops=2000, warmup=WARMUP, seed=11))
    acc, messages, events, end_time, hist = PINNED[protocol]
    assert result.incomplete_ops == 0
    assert result.acc == acc
    assert result.messages == messages
    assert system.scheduler.executed == events
    assert result.end_time == end_time
    assert _histogram_digest(
        system.metrics.trace_histogram(skip=WARMUP)) == hist


def test_traced_run_exports_are_byte_identical():
    config = RunConfig(ops=600, warmup=60, seed=5,
                       tracing=TraceConfig(sample_every=3))
    system = DSMSystem("berkeley", N=PARAMS.N, M=2, S=PARAMS.S, P=PARAMS.P,
                       config=config)
    system.run_workload(write_disturbance_workload(PARAMS, M=2))
    assert _digest(trace_json(system.tracer)) == TRACED_CHROME
    assert _digest(events_jsonl(system.tracer)) == TRACED_JSONL


def _faulty_run(protocol, ops=FAULTY_OPS, seed=11, tracing=None):
    faults = FaultPlan(seed=3, drop_rate=0.05, duplicate_rate=0.04,
                       jitter=1.5, crashes=[CrashWindow(2, 4000.0, 7000.0)],
                       slowdowns=[SlowWindow(3, 9000.0, 15000.0, 6.0)])
    partitions = PartitionPlan(
        seed=8, links=[LinkFault(1, 5, 2000.0, 12000.0, drop_rate=0.3,
                                 duplicate_rate=0.1, jitter=2.5)])
    config = RunConfig(ops=ops, warmup=FAULTY_WARMUP, seed=seed,
                       faults=faults, partitions=partitions, monitor=True,
                       tracing=tracing)
    system = DSMSystem(protocol, N=PARAMS.N, M=2, S=PARAMS.S, P=PARAMS.P,
                       config=config)
    result = system.run_workload(write_disturbance_workload(PARAMS, M=2))
    return system, result


def test_every_protocol_is_pinned_on_the_faulty_fabric():
    assert sorted(FAULTY_PINNED) == sorted(all_protocol_names())
    assert sorted(FAULTY_STATS) == sorted(all_protocol_names())


@pytest.mark.parametrize("protocol", sorted(FAULTY_PINNED))
def test_faulty_fabric_outputs_are_unchanged(protocol, frozen_messages,
                                            frozen_frames):
    system, result = _faulty_run(protocol)
    acc, messages, events, end_time, hist = FAULTY_PINNED[protocol]
    assert result.incomplete_ops == 0
    assert not result.violations
    assert result.acc == acc
    assert result.messages == messages
    assert system.scheduler.executed == events
    assert result.end_time == end_time
    assert _histogram_digest(
        system.metrics.trace_histogram(skip=FAULTY_WARMUP)) == hist
    metrics = system.metrics
    stats = FAULTY_STATS[protocol]
    assert dataclasses.asdict(metrics.reliability) == stats["reliability"]
    assert dataclasses.asdict(metrics.partition) == stats["partition"]
    assert dataclasses.asdict(metrics.recovery) == stats["recovery"]


def test_traced_faulty_run_exports_are_byte_identical():
    system, _result = _faulty_run("berkeley", ops=400, seed=5,
                                  tracing=TraceConfig(sample_every=3))
    assert _digest(trace_json(system.tracer)) == TRACED_FAULTY_CHROME
    assert _digest(events_jsonl(system.tracer)) == TRACED_FAULTY_JSONL


@pytest.mark.parametrize("run", sorted(QUORUM_RUNS))
def test_quorum_outputs_are_unchanged(run, frozen_messages, frozen_frames):
    config = QUORUM_RUNS[run]
    system = DSMSystem("sc_abd", N=QUORUM_PARAMS.N, M=4, S=QUORUM_PARAMS.S,
                       P=QUORUM_PARAMS.P, config=config)
    result = system.run_workload(
        read_disturbance_workload(QUORUM_PARAMS, M=4))
    acc, messages, events, end_time, hist = QUORUM_PINNED[run]
    assert result.incomplete_ops == 0
    assert result.acc == acc
    assert result.messages == messages
    assert system.scheduler.executed == events
    assert result.end_time == end_time
    assert _histogram_digest(
        system.metrics.trace_histogram(skip=QUORUM_WARMUP)) == hist
    assert (dataclasses.asdict(system.metrics.reliability)
            == QUORUM_STATS[run])
    initiators = {r.node for r in system.metrics.records(QUORUM_WARMUP)}
    assert {1, 7} <= initiators  # inside and outside the core quorum
    if run == "view":
        assert system.membership.committed == (1, 3, 4, 5, 6, 7, 8, 9, 10)
        assert system.metrics.reconfig.commits == 2
