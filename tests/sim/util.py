"""Drive the faulty wire's decisions one transmission at a time.

:class:`~repro.sim.reliable.ReliableNetwork` owns the faulty wire and
rolls every fault decision itself, so the tests of those decisions send
through it.  The clock below is the part of the scheduler the transport
uses: a settable ``now``, the post, which only records each
transmission's delay, and a retry timer that is never fired.  Time may
be set in any order, so a test can also query the fault timeline out of
order.
"""

from typing import NamedTuple, Tuple

from repro.machines.message import Message, MessageToken, MsgType
from repro.machines.message import ParamPresence, QueueTag
from repro.sim.metrics import Metrics
from repro.sim.reliable import ReliableNetwork


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0
        self.delays = []

    def post(self, delay, callback, item) -> None:
        self.delays.append(delay)

    def post_many(self, delay, calls) -> None:
        self.delays.extend(delay for _ in calls)

    def schedule(self, delay, callback) -> None:
        return None


class Transmission(NamedTuple):
    """What the wire did with one send."""

    sent: bool  # False when a crashed source suppressed it
    dropped: bool
    duplicated: bool
    delays: Tuple[float, ...]  # the posted transmissions' delays, in order


def fabric(faults=None, partitions=None) -> ReliableNetwork:
    """A unit-latency :class:`ReliableNetwork` over a recording clock,
    with nodes 1..8 attached."""
    net = ReliableNetwork(_Clock(), metrics=Metrics(), faults=faults,
                          partitions=partitions)
    for node in range(1, 9):
        net.attach(node, lambda m: None)
    return net


def transmit(net: ReliableNetwork, src: int, dst: int,
             time: float) -> Transmission:
    """Send one data frame ``src -> dst`` at simulation time ``time``."""
    clock = net.scheduler
    clock.now = time
    clock.delays = []
    stats = net.metrics.reliability
    before = (stats.sends_suppressed, stats.drops, stats.duplicates_injected)
    token = MessageToken(MsgType.R_PER, src, 1, QueueTag.DISTRIBUTED,
                         ParamPresence.NONE)
    net.send(Message(token, src, dst, op_id=1), 1.0)
    return Transmission(stats.sends_suppressed == before[0],
                        stats.drops > before[1],
                        stats.duplicates_injected > before[2],
                        tuple(clock.delays))
