"""Drive the faulty fabric's decisions one transmission at a time.

:class:`~repro.sim.channel.Network` rolls every fault decision itself,
so the tests of those decisions send through it.  The clock below is the
part of the scheduler the fabric uses: a settable ``now`` and the two
posts, which only record each delivery's delay.  Time may be set in any
order, so a test can also query the fault timeline out of order.
"""

from typing import NamedTuple, Tuple

from repro.machines.message import Message, MessageToken, MsgType
from repro.machines.message import ParamPresence, QueueTag
from repro.sim.channel import Network


class _Clock:
    def __init__(self) -> None:
        self.now = 0.0
        self.delays = []

    def post(self, delay, callback, item) -> None:
        self.delays.append(delay)

    def post_many(self, delay, callback, items) -> None:
        self.delays.extend(delay for _ in items)


class Transmission(NamedTuple):
    """What the fabric did with one send."""

    sent: bool  # False when a crashed source suppressed it
    dropped: bool
    duplicated: bool
    delays: Tuple[float, ...]  # the posted deliveries' delays, in order


def fabric(faults=None, partitions=None) -> Network:
    """A unit-latency :class:`Network` over a recording clock, with
    nodes 1..8 attached."""
    net = Network(_Clock(), faults=faults, partitions=partitions)
    for node in range(1, 9):
        net.attach(node, lambda m: None)
    return net


def transmit(net: Network, src: int, dst: int, time: float) -> Transmission:
    """Send one message ``src -> dst`` at simulation time ``time``."""
    clock = net.scheduler
    clock.now = time
    clock.delays = []
    before = (net.suppressed, net.dropped, net.duplicated)
    token = MessageToken(MsgType.R_PER, src, 1, QueueTag.DISTRIBUTED,
                         ParamPresence.NONE)
    net.send(Message(token, src, dst, op_id=1), 1.0)
    return Transmission(net.suppressed == before[0],
                        net.dropped > before[1],
                        net.duplicated > before[2],
                        tuple(clock.delays))
