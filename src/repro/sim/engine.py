"""Deterministic discrete-event engine for the distributed-system simulator.

Events fire in ``(time, sequence)`` order.  The sequence number is one
global counter, bumped by every scheduling call, so events at equal times
fire in the order they were scheduled — which, together with constant
channel latency, preserves the first-in/first-out property the paper
assumes for every communication channel and queue (Section 2).

Pending events live in two structures:

* a binary **heap** of ``(time, seq, callback, arg)`` entries, and
* a FIFO **lane** (a ``deque``) of entries of the same shape, where one
  entry may stand for a whole broadcast (a *fan-out*).

:meth:`EventScheduler.schedule` and :meth:`~EventScheduler.schedule_at`
push onto the heap and return a :class:`TimerHandle`; the reliable-delivery
layer (:mod:`repro.sim.reliable`), quorum phases, the failure detector and
hedged requests cancel their timers through it.  Cancellation is lazy: the
heap entry stays in place and is discarded, uncounted, when it reaches the
front — cancelling is O(1).

:meth:`EventScheduler.post` schedules a handle-free event, which can
never be cancelled.  It joins the lane's tail whenever its time is
no earlier than the tail's (its sequence number is the largest yet, so
the lane stays sorted by ``(time, seq)``); otherwise it falls back to the
heap.  The channel posts every delivery.  Its latency is constant and
simulated time never runs backwards, so deliveries arrive in
non-decreasing time order and each one costs a deque append and pop
instead of a handle plus a heap push and pop.  The reliable transport
posts every transmission too; on a faulty wire a jittered one due
before the lane's tail takes the heap instead.

:meth:`EventScheduler.post_many` posts a whole broadcast, a list of
``(callback, arg)`` pairs: it behaves exactly like one
:meth:`~EventScheduler.post` call per pair, in order, and takes that
many consecutive sequence numbers, but an in-order fan-out is stored as
**one** lane entry, ``(time, first seq, None, calls)``.  Each member
names its own callback, so the plain fabric posts a broadcast's
deliveries straight to their receivers in one call
(:meth:`~repro.sim.channel.Network.broadcast`); the reliable transport
posts each transmission on its own.  A fan-out out of lane order falls
back to one heap entry per member.  ``len()`` counts every unfired
member.

Workload arrivals are handle-free too: an internal ``_post_at`` puts
each one on the heap with a sequence number set aside up front by
``_reserve``, so the heap holds one pending arrival instead of the whole
stream; each arrival posts its successor before submitting its
operation.  Arrival times are Python floats, so in a workload run
``now`` and every event key stay plain ``float`` values.

:meth:`EventScheduler.step` fires whichever of the lane head and the heap
head has the smaller ``(time, seq)``.  Every event therefore fires exactly
when a single heap holding all of them would fire it.  ``step`` dispatches
the event itself — it sets ``now``, counts the event and calls the
callback, with no helper call in between.  A fan-out entry at the lane
head fires its members back to back within one step, each one setting
``now`` and counting in ``executed`` on its own.  The order is the single heap's:
the members hold consecutive numbers at one time, and anything scheduled
while they fire gets a larger number (an event posted at ``now`` with a
number reserved earlier is the one exception, and it ends the fan-out's
step).  Firing stops at the enclosing :meth:`~EventScheduler.run`'s
``max_events`` cap, or after one member when ``until`` is given; the
unfired members stay at the lane head.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, List, Optional, Tuple

__all__ = ["EventScheduler", "TimerHandle"]

_heappush = heapq.heappush
_heappop = heapq.heappop
_INF = float("inf")

#: one pending event: ``(time, seq, callback, arg)``; a timer's entry has
#: ``callback=None`` and its :class:`TimerHandle` as ``arg``, and a
#: fan-out's has ``callback=None`` and its list of calls as ``arg``
_Entry = Tuple[float, int, Optional[Callable[[Any], None]], Any]
#: one member of a fan-out: ``callback(arg)`` runs when it fires
_Call = Tuple[Callable[[Any], None], Any]


class TimerHandle:
    """Handle to one scheduled event; supports O(1) cancellation.

    A handle is *active* until its event fires or it is cancelled,
    whichever comes first.  Cancelling an inactive handle is a no-op.
    """

    __slots__ = ("_callback", "_scheduler")

    def __init__(self, scheduler: "EventScheduler",
                 callback: Callable[[], None]) -> None:
        self._scheduler = scheduler
        self._callback = callback

    def cancel(self) -> bool:
        """Cancel the event if it has not fired yet.

        Returns ``True`` if this call cancelled a still-pending event,
        ``False`` if the event already fired or was already cancelled.
        """
        if self._callback is None:
            return False
        self._callback = None
        self._scheduler._cancelled += 1
        return True

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not fired, not cancelled)."""
        return self._callback is not None


class EventScheduler:
    """A minimal deterministic event scheduler.

    Events scheduled for the same simulation time fire in the order they
    were scheduled.  Time never runs backwards; scheduling into the past
    raises ``ValueError``.
    """

    def __init__(self) -> None:
        self._heap: List[_Entry] = []
        self._lane: Deque[_Entry] = deque()
        self._lane_tail = float("-inf")  # time of the lane's last append
        self._seq = 0
        self._cancelled = 0  # cancelled entries still parked in the heap
        self._fanned = 0  # lane fan-out members beyond each entry's first
        #: current simulation time
        self.now: float = 0.0
        #: number of events executed so far
        self.executed: int = 0

    # -- cancellable timers (heap) -----------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]
                 ) -> TimerHandle:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self._push(self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]
                    ) -> TimerHandle:
        """Schedule ``callback`` at an absolute simulation time."""
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        return self._push(time, callback)

    def _push(self, time: float, callback: Callable[[], None]) -> TimerHandle:
        self._seq += 1
        handle = TimerHandle(self, callback)
        _heappush(self._heap, (time, self._seq, None, handle))
        return handle

    # -- handle-free events (lane, heap fallback) --------------------------

    def post(self, delay: float, callback: Callable[[Any], None],
             arg: Any) -> None:
        """Run ``callback(arg)`` ``delay`` time units from now.

        Like :meth:`schedule`, but no handle is made and the event cannot
        be cancelled.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        time = self.now + delay
        self._seq += 1
        if time >= self._lane_tail:
            self._lane.append((time, self._seq, callback, arg))
            self._lane_tail = time
        else:
            _heappush(self._heap, (time, self._seq, callback, arg))

    def post_many(self, delay: float, calls: List[_Call]) -> None:
        """Run ``callback(arg)`` for each ``(callback, arg)`` of ``calls``,
        ``delay`` from now.

        Behaves exactly like one :meth:`post` call per pair, in order,
        and takes that many consecutive sequence numbers, but an
        in-order fan-out is stored as one lane entry, whose members
        :meth:`step` fires back to back.  The list is kept, not copied:
        the caller must not change it afterwards.  An out-of-order time
        falls back to one heap entry per member, as :meth:`post` would.
        """
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        count = len(calls)
        if not count:
            return
        time = self.now + delay
        seq = self._seq
        self._seq = seq + count
        if time >= self._lane_tail:
            if count == 1:
                callback, arg = calls[0]
                self._lane.append((time, seq + 1, callback, arg))
            else:
                # a fan-out entry: ``callback`` None, the pairs as the
                # argument; its first member's number is the key
                self._lane.append((time, seq + 1, None, calls))
                self._fanned += count - 1
            self._lane_tail = time
        else:
            heap = self._heap
            for callback, arg in calls:
                seq += 1
                _heappush(heap, (time, seq, callback, arg))

    # Internal to the simulator: workload arrivals (``repro.sim.system``)
    # are the one caller.  The caller must post each reserved number at
    # most once; two entries sharing a ``(time, seq)`` key would make the
    # heap compare their callbacks.

    def _post_at(self, time: float, callback: Callable[[Any], None],
                 arg: Any, seq: int) -> None:
        """Run ``callback(arg)`` at an absolute simulation time.

        Like :meth:`schedule_at`, but no handle is made and the event
        cannot be cancelled.  ``seq`` is a sequence number taken from
        :meth:`_reserve`: the event breaks time ties as if it had been
        scheduled when the number was reserved.  The event goes to the
        heap (the lane is for :meth:`post`'s in-order times).
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule at {time} before current time {self.now}"
            )
        if not 0 < seq <= self._seq:
            raise ValueError(f"sequence number {seq} has not been handed out")
        _heappush(self._heap, (time, seq, callback, arg))

    def _reserve(self, count: int) -> int:
        """Reserve ``count`` sequence numbers for later :meth:`_post_at` calls.

        Returns the number just before the first reserved one; the
        reserved numbers are ``base + 1 .. base + count``.
        """
        if count < 0:
            raise ValueError(f"cannot reserve {count} sequence numbers")
        base = self._seq
        self._seq += count
        return base

    # -- running -------------------------------------------------------------

    def __len__(self) -> int:
        """Number of live (non-cancelled) pending events; every unfired
        member of a fan-out counts as one."""
        return (len(self._heap) + len(self._lane) + self._fanned
                - self._cancelled)

    def step(self, limit: float = _INF) -> bool:
        """Execute the next live event; ``False`` when none remain.

        Cancelled entries reaching the front of the heap are discarded
        without advancing time or counting as executed.

        A fan-out entry (:meth:`post_many`) fires its members back to
        back, each one setting ``now`` and counting in ``executed`` on
        its own, until all have fired, ``executed`` reaches ``limit``, or
        a heap event comes due first; the unfired members stay at the
        lane head.  The first member always fires.
        :meth:`run` passes its ``max_events`` cap as ``limit``, and one
        more than ``executed`` when ``until`` is given.
        """
        lane = self._lane
        heap = self._heap
        # seq numbers are unique, so comparing two entries never reaches
        # their callbacks
        while heap and not (lane and lane[0] < heap[0]):
            time, _seq, callback, arg = _heappop(heap)
            if callback is not None:  # a posted event
                break
            callback = arg._callback
            if callback is None:  # cancelled: discard silently
                self._cancelled -= 1
                continue
            arg._callback = None  # fired: the handle goes inactive
            self.now = time
            self.executed += 1
            callback()
            return True
        else:  # no heap entry is due first: the lane head fires, if any
            if not lane:
                return False
            time, _seq, callback, arg = lane.popleft()
            if callback is None:  # a fan-out
                self._fire_many(time, _seq, arg, limit)
                return True
        self.now = time
        self.executed += 1
        callback(arg)
        return True

    def _fire_many(self, time: float, seq: int, calls: List[_Call],
                   limit: float) -> None:
        """Fire the members of a fan-out entry taken off the lane head.

        Nothing scheduled while the members fire gets a smaller sequence
        number, so no other event sorts between them — except one posted
        at ``now`` with a number reserved earlier (:meth:`_post_at`),
        which the heap check catches.  Members left unfired (by the cap,
        by such an event, or because a callback raised) go back to the
        lane head.
        """
        heap = self._heap
        fired = 0
        try:
            for callback, arg in calls:
                if fired and (self.executed >= limit
                              or (heap and heap[0][0] <= time
                                  and heap[0][1] < seq + fired)):
                    break
                fired += 1
                self.now = time
                self.executed += 1
                callback(arg)
        finally:
            if fired < len(calls):
                self._fanned -= fired
                self._lane.appendleft((time, seq + fired, None,
                                       calls[fired:]))
            else:
                self._fanned -= fired - 1

    def run(
        self,
        max_events: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until the event list drains, ``max_events`` fire, or ``until()``.

        Args:
            max_events: hard cap on executed events (safety net against
                protocol livelock bugs).  A fan-out's members count one
                each, and firing stops at the cap even inside a fan-out.
            until: optional stop predicate evaluated between events —
                between a fan-out's members too, so with ``until`` given
                each step fires at most one member.

        Returns:
            The number of events executed by this call.
        """
        start = self.executed
        limit = _INF if max_events is None else start + max_events
        step = self.step
        if until is None:
            while self.executed < limit:
                if not step(limit):
                    break
        else:
            while self.executed < limit:
                if until():
                    break
                if not step(self.executed + 1):
                    break
        return self.executed - start
