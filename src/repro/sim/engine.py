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
push onto the heap and return a :class:`TimerHandle`; quorum phases, the
failure detector and hedged requests cancel their timers through it.  The
reliable-delivery layer (:mod:`repro.sim.reliable`) builds its own
handles: each pending send is a :class:`TimerHandle` subclass, pushed by
the internal ``_arm`` with the next sequence number, exactly as
:meth:`~EventScheduler.schedule` would push a handle of its own.
Cancellation is lazy: the heap entry stays in place and is discarded,
uncounted, when it reaches the front — cancelling is O(1).

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

One dispatch loop fires every event: :meth:`EventScheduler.run` pops
whichever of the lane head and the heap head has the smaller
``(time, seq)``, sets ``now``, counts the event and calls the callback,
all inline, with no call per event beyond the callback itself.  Every
event therefore fires exactly when a single heap holding all of them
would fire it.  :meth:`~EventScheduler.step` is the same loop bounded to
one entry.  A fan-out entry at the lane head fires its members back to
back, each one setting ``now`` and counting in ``executed`` on its own.
The order is the single heap's: the members hold consecutive numbers at
one time, and anything scheduled while they fire gets a larger number
(an event posted at ``now`` with a number reserved earlier is the one
exception, and it ends the fan-out's turn).  Firing stops at
:meth:`~EventScheduler.run`'s ``max_events`` cap, or after one member
when ``until`` is given; the unfired members stay at the lane head.
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

    # Internal to the simulator: the reliable transport's pending sends
    # (``repro.sim.reliable``) are the one caller.

    def _arm(self, delay: float, handle: TimerHandle) -> None:
        """Fire an active ``handle`` ``delay`` time units from now.

        Like :meth:`schedule`, but the caller builds the handle: a
        :class:`TimerHandle` subclass whose ``_callback`` is set and whose
        ``_scheduler`` is this scheduler.  It takes the next sequence
        number, as :meth:`schedule` would.  A handle may be armed again
        once it has fired, never while it is pending.
        """
        self._seq += 1
        _heappush(self._heap, (self.now + delay, self._seq, None, handle))

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
        in-order fan-out is stored as one lane entry, whose members the
        dispatch loop fires back to back.  The list is kept, not copied:
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

    def step(self) -> bool:
        """Execute the next live entry; ``False`` when none remain.

        This is :meth:`run`'s dispatch loop bounded to one entry.
        Cancelled entries reaching the front of the heap are discarded
        without advancing time or counting as executed.  A fan-out entry
        (:meth:`post_many`) fires its members back to back, each one
        setting ``now`` and counting in ``executed`` on its own, until
        all have fired or a heap event comes due first; the unfired
        members stay at the lane head.  The first member always fires.
        """
        return self._dispatch(_INF, None, True)

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
                each loop turn fires at most one member.

        Returns:
            The number of events executed by this call.
        """
        start = self.executed
        self._dispatch(_INF if max_events is None else start + max_events,
                       until, False)
        return self.executed - start

    def _dispatch(self, limit: float, until: Optional[Callable[[], bool]],
                  single: bool) -> bool:
        """The dispatch loop: fire entries in ``(time, seq)`` order.

        Each turn fires whichever of the lane head and the heap head has
        the smaller key, setting ``now``, counting the event and calling
        its callback inline.  The loop stops before ``executed`` reaches
        ``limit``, when ``until()`` holds, after one entry if ``single``,
        or when no live entry remains (the one case that returns
        ``False``).  A fan-out goes to :meth:`_fire_many`, capped at
        ``limit``, or at one member when ``until`` is given.
        """
        heap = self._heap
        lane = self._lane
        popleft = lane.popleft
        while self.executed < limit:
            if until is not None and until():
                break
            # seq numbers are unique, so comparing two entries never
            # reaches their callbacks
            if heap and not (lane and lane[0] < heap[0]):
                time, _seq, callback, arg = _heappop(heap)
                if callback is None:  # a timer: its handle is the argument
                    callback = arg._callback
                    if callback is None:  # cancelled: discard silently
                        self._cancelled -= 1
                        continue
                    arg._callback = None  # fired: the handle goes inactive
                    self.now = time
                    self.executed += 1
                    callback()
                else:  # a posted event that fell back to the heap
                    self.now = time
                    self.executed += 1
                    callback(arg)
            elif lane:
                time, seq, callback, arg = popleft()
                if callback is None:  # a fan-out
                    self._fire_many(time, seq, arg, limit if until is None
                                    else self.executed + 1)
                else:
                    self.now = time
                    self.executed += 1
                    callback(arg)
            else:
                return False
            if single:
                break
        return True


def _warm_dispatch() -> None:
    """Call the dispatch loop idle, so CPython specializes its bytecode.

    CPython 3.11 specializes a function's bytecode only after its eighth
    call; the turns of a loop do not count.  The dispatch loop is entered
    once per :meth:`EventScheduler.run`, so without these calls a run
    would fire every event on generic bytecode, slower than the per-event
    ``step`` call the loop replaces.  (3.12 specializes from the first
    call, 3.10 never, and an empty scheduler fires nothing.)
    """
    idle = EventScheduler()
    for _ in range(8):
        idle._dispatch(_INF, None, False)


_warm_dispatch()
