"""Deterministic discrete-event engine for the distributed-system simulator.

Events fire in ``(time, sequence)`` order.  The sequence number is one
global counter, bumped by every scheduling call, so events at equal times
fire in the order they were scheduled — which, together with constant
channel latency, preserves the first-in/first-out property the paper
assumes for every communication channel and queue (Section 2).

Pending events live in two structures:

* a binary **heap** of ``(time, seq, callback, arg)`` entries, and
* a FIFO **lane** (a ``deque``) of entries of the same shape.

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
heap.  The channel posts every delivery.  On the fault-free fabric its
latency is constant and simulated time never runs backwards, so
deliveries arrive in non-decreasing time order and each one costs a deque
append and pop instead of a handle plus a heap push and pop; on a faulty
fabric a jittered delivery due before the lane's tail takes the heap
instead.  Workload arrivals are
handle-free too: an internal ``_post_at`` puts each one on the heap with
a sequence number set aside up front by ``_reserve``, so the heap holds
one pending arrival instead of the whole stream; each arrival posts its
successor before submitting its operation.  Arrival times are Python
floats, so in a workload run ``now`` and every event key stay plain
``float`` values.

:meth:`EventScheduler.step` fires whichever of the lane head and the heap
head has the smaller ``(time, seq)``.  Every event therefore fires exactly
when a single heap holding all of them would fire it.  ``step`` dispatches
the event itself — it sets ``now``, counts the event and calls the
callback, with no helper call in between; only with a profiler attached
does the call go through ``_timed``, which times it under the
``engine.dispatch`` scope.
"""

from __future__ import annotations

import heapq
from collections import deque
from time import perf_counter
from typing import Any, Callable, Deque, List, Optional, Tuple

__all__ = ["EventScheduler", "TimerHandle"]

_heappush = heapq.heappush
_heappop = heapq.heappop

#: one pending event: ``(time, seq, callback, arg)``; a timer's entry has
#: ``callback=None`` and its :class:`TimerHandle` as ``arg``
_Entry = Tuple[float, int, Optional[Callable[[Any], None]], Any]


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
        #: current simulation time
        self.now: float = 0.0
        #: number of events executed so far
        self.executed: int = 0
        #: optional :class:`repro.obs.Profiler`; when set, every event
        #: dispatch is timed under the ``engine.dispatch`` scope
        self.profiler = None

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
        """Number of live (non-cancelled) pending events."""
        return len(self._heap) + len(self._lane) - self._cancelled

    def step(self) -> bool:
        """Execute the next live event; ``False`` when none remain.

        Cancelled entries reaching the front of the heap are discarded
        without advancing time or counting as executed.
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
            if self.profiler is None:
                callback()
            else:
                self._timed(callback)
            return True
        else:  # no heap entry is due first: the lane head fires, if any
            if not lane:
                return False
            time, _seq, callback, arg = lane.popleft()
        self.now = time
        self.executed += 1
        if self.profiler is None:
            callback(arg)
        else:
            self._timed(callback, arg)
        return True

    def _timed(self, callback: Callable[..., None], *args: Any) -> None:
        """Run one event's callback under the ``engine.dispatch`` scope."""
        t0 = perf_counter()
        callback(*args)
        self.profiler.add("engine.dispatch", perf_counter() - t0)

    def run(
        self,
        max_events: Optional[int] = None,
        until: Optional[Callable[[], bool]] = None,
    ) -> int:
        """Run until the event list drains, ``max_events`` fire, or ``until()``.

        Args:
            max_events: hard cap on executed events (safety net against
                protocol livelock bugs).
            until: optional stop predicate evaluated between events.

        Returns:
            The number of events executed by this call.
        """
        start = self.executed
        limit = float("inf") if max_events is None else start + max_events
        step = self.step
        while self.executed < limit:
            if until is not None and until():
                break
            if not step():
                break
        return self.executed - start
