"""Unit tests for the discrete-event scheduler."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.engine import EventScheduler


class TestScheduling:
    def test_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(5.0, lambda: fired.append("b"))
        sched.schedule(1.0, lambda: fired.append("a"))
        sched.schedule(9.0, lambda: fired.append("c"))
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_in_schedule_order(self):
        """Critical for FIFO channels: equal-time events keep send order."""
        sched = EventScheduler()
        fired = []
        for i in range(50):
            sched.schedule(1.0, lambda i=i: fired.append(i))
        sched.run()
        assert fired == list(range(50))

    def test_now_advances(self):
        sched = EventScheduler()
        times = []
        sched.schedule(2.0, lambda: times.append(sched.now))
        sched.schedule(7.0, lambda: times.append(sched.now))
        sched.run()
        assert times == [2.0, 7.0]

    def test_schedule_during_execution(self):
        sched = EventScheduler()
        fired = []

        def first():
            fired.append("first")
            sched.schedule(1.0, lambda: fired.append("second"))

        sched.schedule(1.0, first)
        sched.run()
        assert fired == ["first", "second"]
        assert sched.now == 2.0

    def test_negative_delay_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        sched = EventScheduler()
        sched.schedule(5.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched.schedule_at(1.0, lambda: None)


class TestTimerCancellation:
    def test_cancelled_timer_does_not_fire(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule(1.0, lambda: fired.append("x"))
        assert handle.active
        assert handle.cancel() is True
        assert not handle.active
        sched.run()
        assert fired == []
        assert sched.executed == 0

    def test_cancel_after_fire_is_noop(self):
        sched = EventScheduler()
        handle = sched.schedule(1.0, lambda: None)
        sched.run()
        assert not handle.active
        assert handle.cancel() is False

    def test_double_cancel_returns_false(self):
        sched = EventScheduler()
        handle = sched.schedule(1.0, lambda: None)
        assert handle.cancel() is True
        assert handle.cancel() is False

    def test_len_excludes_cancelled(self):
        sched = EventScheduler()
        handles = [sched.schedule(float(i + 1), lambda: None)
                   for i in range(5)]
        assert len(sched) == 5
        handles[0].cancel()
        handles[3].cancel()
        assert len(sched) == 3
        sched.run()
        assert len(sched) == 0
        assert sched.executed == 3

    def test_cancelled_events_do_not_count_toward_max_events(self):
        sched = EventScheduler()
        fired = []
        for i in range(10):
            handle = sched.schedule(float(i + 1),
                                    lambda i=i: fired.append(i))
            if i % 2 == 0:
                handle.cancel()
        executed = sched.run(max_events=3)
        assert executed == 3
        assert fired == [1, 3, 5]

    def test_cancel_between_events(self):
        """An event can cancel a later, already-scheduled event."""
        sched = EventScheduler()
        fired = []
        later = sched.schedule(5.0, lambda: fired.append("later"))
        sched.schedule(1.0, lambda: later.cancel())
        sched.run()
        assert fired == []

    def test_schedule_at_returns_cancellable_handle(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule_at(4.0, lambda: fired.append("x"))
        handle.cancel()
        sched.run()
        assert fired == [] and sched.now == 0.0


class TestRunControl:
    def test_max_events(self):
        sched = EventScheduler()

        def rearm():
            sched.schedule(1.0, rearm)

        sched.schedule(1.0, rearm)
        executed = sched.run(max_events=10)
        assert executed == 10
        assert len(sched) == 1

    def test_until_predicate(self):
        sched = EventScheduler()
        count = []
        for i in range(20):
            sched.schedule(float(i + 1), lambda: count.append(1))
        sched.run(until=lambda: len(count) >= 5)
        assert len(count) == 5

    def test_step_on_empty(self):
        assert EventScheduler().step() is False

    def test_step_on_only_cancelled(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None).cancel()
        assert sched.step() is False
        assert sched.now == 0.0

    def test_max_events_zero_runs_nothing(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        assert sched.run(max_events=0) == 0
        assert fired == []

    def test_until_checked_between_events(self):
        """The predicate stops the run as soon as it turns true, even with
        later events already queued at the same time."""
        sched = EventScheduler()
        fired = []
        for i in range(10):
            sched.schedule(1.0, lambda i=i: fired.append(i))
        sched.run(until=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2]
        assert len(sched) == 7

    def test_until_true_before_any_event(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        assert sched.run(until=lambda: True) == 0
        assert fired == []

    def test_schedule_at_in_the_past_raises_midrun(self):
        """schedule_at during execution must reject times behind now."""
        sched = EventScheduler()
        errors = []

        def tries_past():
            try:
                sched.schedule_at(1.0, lambda: None)
            except ValueError as exc:
                errors.append(str(exc))

        sched.schedule(3.0, tries_past)
        sched.run()
        assert len(errors) == 1 and "before current time" in errors[0]

    def test_schedule_at_now_is_allowed(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(2.0, lambda: sched.schedule_at(
            2.0, lambda: fired.append(sched.now)))
        sched.run()
        assert fired == [2.0]


class TestPost:
    def test_post_passes_its_argument(self):
        sched = EventScheduler()
        fired = []
        sched.post(2.0, fired.append, "x")
        sched._post_at(3.0, fired.append, "y", sched._reserve(1) + 1)
        assert len(sched) == 2
        sched.run()
        assert fired == ["x", "y"] and sched.now == 3.0
        assert sched.executed == 2

    def test_post_rejects_the_past(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.post(-1.0, print, None)
        sched.schedule(5.0, lambda: None)
        sched.run()
        with pytest.raises(ValueError):
            sched._post_at(1.0, print, None, sched._reserve(1) + 1)

    def test_out_of_order_post_falls_back_to_the_heap(self):
        sched = EventScheduler()
        fired = []
        sched.post(5.0, fired.append, "late")
        sched.post(1.0, fired.append, "early")  # behind the lane's tail
        sched.post(5.0, fired.append, "tie")
        sched.run()
        assert fired == ["early", "late", "tie"]

    def test_lane_and_timers_interleave_by_time_then_schedule_order(self):
        sched = EventScheduler()
        fired = []
        sched.post(1.0, fired.append, "p1")
        sched.schedule(1.0, lambda: fired.append("t1"))
        sched.post(1.0, fired.append, "p2")
        sched.schedule(0.5, lambda: fired.append("t0"))
        sched.run()
        assert fired == ["t0", "p1", "t1", "p2"]

    def test_reserved_sequence_breaks_ties_as_if_scheduled_early(self):
        sched = EventScheduler()
        fired = []
        base = sched._reserve(2)
        sched.post(4.0, fired.append, "posted")
        sched._post_at(4.0, fired.append, "second", base + 2)
        sched._post_at(4.0, fired.append, "first", base + 1)
        sched.run()
        assert fired == ["first", "second", "posted"]

    def test_sequence_number_not_handed_out_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched._post_at(1.0, print, None, 1)
        with pytest.raises(ValueError):
            sched._reserve(-1)

    def test_step_on_a_lane_only_queue(self):
        sched = EventScheduler()
        fired = []
        for i in range(3):
            sched.post(1.0 + i, fired.append, i)
        assert sched.step() is True
        assert fired == [0] and sched.now == 1.0 and len(sched) == 2
        assert sched.step() and sched.step()
        assert sched.step() is False
        assert fired == [0, 1, 2] and sched.executed == 3

    def test_max_events_stops_mid_lane(self):
        sched = EventScheduler()
        fired = []
        for i in range(10):
            sched.post(1.0, fired.append, i)
        assert sched.run(max_events=4) == 4
        assert fired == [0, 1, 2, 3] and len(sched) == 6
        assert sched.run() == 6
        assert fired == list(range(10))

    def test_until_stops_mid_lane(self):
        sched = EventScheduler()
        fired = []
        for i in range(10):
            sched.post(float(i), fired.append, i)
        sched.run(until=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2] and sched.now == 2.0
        assert len(sched) == 7


def _calls(callback, args):
    """A fan-out whose every member runs ``callback`` on its own arg."""
    return [(callback, arg) for arg in args]


class TestPostMany:
    def test_members_fire_in_order_and_count_one_each(self):
        sched = EventScheduler()
        fired = []
        sched.post_many(2.0, _calls(lambda a: fired.append((a, sched.now)),
                                    ["a", "b", "c"]))
        assert len(sched) == 3
        assert sched.step() is True
        assert fired == [("a", 2.0), ("b", 2.0), ("c", 2.0)]
        assert sched.executed == 3 and len(sched) == 0
        assert sched.step() is False

    def test_each_member_runs_its_own_callback(self):
        sched = EventScheduler()
        fired = []
        sched.post_many(1.0, [(fired.append, "a"),
                              (lambda arg: fired.append(arg * 2), "b"),
                              (fired.append, "c")])
        assert sched.step() is True
        assert fired == ["a", "bb", "c"] and sched.executed == 3

    def test_takes_consecutive_sequence_numbers(self):
        sched = EventScheduler()
        fired = []
        sched.post(1.0, fired.append, "before")
        sched.post_many(1.0, _calls(fired.append, [1, 2]))
        sched.schedule(1.0, lambda: fired.append("after"))
        sched.post(1.0, fired.append, "posted")
        sched.run()
        assert fired == ["before", 1, 2, "after", "posted"]

    def test_events_scheduled_by_a_member_fire_after_the_fan_out(self):
        sched = EventScheduler()
        fired = []

        def member(arg):
            fired.append(arg)
            sched.post(0.0, fired.append, arg + "'")

        sched.post_many(1.0, _calls(member, ["a", "b"]))
        sched.run()
        assert fired == ["a", "b", "a'", "b'"]

    def test_empty_fan_out_posts_nothing(self):
        sched = EventScheduler()
        sched.post_many(1.0, [])
        assert len(sched) == 0 and sched.run() == 0

    def test_rejects_the_past(self):
        with pytest.raises(ValueError):
            EventScheduler().post_many(-1.0, [(print, 1)])

    def test_out_of_order_fan_out_falls_back_to_the_heap(self):
        sched = EventScheduler()
        fired = []
        sched.post(5.0, fired.append, "late")
        sched.post_many(1.0, _calls(fired.append, ["e1", "e2"]))
        assert len(sched._lane) == 1 and len(sched._heap) == 2
        sched.run()
        assert fired == ["e1", "e2", "late"]

    def test_max_events_stops_inside_a_fan_out(self):
        sched = EventScheduler()
        fired = []
        sched.post_many(1.0, _calls(fired.append, range(5)))
        sched.post(2.0, fired.append, "next")
        assert sched.run(max_events=2) == 2
        assert fired == [0, 1] and sched.executed == 2 and len(sched) == 4
        assert sched.run(max_events=2) == 2
        assert fired == [0, 1, 2, 3] and len(sched) == 2
        assert sched.run() == 2
        assert fired == [0, 1, 2, 3, 4, "next"]

    def test_until_is_checked_between_members(self):
        sched = EventScheduler()
        fired = []
        sched.post_many(1.0, _calls(fired.append, range(5)))
        sched.run(until=lambda: len(fired) >= 3)
        assert fired == [0, 1, 2] and sched.executed == 3
        assert len(sched) == 2

    def test_reserved_event_at_now_fires_before_the_remaining_members(self):
        sched = EventScheduler()
        fired = []
        reserved = sched._reserve(1) + 1

        def member(arg):
            fired.append(arg)
            if arg == 0:
                sched._post_at(sched.now, fired.append, "reserved",
                               reserved)

        sched.post_many(1.0, _calls(member, [0, 1, 2]))
        sched.run()
        assert fired == [0, "reserved", 1, 2]

    def test_a_raising_member_leaves_the_rest_pending(self):
        sched = EventScheduler()
        fired = []

        def member(arg):
            if arg == 1:
                raise KeyError(arg)
            fired.append(arg)

        sched.post_many(1.0, _calls(member, [0, 1, 2, 3]))
        with pytest.raises(KeyError):
            sched.run()
        assert fired == [0] and sched.executed == 2 and len(sched) == 2
        sched.run()
        assert fired == [0, 2, 3] and len(sched) == 0


class _HeapOnly:
    """Reference scheduler: one heap, every event keyed ``(time, seq)``.

    ``step()`` fires one event, and then, while that event was a fan-out
    member whose next member is the next live event, that member too.  A
    fan-out is only one entry when it is posted in time order with every
    earlier post (``post_many`` falls back to one event per member
    otherwise), so only then are its members linked.
    """

    def __init__(self):
        self._heap = []
        self._seq = 0
        self._post_tail = float("-inf")  # latest time posted so far
        self.now = 0.0
        self.executed = 0

    class Handle:
        def __init__(self):
            self.live = True
            self.next = None  # the next member of this handle's fan-out

        def cancel(self):
            was, self.live = self.live, False
            return was

    def _push(self, time, fire, seq=None):
        if seq is None:
            self._seq += 1
            seq = self._seq
        handle = self.Handle()
        heapq.heappush(self._heap, (time, seq, handle, fire))
        return handle

    def schedule(self, delay, callback):
        return self._push(self.now + delay, callback)

    def schedule_at(self, time, callback):
        return self._push(time, callback)

    def post(self, delay, callback, arg):
        self._post_tail = max(self._post_tail, self.now + delay)
        return self._push(self.now + delay, lambda: callback(arg))

    def post_many(self, delay, calls):
        in_order = self.now + delay >= self._post_tail
        handles = [self.post(delay, callback, arg) for callback, arg in calls]
        if in_order:
            for handle, after in zip(handles, handles[1:]):
                handle.next = after

    def _post_at(self, time, callback, arg, seq):
        self._push(time, lambda: callback(arg), seq)

    def _reserve(self, count):
        base = self._seq
        self._seq += count
        return base

    def __len__(self):
        return sum(1 for entry in self._heap if entry[2].live)

    def _fire(self):
        """Fire the next live event; its handle, or ``None`` if none."""
        while self._heap:
            time, _seq, handle, fire = heapq.heappop(self._heap)
            if not handle.live:
                continue
            handle.live = False
            self.now = time
            self.executed += 1
            fire()
            return handle
        return None

    def _next_live(self):
        while self._heap and not self._heap[0][2].live:
            heapq.heappop(self._heap)
        return self._heap[0][2] if self._heap else None

    def step(self):
        handle = self._fire()
        if handle is None:
            return False
        while handle.next is not None and self._next_live() is handle.next:
            handle = self._fire()
        return True

    def run(self, max_events=None, until=None):
        start = self.executed
        while max_events is None or self.executed - start < max_events:
            if until is not None and until():
                break
            if self._fire() is None:
                break
        return self.executed - start


_DELAYS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 1.0, 2.0, 3.5])
_SINGLE = ["schedule", "schedule_at", "post", "post_at", "post_reserved"]


def _actions(kinds, delays=_DELAYS):
    return st.recursive(
        st.one_of(
            st.tuples(st.just("cancel"), st.integers(0, 30)),
            st.tuples(st.just("reserve")),
        ),
        lambda children: st.tuples(
            st.sampled_from(kinds), delays, st.lists(children, max_size=3),
            st.integers(1, 4)),
        max_leaves=12,
    )


#: actions that schedule one event each, and with fan-outs added
_ACTION = _actions(_SINGLE)
#: (zero delays and reserved numbers weigh more here: an event a member
#: posts at ``now`` with a number reserved earlier must fire before the
#: remaining members)
_ACTION_MANY = _actions(_SINGLE + ["post_reserved", "post_many"],
                        st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 2.0]))


class _ProgramRunner:
    """Applies one program of actions to a scheduler, logging firings."""

    def __init__(self, sched):
        self.sched = sched
        self.handles = []
        self.reserved = []
        self.log = []
        self.labels = 0

    def apply(self, action):
        sched = self.sched
        kind = action[0]
        if kind == "cancel":
            if self.handles:
                self.handles[action[1] % len(self.handles)].cancel()
            return
        if kind == "reserve":
            self.reserved.append(sched._reserve(1) + 1)
            return
        _, delay, children, width = action
        if kind != "post_many":
            width = 1  # one event: it applies every child
        self.labels += 1
        label = self.labels

        def fire(member=0):
            # a fan-out's member ``j`` applies every ``width``-th child
            # from the ``j``-th, so nesting never multiplies the program
            self.log.append((label, member, sched.now))
            for child in children[member::width]:
                self.apply(child)

        if kind == "schedule":
            self.handles.append(sched.schedule(delay, fire))
        elif kind == "schedule_at":
            self.handles.append(sched.schedule_at(sched.now + delay, fire))
        elif kind == "post":
            sched.post(delay, fire, 0)
        elif kind == "post_many":
            sched.post_many(delay, _calls(fire, range(width)))
        elif kind == "post_at":
            sched._post_at(sched.now + delay, fire, 0,
                           sched._reserve(1) + 1)
        elif self.reserved:  # post_reserved: a number reserved earlier
            sched._post_at(sched.now + delay, fire, 0,
                           self.reserved.pop(0))
        else:
            sched.post(delay, fire, 0)

    def run(self, program):
        for action in program:
            self.apply(action)
        trail = [len(self.sched)]
        while self.sched.step():
            trail.append((self.sched.now, self.sched.executed,
                          len(self.sched)))
        return self.log, trail

    def run_sliced(self, program, cuts):
        """Apply ``program``, then run it in slices; one record per cut.

        Three sequence numbers are reserved up front, as the workload
        arrivals reserve theirs, so a ``post_reserved`` a fan-out member
        makes can sort before the members still to fire.  A ``step`` cut
        calls ``step()`` ``count`` times and records what each call
        returned and ``executed`` after it.
        """
        sched = self.sched
        self.reserved = [sched._reserve(1) + 1 for _ in range(3)]
        for action in program:
            self.apply(action)
        trail = [len(sched)]
        for kind, count in cuts + [("drain", 0)]:
            if kind == "max":
                ran = sched.run(max_events=count)
            elif kind == "until":
                mark = len(self.log) + count
                ran = sched.run(until=lambda: len(self.log) >= mark)
            elif kind == "step":
                ran = [(sched.step(), sched.executed) for _ in range(count)]
            else:
                ran = sched.run()
            trail.append((kind, ran, sched.now, sched.executed, len(sched),
                          len(self.log)))
        return self.log, trail


_CUTS = st.lists(st.tuples(st.sampled_from(["max", "until", "step"]),
                           st.integers(0, 5)), max_size=6)


class TestOrderMatchesHeapOnlyReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(_ACTION, min_size=1, max_size=12))
    def test_firing_order_now_executed_and_len(self, program):
        # without post_many every step fires one event, so the trail
        # compares step by step
        assert (_ProgramRunner(EventScheduler()).run(program)
                == _ProgramRunner(_HeapOnly()).run(program))

    @settings(max_examples=400, deadline=None)
    @given(st.lists(_ACTION_MANY, min_size=1, max_size=12), _CUTS)
    def test_sliced_runs_match_at_every_cut(self, program, cuts):
        """Fan-outs fire back to back, yet at every ``run(max_events=k)``,
        ``run(until=...)`` or ``step()`` cut the firing log, ``now``,
        ``executed`` and ``len()`` equal a single heap holding every
        member."""
        assert (_ProgramRunner(EventScheduler()).run_sliced(program, cuts)
                == _ProgramRunner(_HeapOnly()).run_sliced(program, cuts))
