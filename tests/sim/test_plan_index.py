"""Fault-plan indexes against a brute-force scan (property-based).

:class:`FaultPlan` indexes its crash and slow windows by node and
:class:`PartitionPlan` its link faults by directed channel, and the
channel looks a link's rates up once per transmission before rolling
drop, jitter and duplicate from them.  Every lookup must answer exactly
what a scan over all windows answers, and every decision must consume
the same draws as the scan-based decisions did.  The reference below is
that scan, kept here on purpose.
"""

import math
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from repro.sim import CrashWindow, FaultPlan, LinkFault, PartitionPlan
from repro.sim import SlowWindow

NODES = (1, 2, 3, 4)

#: window edges sit on a coarse grid so query times hit them exactly
_EDGE = st.integers(min_value=0, max_value=12).map(float)


@st.composite
def _node_windows(draw, make):
    """Non-overlapping windows per node; gaps of 0 make adjacent
    windows, and a node's last window may never end."""
    windows = []
    for node in NODES:
        t = draw(_EDGE)
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            length = draw(st.integers(min_value=1, max_value=6))
            end = (math.inf if draw(st.booleans()) and draw(st.booleans())
                   else t + length)
            windows.append(make(draw, node, t, end))
            if math.isinf(end):
                break
            t = end + draw(st.integers(min_value=0, max_value=2))
    return draw(st.permutations(windows))


def _crash(draw, node, start, end):
    return CrashWindow(node, start, end,
                       draw(st.sampled_from(("durable", "amnesia"))))


def _slow(draw, node, start, end):
    return SlowWindow(node, start, end,
                      draw(st.sampled_from((1.5, 2.0, 6.0, 10.0))))


_RATE = st.sampled_from((0.0, 0.1, 0.5, 0.9, 1.0))


@st.composite
def _link(draw):
    src, dst = draw(st.permutations(NODES))[:2]
    start = draw(_EDGE)
    end = (math.inf if draw(st.booleans())
           else start + draw(st.integers(min_value=1, max_value=6)))
    return LinkFault(src, dst, start, end, draw(_RATE), draw(_RATE),
                     draw(st.sampled_from((0.0, 0.5, 3.0))))


@st.composite
def _links(draw):
    """Link faults, overlapping freely, with some mirrored so both
    directions of a link are faulty."""
    links = draw(st.lists(_link(), max_size=8))
    mirrored = [LinkFault(f.dst, f.src, f.start, f.end, f.drop_rate,
                          f.duplicate_rate, f.jitter)
                for f in links if draw(st.booleans())]
    return draw(st.permutations(links + mirrored))


def _query_times(windows):
    """Every finite window edge, plus points just inside and between."""
    times = {0.0, 0.5, 100.0}
    for w in windows:
        for t in (w.start, w.end):
            if math.isfinite(t):
                times.update((t, t - 0.5, t + 0.5))
    return sorted(t for t in times if t >= 0.0)


# ---------------------------------------------------------------------------
# the reference: a scan over every window, as the plans used to do
# ---------------------------------------------------------------------------


def _covers(w, time):
    return w.start <= time < w.end


def _ref_is_down(crashes, node, time):
    return any(w.node == node and _covers(w, time) for w in crashes)


def _ref_slowdown(slowdowns, node, time):
    for w in slowdowns:
        if w.node == node and _covers(w, time):
            return w.factor
    return 1.0


def _ref_link_slowdown(slowdowns, src, dst, time):
    if not slowdowns:
        return 1.0
    return max(_ref_slowdown(slowdowns, src, time),
               _ref_slowdown(slowdowns, dst, time))


def _ref_active(links, src, dst, time):
    return [f for f in links
            if f.src == src and f.dst == dst and _covers(f, time)]


def _ref_drop_probability(links, src, dst, time):
    return max((f.drop_rate for f in _ref_active(links, src, dst, time)),
               default=0.0)


class _RefLinks:
    """The scan-based link decisions, on their own copy of the stream."""

    def __init__(self, links, seed):
        self.links = links
        self.rng = random.Random(seed)

    def should_drop(self, src, dst, time):
        rate = _ref_drop_probability(self.links, src, dst, time)
        if rate <= 0.0:
            return False
        if rate >= 1.0:
            return True
        return self.rng.random() < rate

    def should_duplicate(self, src, dst, time):
        active = _ref_active(self.links, src, dst, time)
        rate = max((f.duplicate_rate for f in active), default=0.0)
        if rate <= 0.0:
            return False
        return self.rng.random() < rate

    def jitter_for(self, src, dst, time):
        active = _ref_active(self.links, src, dst, time)
        jitter = max((f.jitter for f in active), default=0.0)
        if jitter <= 0.0:
            return 0.0
        return self.rng.uniform(0.0, jitter)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(crashes=_node_windows(_crash), slowdowns=_node_windows(_slow))
def test_node_windows_match_a_scan(crashes, slowdowns):
    plan = FaultPlan(crashes=crashes, slowdowns=slowdowns)
    for time in _query_times(crashes + slowdowns):
        for node in NODES + (5,):
            assert plan.is_down(node, time) == \
                _ref_is_down(crashes, node, time)
            assert plan.slowdown_for(node, time) == \
                _ref_slowdown(slowdowns, node, time)
        for src in NODES:
            for dst in NODES:
                assert plan.link_slowdown(src, dst, time) == \
                    _ref_link_slowdown(slowdowns, src, dst, time)


@settings(max_examples=200, deadline=None)
@given(links=_links())
def test_link_lookups_match_a_scan(links):
    plan = PartitionPlan(seed=1, links=links)
    for time in _query_times(links):
        for src in NODES:
            for dst in NODES:
                if src == dst:
                    continue
                active = _ref_active(links, src, dst, time)
                drop = _ref_drop_probability(links, src, dst, time)
                assert plan.drop_probability(src, dst, time) == drop
                assert plan.is_cut(src, dst, time) == (drop >= 1.0)
                rates = plan._link_rates(src, dst, time)
                if not active:
                    assert rates is None
                else:
                    assert rates == (
                        drop,
                        max(f.duplicate_rate for f in active),
                        max(f.jitter for f in active))


_QUERY = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES),
                   st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0, 11.0, 30.0]))


@settings(max_examples=200, deadline=None)
@given(links=_links(), seed=st.integers(min_value=0, max_value=2**16),
       rate=_RATE, jitter=st.sampled_from((0.0, 1.5)),
       queries=st.lists(_QUERY, max_size=40))
def test_decisions_consume_the_reference_draws(links, seed, rate, jitter,
                                               queries):
    """Per transmission: drop; if delivered, jitter; duplicate; if
    duplicated, jitter again — through the public decisions and through
    the channel's one-lookup rolls, against the scan."""
    faults = FaultPlan(seed=seed, drop_rate=rate, duplicate_rate=rate,
                       jitter=jitter)
    fault_ref = random.Random(seed)
    public = PartitionPlan(seed=seed, links=links)
    rolled = replace(public)
    ref = _RefLinks(links, seed)
    for src, dst, time in queries:
        if src == dst:
            continue
        # the global plan's decisions, against its own reference stream
        expected = rate > 0.0 and fault_ref.random() < rate
        assert faults.should_drop(src, dst) == expected
        expected = fault_ref.uniform(0.0, jitter) if jitter > 0.0 else 0.0
        assert faults.jitter_for(src, dst) == expected
        expected = rate > 0.0 and fault_ref.random() < rate
        assert faults.should_duplicate(src, dst) == expected

        # the link plan's public decisions
        dropped = ref.should_drop(src, dst, time)
        assert public.should_drop(src, dst, time) == dropped
        # ... and the channel's: one lookup, then the rolls
        rates = rolled._link_rates(src, dst, time)
        assert (rates is not None and rolled._roll_drop(rates[0])) == dropped
        if not dropped:
            delay = ref.jitter_for(src, dst, time)
            assert public.jitter_for(src, dst, time) == delay
            assert (0.0 if rates is None
                    else rolled._roll_jitter(rates[2])) == delay
        duplicated = ref.should_duplicate(src, dst, time)
        assert public.should_duplicate(src, dst, time) == duplicated
        assert (rates is not None
                and rolled._roll_duplicate(rates[1])) == duplicated
        if duplicated:
            delay = ref.jitter_for(src, dst, time)
            assert public.jitter_for(src, dst, time) == delay
            assert (0.0 if rates is None
                    else rolled._roll_jitter(rates[2])) == delay
    assert faults._rng.getstate() == fault_ref.getstate()
    assert public._rng.getstate() == ref.rng.getstate()
    assert rolled._rng.getstate() == ref.rng.getstate()
