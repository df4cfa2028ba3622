"""The fault timeline against a brute-force scan (property-based).

A faulty fabric compiles its crash windows, slow windows and link faults
into one :class:`FaultTimeline` and reads one segment of it per
transmission, rolling drop, jitter and duplicate from that segment's
link rates.  Every segment must answer exactly what a scan over all
windows answers — on window edges, across adjacent windows and open
ends, and for queries in any order (the cursor re-seeks) — and every
decision must consume the same draws as the scan-based decisions.  The
reference below is that scan, kept here on purpose.
"""

import math
import random

from hypothesis import given, settings, strategies as st

from repro.sim import CrashWindow, FaultPlan, LinkFault, PartitionPlan
from repro.sim import SlowWindow
from repro.sim.faults import FaultTimeline

from .util import fabric, transmit

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


def _orders(times):
    """Ascending, then descending (every step re-seeks the cursor)."""
    return list(times) + list(reversed(times))


@settings(max_examples=200, deadline=None)
@given(crashes=_node_windows(_crash), slowdowns=_node_windows(_slow))
def test_node_windows_match_a_scan(crashes, slowdowns):
    timeline = FaultTimeline(
        FaultPlan(crashes=crashes, slowdowns=slowdowns), None)
    for time in _orders(_query_times(crashes + slowdowns)):
        down, slow, links = timeline.at(time)
        assert links == {}
        for node in NODES + (5,):
            assert (node in down) == _ref_is_down(crashes, node, time)
            assert slow.get(node, 1.0) == \
                _ref_slowdown(slowdowns, node, time)
        for src in NODES:
            for dst in NODES:
                assert max(slow.get(src, 1.0), slow.get(dst, 1.0)) == \
                    _ref_link_slowdown(slowdowns, src, dst, time)


@settings(max_examples=200, deadline=None)
@given(links=_links(), crashes=_node_windows(_crash))
def test_link_lookups_match_a_scan(links, crashes):
    timeline = FaultTimeline(FaultPlan(crashes=crashes),
                             PartitionPlan(seed=1, links=links))
    for time in _orders(_query_times(links + crashes)):
        down, _slow, rates = timeline.at(time)
        assert down == {n for n in NODES
                        if _ref_is_down(crashes, n, time)}
        for src in NODES:
            for dst in NODES:
                active = _ref_active(links, src, dst, time)
                link = rates.get(src, {}).get(dst)
                if not active:
                    assert link is None
                else:
                    assert link == (
                        _ref_drop_probability(links, src, dst, time),
                        max(f.duplicate_rate for f in active),
                        max(f.jitter for f in active))


def test_rates_only_plan_has_one_segment():
    timeline = FaultTimeline(FaultPlan(seed=3, drop_rate=0.2, jitter=1.0),
                             None)
    assert timeline.edges == [] and len(timeline.segments) == 1
    assert timeline.at(0.0) == timeline.at(1e9) == (frozenset(), {}, {})


_QUERY = st.tuples(st.sampled_from(NODES), st.sampled_from(NODES),
                   st.sampled_from([0.0, 1.0, 2.5, 4.0, 7.0, 11.0, 30.0]))


@settings(max_examples=200, deadline=None)
@given(links=_links(), slowdowns=_node_windows(_slow),
       crashes=_node_windows(_crash),
       seed=st.integers(min_value=0, max_value=2**16),
       rate=_RATE, jitter=st.sampled_from((0.0, 1.5)),
       queries=st.lists(_QUERY, max_size=40))
def test_decisions_consume_the_reference_draws(links, slowdowns, crashes,
                                               seed, rate, jitter, queries):
    """Per transmission through :meth:`Network.send`: a crashed source
    sends nothing and draws nothing; otherwise global then link drop; if
    delivered, global then link jitter; global then link duplicate; if
    duplicated, jitter again.  Each delay is the latency plus both
    jitters, times the slower endpoint's factor — against the scan."""
    faults = FaultPlan(seed=seed, drop_rate=rate, duplicate_rate=rate,
                       jitter=jitter, crashes=crashes, slowdowns=slowdowns)
    partitions = PartitionPlan(seed=seed, links=links)
    net = fabric(faults, partitions)
    fault_ref = random.Random(seed)
    ref = _RefLinks(links, seed)

    def delay(src, dst, time):
        d = 1.0 + (fault_ref.uniform(0.0, jitter) if jitter > 0.0 else 0.0)
        d += ref.jitter_for(src, dst, time)
        return d * _ref_link_slowdown(slowdowns, src, dst, time)

    for src, dst, time in queries:
        if src == dst:
            continue
        sent = transmit(net, src, dst, time)
        if _ref_is_down(crashes, src, time):
            assert sent == (False, False, False, ())
            continue
        delays = []
        dropped = ((rate > 0.0 and fault_ref.random() < rate)
                   or ref.should_drop(src, dst, time))
        if not dropped:
            delays.append(delay(src, dst, time))
        duplicated = ((rate > 0.0 and fault_ref.random() < rate)
                      or ref.should_duplicate(src, dst, time))
        if duplicated:
            delays.append(delay(src, dst, time))
        assert sent == (True, dropped, duplicated, tuple(delays))
    assert faults._rng.getstate() == fault_ref.getstate()
    assert partitions._rng.getstate() == ref.rng.getstate()
