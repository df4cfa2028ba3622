"""Greedy schedule shrinking for violating chaos cells.

Once the fuzzer finds a schedule whose run violates consistency, the raw
schedule is rarely the story: three crash windows, two link cuts and
background message loss obscure which single interaction broke the
protocol.  :func:`shrink` reduces the schedule while preserving the
violation — the classic QuickCheck/delta-debugging move, specialized to
fault schedules:

* drop one crash window;
* drop one link fault;
* drop one membership change (or the whole reconfiguration plan);
* zero the global drop / duplicate / jitter rates;
* disable sequencer failover;
* simplify the degraded-mode policy back to ``stall``;
* halve the duration of one crash window or link fault.

Candidates are tried in that order (structure removal before parameter
shrinking); the first candidate that *still* violates becomes the new
schedule and the pass restarts.  The loop is a fixpoint iteration bounded
by a run budget, every candidate is evaluated in-process through
:func:`repro.exp.runner.run_cell`, and candidate order is a pure function
of the current cell — so shrinking is exactly reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterator, Optional

from ..exp.runner import run_cell
from ..exp.spec import SweepCell
from ..sim.faults import FaultPlan
from ..sim.partition import PartitionPlan

__all__ = ["ShrinkResult", "fault_window_count", "shrink"]

#: a crash or link shorter than this is not worth halving further
_MIN_DURATION = 50.0


def fault_window_count(cell: SweepCell) -> int:
    """Crash windows plus link faults in the cell's schedule."""
    config = cell.config
    count = 0
    if config.faults is not None:
        count += len(config.faults.crashes)
    if config.partitions is not None:
        count += len(config.partitions.links)
    if config.reconfig is not None:
        count += len(config.reconfig.changes)
    return count


def _with_faults(cell: SweepCell,
                 faults: Optional[FaultPlan]) -> SweepCell:
    if faults is not None and faults.is_none:
        faults = None
    return cell.with_(config=cell.config.with_(faults=faults))


def _with_partitions(cell: SweepCell,
                     partitions: Optional[PartitionPlan]) -> SweepCell:
    if partitions is not None and partitions.is_none:
        partitions = None
    return cell.with_(config=cell.config.with_(partitions=partitions))


def _candidates(cell: SweepCell) -> Iterator[SweepCell]:
    """Strictly-simpler variants of ``cell``, most aggressive first."""
    config = cell.config
    faults = config.faults
    partitions = config.partitions

    # 1. remove one crash window
    if faults is not None:
        for index in range(len(faults.crashes)):
            kept = faults.crashes[:index] + faults.crashes[index + 1:]
            yield _with_faults(cell, replace(faults, crashes=kept))

    # 2. remove one link fault
    if partitions is not None:
        for index in range(len(partitions.links)):
            kept = partitions.links[:index] + partitions.links[index + 1:]
            yield _with_partitions(cell, replace(partitions, links=kept))

    # 2b. drop one membership change (a candidate whose remaining chain
    # is inconsistent — e.g. a later change leaving a node an earlier,
    # now-removed change joined — is skipped, not yielded)
    if config.reconfig is not None:
        plan = config.reconfig
        for index in range(len(plan.changes)):
            kept = plan.changes[:index] + plan.changes[index + 1:]
            candidate = replace(plan, changes=kept)
            try:
                candidate.validate_membership(cell.params.N + 1)
            except ValueError:
                continue
            yield cell.with_(config=config.with_(
                reconfig=None if candidate.is_none else candidate
            ))

    # 3. zero the global noise rates
    if faults is not None:
        for change in ("drop_rate", "duplicate_rate", "jitter"):
            if getattr(faults, change):
                yield _with_faults(cell, replace(faults, **{change: 0.0}))

    # 4. drop the failover dimension
    if config.failover:
        yield cell.with_(config=config.with_(failover=False))

    # 5. simplify the degraded-mode policy
    if partitions is not None and partitions.policy != "stall":
        yield _with_partitions(cell, replace(partitions, policy="stall"))

    # 6. halve one crash window's duration
    if faults is not None:
        for index, w in enumerate(faults.crashes):
            duration = w.end - w.start
            if duration > _MIN_DURATION:
                halved = replace(w, end=w.start + duration / 2.0)
                crashes = (faults.crashes[:index] + (halved,)
                           + faults.crashes[index + 1:])
                yield _with_faults(cell, replace(faults, crashes=crashes))

    # 7. halve one link fault's duration
    if partitions is not None:
        for index, link in enumerate(partitions.links):
            duration = link.end - link.start
            if duration > _MIN_DURATION:
                halved = replace(link, end=link.start + duration / 2.0)
                links = (partitions.links[:index] + (halved,)
                         + partitions.links[index + 1:])
                yield _with_partitions(cell,
                                       replace(partitions, links=links))


@dataclass(frozen=True)
class ShrinkResult:
    """The outcome of one :func:`shrink` call."""

    #: the minimal (under the budget) still-violating cell
    cell: SweepCell
    #: the violating row of :attr:`cell`
    row: dict
    #: simulator runs spent shrinking
    runs: int


def shrink(
    cell: SweepCell,
    row: dict,
    violates: Callable[[dict], bool],
    budget: int = 64,
) -> ShrinkResult:
    """Greedily reduce ``cell`` while ``violates(run_cell(...))`` holds.

    Args:
        cell: the violating schedule to reduce.
        row: the (violating) row already computed for ``cell``.
        violates: the predicate that must keep holding.
        budget: most simulator runs to spend; when exhausted the best
            cell found so far is returned.
    """
    runs = 0
    improved = True
    while improved and runs < budget:
        improved = False
        for candidate in _candidates(cell):
            if runs >= budget:
                break
            candidate_row = run_cell(candidate)
            runs += 1
            if violates(candidate_row):
                cell, row = candidate, candidate_row
                improved = True
                break
    return ShrinkResult(cell=cell, row=row, runs=runs)
