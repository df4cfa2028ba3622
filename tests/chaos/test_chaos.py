"""Tests for the deterministic chaos fuzzer and its schedule shrinker.

The headline properties, straight from the PR's acceptance criteria:

* the whole pipeline is a pure function of ``(base_seed, fuzz_seed,
  protocol)`` — two runs of the same campaign produce byte-identical
  repro files;
* with a deliberately sabotaged resync path the fuzzer *finds* the bug
  and shrinks every finding to at most two fault windows;
* with the sabotage removed, a 50-seed campaign across every protocol
  reports zero violations (the honest-fuzz regression gate).
"""

import json

import pytest

from repro.chaos import (
    ALL_CHAOS_PROTOCOLS,
    ChaosOptions,
    chaos_cells,
    fault_window_count,
    generate_cell,
    load_repro,
    replay_repro,
    run_chaos,
    shrink,
    violates,
    write_repros,
)
from repro.chaos.shrink import _candidates
from repro.core.parameters import WorkloadParams
from repro.exp.runner import run_cell
from repro.exp.spec import SweepCell
from repro.sim import CrashWindow, FaultPlan, RunConfig, SlowWindow
from repro.sim.cache import CACHE_POLICIES
from repro.sim.recovery import RecoveryManager


@pytest.fixture
def sabotaged_rejoin(monkeypatch):
    """Break partition/amnesia rejoin: re-enable the node with a stale
    replica, skipping resync and the epoch reset (the seeded bug the
    mutation-detection criterion requires the fuzzer to find)."""

    def sabotage(self, node):
        self._quarantined.discard(node.node_id)
        self.cluster.quarantined.discard(node.node_id)
        for port in node.ports.values():
            port.process.state = "VALID"
            port.process.value = -1  # garbage predating the outage
            port.local_enabled = True
        self._pump_all()

    monkeypatch.setattr(RecoveryManager, "_finish_rejoin", sabotage)


class TestOptions:
    def test_defaults_resolve_every_protocol(self):
        options = ChaosOptions()
        assert options.resolved_protocols == ALL_CHAOS_PROTOCOLS
        assert len(ALL_CHAOS_PROTOCOLS) == 10
        assert "sc_abd" in ALL_CHAOS_PROTOCOLS

    def test_validation(self):
        with pytest.raises(ValueError):
            ChaosOptions(seeds=0)
        with pytest.raises(ValueError):
            ChaosOptions(N=1)
        with pytest.raises(ValueError, match="unknown protocol"):
            ChaosOptions(protocols=("mesi",))


class TestGenerator:
    def test_deterministic_in_all_coordinates(self):
        options = ChaosOptions(base_seed=5)
        a = generate_cell("illinois", 7, options)
        b = generate_cell("illinois", 7, options)
        assert a.to_payload() == b.to_payload()

    def test_coordinates_are_independent(self):
        options = ChaosOptions(base_seed=5)
        base = generate_cell("illinois", 7, options).to_payload()
        assert generate_cell("illinois", 8, options).to_payload() != base
        assert generate_cell("berkeley", 7, options).to_payload() != base
        other = ChaosOptions(base_seed=6)
        assert generate_cell("illinois", 7, other).to_payload() != base

    def test_cells_cover_the_campaign(self):
        options = ChaosOptions(seeds=3,
                               protocols=("write_through", "dragon"))
        coords = chaos_cells(options)
        assert [(p, s) for p, s, _ in coords] == [
            ("write_through", 0), ("write_through", 1),
            ("write_through", 2),
            ("dragon", 0), ("dragon", 1), ("dragon", 2),
        ]
        for protocol, _seed, cell in coords:
            assert cell.protocol == protocol
            assert cell.kind == "sim"
            assert cell.config.monitor is True

    def test_quorum_cells_are_sanitized(self):
        """SC-ABD rejects amnesia crashes and failover; the generator
        sanitizes those draws *after* the RNG stream so every other
        protocol's schedule is untouched."""
        options = ChaosOptions(seeds=30)
        saw_crash = False
        for _p, _s, cell in chaos_cells(
                ChaosOptions(seeds=30, protocols=("sc_abd",))):
            assert cell.config.failover is False
            if cell.config.faults is not None:
                for window in cell.config.faults.crashes:
                    saw_crash = True
                    assert window.semantics == "durable"
        assert saw_crash  # the sweep actually exercised crash windows
        # the RNG stream is untouched: a star protocol's cells are the
        # same whether or not sc_abd exists in the campaign.
        a = generate_cell("illinois", 3, options)
        b = generate_cell("illinois", 3, ChaosOptions(seeds=30))
        assert a.to_payload() == b.to_payload()

    def test_schedules_stay_within_budgets(self):
        options = ChaosOptions(seeds=20)
        for _p, _s, cell in chaos_cells(options):
            faults = cell.config.faults
            if faults is not None:
                assert len(faults.crashes) <= options.max_crashes
            partitions = cell.config.partitions
            if partitions is not None:
                # a symmetric cut expands to two mirrored LinkFaults
                assert len(partitions.links) <= 2 * options.max_links

    def test_slow_windows_off_draws_no_gray_failures(self):
        """The flag-off stream never carries slow windows or hedging, so
        campaigns predating the straggler model keep their schedules."""
        for _p, _s, cell in chaos_cells(ChaosOptions(seeds=15)):
            faults = cell.config.faults
            assert faults is None or not faults.has_slowdowns
            assert cell.config.hedge is None

    def test_slow_windows_on_draws_stragglers_and_hedges(self):
        options = ChaosOptions(seeds=25, slow_windows=True,
                               protocols=("illinois", "sc_abd"))
        saw_slow = saw_hedge = False
        for protocol, _s, cell in chaos_cells(options):
            faults = cell.config.faults
            if faults is not None and faults.has_slowdowns:
                saw_slow = True
                assert len(faults.slowdowns) <= options.max_slow
                for window in faults.slowdowns:
                    assert 1 <= window.node <= options.N + 1
                    assert window.factor > 1
            if cell.config.hedge is not None:
                saw_hedge = True
                # hedging is a quorum-phase mechanism: only the quorum
                # family ever draws it.
                assert protocol == "sc_abd"
        assert saw_slow and saw_hedge

    def test_slow_window_cells_are_deterministic(self):
        options = ChaosOptions(base_seed=9, slow_windows=True)
        a = generate_cell("sc_abd", 4, options)
        b = generate_cell("sc_abd", 4, options)
        assert a.to_payload() == b.to_payload()

    def test_bounded_caches_off_draws_no_caches(self):
        """The flag-off stream never carries a cache config (and its
        serialized payload stays byte-identical to a pre-cache tree)."""
        for _p, _s, cell in chaos_cells(ChaosOptions(seeds=15)):
            assert cell.config.cache is None
            assert "cache" not in cell.to_payload()["config"]

    def test_bounded_caches_on_draws_capped_configs(self):
        options = ChaosOptions(seeds=25, bounded_caches=True, M=3,
                               protocols=("illinois", "sc_abd"))
        saw = False
        for _p, _s, cell in chaos_cells(options):
            cache = cell.config.cache
            if cache is None:
                continue
            saw = True
            # a cache that holds every object never evicts: the fuzzer
            # only draws capacities that actually bound the client.
            assert 1 <= cache.capacity < options.M
            assert cache.policy in CACHE_POLICIES
        assert saw

    def test_bounded_cache_cells_are_deterministic(self):
        options = ChaosOptions(base_seed=9, bounded_caches=True)
        a = generate_cell("firefly", 4, options)
        b = generate_cell("firefly", 4, options)
        assert a.to_payload() == b.to_payload()

    def test_bounded_cache_repro_round_trips(self, tmp_path):
        options = ChaosOptions(base_seed=9, bounded_caches=True)
        cell = next(
            c for seed in range(20)
            for c in [generate_cell("write_once", seed, options)]
            if c.config.cache is not None
        )
        again = type(cell).from_payload(cell.to_payload())
        assert again.config.cache == cell.config.cache
        assert again.cell_id() == cell.cell_id()


class TestViolates:
    def test_failed_row_is_a_finding(self):
        assert violates({"status": "failed", "error": "boom"})

    def test_consistency_kinds_are_findings(self):
        assert violates({"status": "ok",
                         "violation_kinds": ["sequential_consistency"]})
        assert violates({"status": "ok", "violation_kinds": ["divergence"]})

    def test_delivery_degradation_is_not_a_finding(self):
        assert not violates({"status": "ok",
                             "violation_kinds": ["delivery"]})
        assert not violates({"status": "ok", "violation_kinds": []})


class TestShrinker:
    def test_always_violating_cell_shrinks_to_nothing(self):
        options = ChaosOptions(seeds=40)
        cell = next(c for _p, _s, c in chaos_cells(options)
                    if fault_window_count(c) >= 2)
        row = run_cell(cell)
        result = shrink(cell, row, lambda _row: True, budget=64)
        assert fault_window_count(result.cell) == 0
        assert result.runs <= 64

    def test_never_violating_predicate_keeps_the_cell(self):
        options = ChaosOptions(seeds=10)
        cell = next(c for _p, _s, c in chaos_cells(options)
                    if fault_window_count(c) >= 1)
        row = run_cell(cell)
        result = shrink(cell, row, lambda _row: False, budget=64)
        assert result.cell.to_payload() == cell.to_payload()
        assert result.row == row

    def test_fault_candidates_keep_the_slow_windows(self):
        slow = (SlowWindow(3, 50.0, 300.0, 4.0),)
        faults = FaultPlan(seed=1, drop_rate=0.05,
                           crashes=[CrashWindow(2, 100.0, 400.0)],
                           slowdowns=slow)
        cell = SweepCell(protocol="write_through",
                         params=WorkloadParams(N=4, p=0.3), kind="sim",
                         M=2, config=RunConfig(ops=100, faults=faults))
        shrunk = [c.config.faults for c in _candidates(cell)]
        # drop the crash, zero the drop rate, halve the crash
        assert len(shrunk) == 3
        assert all(plan.slowdowns == slow for plan in shrunk)


class TestMutationDetection:
    """The acceptance gate: a seeded resync bug is found and the schedule
    shrinks to at most two fault windows, bit-identically across runs."""

    OPTIONS = ChaosOptions(seeds=8,
                           protocols=("write_through", "berkeley"))

    def test_sabotage_found_and_shrunk(self, sabotaged_rejoin):
        report = run_chaos(self.OPTIONS)
        assert not report.ok
        for finding in report.findings:
            assert finding.fault_windows <= 2, finding.describe()
            assert finding.shrink_runs > 0
            assert violates(finding.row)

    def test_findings_bit_identical_across_runs(self, sabotaged_rejoin):
        first = [f.repro_json() for f in run_chaos(self.OPTIONS).findings]
        second = [f.repro_json() for f in run_chaos(self.OPTIONS).findings]
        assert first and first == second

    def test_repro_files_round_trip_and_replay(self, sabotaged_rejoin,
                                               tmp_path):
        report = run_chaos(ChaosOptions(seeds=8,
                                        protocols=("write_through",)))
        assert not report.ok
        paths = write_repros(report, tmp_path)
        assert len(paths) == len(report.findings)
        for finding, path in zip(report.findings, paths):
            data = json.loads(path.read_text())
            assert data["protocol"] == finding.protocol
            assert data["fault_windows"] == finding.fault_windows
            cell = load_repro(path)
            assert cell.to_payload() == finding.shrunk.to_payload()
        # under the still-active sabotage the repro reproduces exactly
        row = replay_repro(paths[0])
        assert violates(row)
        assert row == report.findings[0].row


class TestHonestFuzz:
    def test_fifty_seeds_all_protocols_clean(self):
        """No findings across 50 seeds x all 10 protocols — including
        SC-ABD under minority-partition schedules (the PR's
        zero-violation criterion)."""
        report = run_chaos(ChaosOptions(seeds=50))
        assert report.cells == 50 * len(ALL_CHAOS_PROTOCOLS)
        assert report.ok, "\n\n".join(
            f.describe() for f in report.findings)
