"""Tests for the command-line interface."""

import json

import pytest

from repro.chaos import ChaosOptions
from repro.cli import (
    _FLAGS,
    _chaos_options,
    build_parser,
    main,
    runconfig_from_args,
    workload_from_args,
)
from repro.core.parameters import WorkloadParams
from repro.obs import TraceConfig
from repro.sim import (
    CacheConfig,
    ConsistencyViolation,
    CrashWindow,
    DSMSystem,
    FaultPlan,
    HedgeConfig,
    PartitionPlan,
    ReconfigPlan,
    ReliabilityConfig,
    RunConfig,
)
from repro.sim.partition import cut


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAcc:
    def test_acc_matches_library(self, capsys):
        code, out, _ = run(capsys, "acc", "berkeley", "--N", "8",
                           "--p", "0.2", "--a", "3", "--sigma", "0.1")
        assert code == 0
        from repro.core import analytical_acc, Deviation, WorkloadParams
        expected = analytical_acc(
            "berkeley",
            WorkloadParams(N=8, p=0.2, a=3, sigma=0.1, S=100, P=30),
            Deviation.READ,
        )
        assert f"{expected:.4f}" in out

    def test_unknown_protocol_errors(self, capsys):
        code, _out, err = run(capsys, "acc", "mesi", "--N", "4", "--p", "0.2")
        assert code == 2
        assert "unknown protocol" in err

    def test_infeasible_params_error(self, capsys):
        code, _out, err = run(capsys, "acc", "berkeley", "--N", "4",
                              "--p", "0.9", "--a", "2", "--sigma", "0.2")
        assert code == 2
        assert "infeasible" in err

    def test_markov_method_flag(self, capsys):
        code, out, _ = run(capsys, "acc", "write_once", "--N", "5",
                           "--p", "0.3", "--method", "markov")
        assert code == 0 and "acc(" in out

    def test_extension_protocol_available(self, capsys):
        code, out, _ = run(capsys, "acc", "write_through_dir", "--N", "5",
                           "--p", "0.3", "--a", "2", "--sigma", "0.1")
        assert code == 0


class TestRank:
    def test_rank_lists_all_eight(self, capsys):
        code, out, _ = run(capsys, "rank", "--N", "10", "--p", "0.3",
                           "--a", "4", "--sigma", "0.1")
        assert code == 0
        for name in ("write_through", "berkeley", "dragon", "firefly"):
            assert name in out

    def test_rank_sorted_ascending(self, capsys):
        code, out, _ = run(capsys, "rank", "--N", "10", "--p", "0.3",
                           "--a", "4", "--sigma", "0.1")
        values = [float(line.split()[-1]) for line in
                  out.strip().splitlines()[1:]]
        assert values == sorted(values)


class TestSimulate:
    def test_simulate_reports_acc_and_latency(self, capsys):
        code, out, _ = run(capsys, "simulate", "write_through", "--N", "3",
                           "--p", "0.3", "--a", "2", "--sigma", "0.1",
                           "--ops", "800", "--seed", "1")
        assert code == 0
        assert "simulated acc" in out and "latency" in out

    def test_simulate_with_cache(self, capsys):
        code, out, _ = run(capsys, "simulate", "write_through", "--N", "3",
                           "--p", "0.3", "--a", "2", "--sigma", "0.1",
                           "--ops", "600", "--M", "5",
                           "--cache-capacity", "2")
        assert code == 0
        assert "cache hits/misses" in out


class TestSimulateFaults:
    def test_drop_rate_reports_reliability_block(self, capsys):
        code, out, _ = run(capsys, "simulate", "write_through", "--N", "3",
                           "--p", "0.3", "--a", "2", "--sigma", "0.1",
                           "--ops", "800", "--seed", "1",
                           "--drop-rate", "0.2", "--fault-seed", "7")
        assert code == 0
        assert "acc breakdown" in out
        assert "retransmissions" in out
        assert "drop=0.2" in out

    def test_fault_free_run_prints_no_reliability_block(self, capsys):
        code, out, _ = run(capsys, "simulate", "write_through", "--N", "3",
                           "--p", "0.3", "--a", "2", "--sigma", "0.1",
                           "--ops", "800", "--seed", "1")
        assert code == 0
        assert "retransmissions" not in out

    def test_crash_at_sequencer(self, capsys):
        code, out, _ = run(capsys, "simulate", "write_through", "--N", "3",
                           "--p", "0.3", "--a", "2", "--sigma", "0.1",
                           "--ops", "800", "--seed", "1",
                           "--crash-at", "4:2000:4000")
        assert code == 0
        assert "crashes/recoveries = 1/1" in out

    def test_bad_crash_spec_errors(self, capsys):
        code, _out, err = run(capsys, "simulate", "write_through", "--N", "3",
                              "--p", "0.3", "--a", "2", "--sigma", "0.1",
                              "--crash-at", "nonsense")
        assert code == 2
        assert "crash" in err.lower()

    def test_bad_drop_rate_errors(self, capsys):
        code, _out, err = run(capsys, "simulate", "write_through", "--N", "3",
                              "--p", "0.3", "--a", "2", "--sigma", "0.1",
                              "--drop-rate", "1.5")
        assert code == 2
        assert "drop_rate" in err

    def test_determinism_across_invocations(self, capsys):
        argv = ("simulate", "berkeley", "--N", "3", "--p", "0.3",
                "--a", "2", "--sigma", "0.1", "--ops", "800", "--seed", "1",
                "--drop-rate", "0.1", "--fault-seed", "3")
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2


class TestSimulatePartitions:
    ARGV = ("simulate", "write_through", "--N", "4", "--p", "0.3",
            "--a", "3", "--sigma", "0.15", "--ops", "800", "--seed", "1")

    def test_cut_reports_partition_block(self, capsys):
        code, out, _ = run(capsys, *self.ARGV,
                           "--cut", "2:5:500:900", "--monitor")
        assert code == 0
        assert "robustness:" in out
        assert "cut(2<->5: 500..900)" in out
        assert "heartbeats" in out
        assert "detector" in out  # priced share in the breakdown
        assert "consistency     = ok" in out

    def test_banner_renders_full_robustness_config(self, capsys):
        """Partitions-only runs surface detector knobs, degraded-mode
        policy and the silently-defaulted retry policy in one banner."""
        code, out, _ = run(capsys, *self.ARGV,
                           "--cut", "2:5:500:900", "--monitor")
        assert code == 0
        assert "faults:      none" in out
        assert ("partitions:  seed=0, detector(interval=40, "
                "suspect_after=3, policy=stall), "
                "cut(2<->5: 500..900)" in out)
        assert "reliability: timeout=8, backoff=2, max_retries=10" in out
        assert "failover:    off" in out
        assert "monitor:     on" in out

    def test_one_way_cut_parses(self, capsys):
        code, out, _ = run(capsys, *self.ARGV,
                           "--cut-one-way", "2:5:500:900")
        assert code == 0
        assert "cut(2->5: 500..900)" in out

    def test_serve_local_reads_reports_stale_reads(self, capsys):
        code, out, _ = run(capsys, *self.ARGV[:-1], "3",
                           "--ops", "2000",
                           "--cut", "2:5:3000:9000",
                           "--partition-policy", "serve_local_reads")
        assert code == 0
        assert "policy=serve_local_reads" in out
        assert "stale reads served" in out

    def test_no_detector_flag(self, capsys):
        code, out, _ = run(capsys, *self.ARGV,
                           "--cut", "2:5:500:900", "--no-detector")
        assert code == 0
        assert "detector=off" in out
        assert "heartbeats      = 0" in out

    def test_bad_cut_spec_errors(self, capsys):
        code, _out, err = run(capsys, *self.ARGV, "--cut", "nonsense")
        assert code == 2
        assert "--cut" in err

    def test_unknown_node_errors(self, capsys):
        code, _out, err = run(capsys, *self.ARGV, "--cut", "2:9:500")
        assert code == 2
        assert "node 9" in err

    def test_crash_semantics_in_fault_describe(self, capsys):
        code, out, _ = run(capsys, *self.ARGV,
                           "--crash-at", "2:300:500",
                           "--crash-at", "3:300:500",
                           "--crash-semantics", "amnesia")
        assert code == 0
        assert "crash(nodes 2,3: 300..500, amnesia)" in out


class TestSimulateGrayFailures:
    ARGV = ("simulate", "sc_abd", "--N", "6", "--p", "0.2",
            "--ops", "600", "--seed", "1")

    def test_slow_at_reports_detector_states(self, capsys):
        code, out, _ = run(capsys, *self.ARGV,
                           "--slow-at", "2:100:inf", "--monitor")
        assert code == 0
        assert "slow(node 2: 100..∞, x10)" in out
        assert "detector states" in out
        assert "demoted" in out
        assert "demotions" in out
        assert "consistency     = ok" in out

    def test_hedged_run_reports_share_and_launches(self, capsys):
        code, out, _ = run(capsys, *self.ARGV, "--warmup", "0",
                           "--slow-at", "2:100:300:10",
                           "--hedge-budget", "8", "--hedge-legs", "2",
                           "--monitor")
        assert code == 0
        assert "hedge:       budget=8, max_legs=2, seed=0" in out
        assert "hedge)" in out  # priced share in the breakdown
        assert "hedges launched" in out
        assert "consistency     = ok" in out

    def test_slow_at_factor_defaults_to_ten(self, capsys):
        code, out, _ = run(capsys, *self.ARGV, "--slow-at", "2:100:300")
        assert code == 0
        assert "slow(node 2: 100..300, x10)" in out

    def test_bad_slow_spec_errors(self, capsys):
        code, _out, err = run(capsys, *self.ARGV, "--slow-at", "2:100")
        assert code == 2
        assert "--slow-at" in err

    def test_unknown_slow_node_errors(self, capsys):
        code, _out, err = run(capsys, *self.ARGV, "--slow-at", "9:100:300")
        assert code == 2
        assert "node 9" in err

    def test_hedge_on_star_protocol_errors(self, capsys):
        code, _out, err = run(capsys, "simulate", "write_through",
                              "--N", "3", "--p", "0.3",
                              "--hedge-budget", "8")
        assert code == 2
        assert "quorum" in err


class TestSimulateQuorum:
    ARGV = ("simulate", "sc_abd", "--N", "4", "--p", "0.3",
            "--a", "2", "--sigma", "0.1", "--ops", "600", "--seed", "1")

    def test_fault_free_run_matches_analytic(self, capsys):
        code, out, _ = run(capsys, *self.ARGV)
        assert code == 0
        assert "simulated acc" in out
        sim = float(out.split("simulated acc   =")[1].split()[0])
        analytic = float(out.split("analytic acc    =")[1].split()[0])
        assert abs(sim - analytic) / analytic < 0.05

    def test_partitioned_run_reports_quorum_share(self, capsys):
        code, out, _ = run(capsys, *self.ARGV,
                           "--cut", "1:3:500:900", "--monitor")
        assert code == 0
        assert "quorum)" in out  # the quorum share in the breakdown
        assert "consistency     = ok" in out

    def test_failover_flag_rejected(self, capsys):
        code, _out, err = run(capsys, *self.ARGV, "--crash-at", "2:100:300",
                              "--failover")
        assert code == 2
        assert "no sequencer" in err


class TestSimulateReconfig:
    ARGV = ("simulate", "sc_abd", "--N", "4", "--p", "0.3",
            "--a", "2", "--sigma", "0.1", "--ops", "600", "--seed", "1")

    def test_join_leave_run_reports_reconfig_block(self, capsys):
        code, out, _ = run(capsys, *self.ARGV,
                           "--join-at", "6:900", "--leave-at", "2:1800",
                           "--monitor")
        assert code == 0
        assert "reconfig:    seed=0, change(@900: +6), change(@1800: -2)" \
            in out
        assert "reconfig)" in out  # the reconfig share in the breakdown
        assert "transitions     = 2 (2 committed, 0 aborted)" in out
        assert "membership      = {1,3,4,5,6} (epoch 2" in out
        assert "ops redriven" in out
        assert "state transfer" in out
        assert "consistency     = ok" in out

    def test_robustness_banner_always_reports_reselections(self, capsys):
        # the robustness banner surfaces the abandoned-dgram and quorum
        # re-selection counters for every quorum run — zeroes included
        # (a zero confirms no phase was ever starved)
        code, out, _ = run(capsys, *self.ARGV, "--join-at", "6:900")
        assert code == 0
        assert "dgrams abandoned = 0 (quorum re-selection owns liveness)" \
            in out
        assert "quorum re-selections = 0" in out
        code, out, _ = run(capsys, *self.ARGV, "--cut", "1:3:500:900")
        assert code == 0
        assert "dgrams abandoned" in out
        assert "quorum re-selections" in out

    def test_weighted_run_uses_weighted_closed_form(self, capsys):
        code, out, _ = run(capsys, *self.ARGV, "--quorum-weight", "5:3")
        assert code == 0
        assert "weights:     5=3" in out
        assert "weighted quorums" in out
        sim = float(out.split("simulated acc   =")[1].split()[0])
        analytic = float(out.split("analytic acc    =")[1].split()[0])
        assert abs(sim - analytic) / analytic < 0.05

    def test_bad_join_spec_errors(self, capsys):
        code, _out, err = run(capsys, *self.ARGV, "--join-at", "nonsense")
        assert code == 2
        assert "--join-at" in err

    def test_invalid_membership_walk_errors(self, capsys):
        code, _out, err = run(capsys, *self.ARGV, "--join-at", "3:100")
        assert code == 2
        assert "already replica-set members" in err

    def test_star_protocol_rejects_reconfig(self, capsys):
        code, _out, err = run(capsys, "simulate", "write_through",
                              "--N", "4", "--p", "0.3", "--a", "2",
                              "--sigma", "0.1", "--join-at", "6:100")
        assert code == 2
        assert "fixed star membership" in err


class TestChaosCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        code, out, _ = run(capsys, "chaos", "--seeds", "2",
                           "--protocols", "write_through,illinois",
                           "--quiet")
        assert code == 0
        assert "4 cells" in out
        assert "no violations" in out

    def test_findings_written_and_replayable(self, capsys, tmp_path,
                                             monkeypatch):
        from repro.sim.recovery import RecoveryManager

        def sabotage(self, node):
            self._quarantined.discard(node.node_id)
            self.cluster.quarantined.discard(node.node_id)
            for port in node.ports.values():
                port.process.state = "VALID"
                port.process.value = -1
                port.local_enabled = True
            self._pump_all()

        monkeypatch.setattr(RecoveryManager, "_finish_rejoin", sabotage)
        repro_dir = tmp_path / "repros"
        code, out, _ = run(capsys, "chaos", "--seeds", "8",
                           "--protocols", "write_through",
                           "--repro-dir", str(repro_dir), "--quiet")
        assert code == 1
        assert "finding" in out
        paths = sorted(repro_dir.glob("chaos-*.json"))
        assert paths
        # still sabotaged: the repro reproduces and --replay says so
        code, out, _ = run(capsys, "chaos", "--replay", str(paths[0]))
        assert code == 1
        assert "reproduced" in out

    def test_replay_clean_repro_reports_no_repro(self, capsys, tmp_path,
                                                 monkeypatch):
        from repro.sim.recovery import RecoveryManager

        original = RecoveryManager._finish_rejoin

        def sabotage(self, node):
            self._quarantined.discard(node.node_id)
            self.cluster.quarantined.discard(node.node_id)
            for port in node.ports.values():
                port.process.state = "VALID"
                port.process.value = -1
                port.local_enabled = True
            self._pump_all()

        monkeypatch.setattr(RecoveryManager, "_finish_rejoin", sabotage)
        repro_dir = tmp_path / "repros"
        run(capsys, "chaos", "--seeds", "8",
            "--protocols", "write_through",
            "--repro-dir", str(repro_dir), "--quiet")
        path = sorted(repro_dir.glob("chaos-*.json"))[0]
        # bug fixed: the archived schedule no longer violates
        monkeypatch.setattr(RecoveryManager, "_finish_rejoin", original)
        code, out, _ = run(capsys, "chaos", "--replay", str(path))
        assert code == 0
        assert "did NOT reproduce" in out


class TestValidate:
    def test_validate_cell(self, capsys):
        code, out, _ = run(capsys, "validate", "write_through_v", "--N", "3",
                           "--p", "0.4", "--a", "2", "--sigma", "0.1",
                           "--ops", "1500", "--M", "5")
        assert code == 0
        assert "discrepancy" in out
        pct = float(out.split("discrepancy =")[1].split("%")[0])
        assert abs(pct) < 20.0


class TestPlace:
    def test_place_reports_saving(self, capsys):
        code, out, _ = run(capsys, "place", "write_through", "--N", "5",
                           "--p", "0.3", "--a", "2", "--sigma", "0.1")
        assert code == 0
        assert "saving" in out
        saving = float(out.split("saving")[1].split("=")[1].split()[0])
        assert saving > 0

    def test_place_berkeley_indifferent(self, capsys):
        code, out, _ = run(capsys, "place", "berkeley", "--N", "5",
                           "--p", "0.3", "--a", "2", "--sigma", "0.1")
        assert code == 0
        assert "placement-indifferent" in out


class TestSweep:
    def sweep(self, capsys, tmp_path, *extra):
        return run(
            capsys, "sweep", "--protocols", "write_once,write_through_v",
            "--N", "3", "--a", "2", "--p-values", "0.2,0.4",
            "--disturb-values", "0.0,0.1", "--ops", "300",
            "--out", str(tmp_path / "rows.jsonl"),
            "--cache-dir", str(tmp_path / "cache"), *extra,
        )

    def test_sweep_writes_jsonl(self, capsys, tmp_path):
        code, out, err = self.sweep(capsys, tmp_path)
        assert code == 0
        assert "cells     = 8 (8 computed, 0 cached" in out
        assert "max |disc|" in out
        rows = [json.loads(line) for line in
                (tmp_path / "rows.jsonl").read_text().splitlines()]
        assert len(rows) == 8
        assert all(r["status"] == "ok" for r in rows)
        # progress went to stderr, one line per cell
        assert err.count("[") == 8

    def test_second_invocation_cache_served(self, capsys, tmp_path):
        self.sweep(capsys, tmp_path)
        code, out, _ = self.sweep(capsys, tmp_path)
        assert code == 0
        assert "(0 computed, 8 cached" in out
        assert "(100%)" in out

    def test_no_cache_flag(self, capsys, tmp_path):
        self.sweep(capsys, tmp_path)
        code, out, _ = self.sweep(capsys, tmp_path, "--no-cache")
        assert code == 0
        assert "(8 computed, 0 cached" in out

    def test_quiet_suppresses_progress(self, capsys, tmp_path):
        _, _, err = self.sweep(capsys, tmp_path, "--quiet")
        assert err == ""

    def test_workers_match_serial(self, capsys, tmp_path):
        self.sweep(capsys, tmp_path, "--no-cache")
        serial = (tmp_path / "rows.jsonl").read_text()
        self.sweep(capsys, tmp_path, "--no-cache", "--workers", "2")
        parallel = (tmp_path / "rows.jsonl").read_text()
        assert sorted(serial.splitlines()) == sorted(parallel.splitlines())

    def test_analytic_kind(self, capsys, tmp_path):
        code, _, _ = self.sweep(capsys, tmp_path, "--kind", "analytic")
        assert code == 0
        rows = [json.loads(line) for line in
                (tmp_path / "rows.jsonl").read_text().splitlines()]
        assert all("acc_analytic" in r and "acc_sim" not in r for r in rows)

    def test_unknown_protocol_errors(self, capsys, tmp_path):
        code, _, err = run(capsys, "sweep", "--protocols", "mesi",
                           "--N", "3", "--p-values", "0.2")
        assert code == 2
        assert "unknown protocol" in err

    def test_empty_grid_errors(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--protocols", "write_once", "--N", "3",
            "--a", "2", "--p-values", "0.9", "--disturb-values", "0.4",
        )
        assert code == 2
        assert "no feasible cells" in err


class TestFlagParity:
    """simulate/validate/sweep accept the identical shared flag groups."""

    RUN_FLAGS = ["--ops", "600", "--warmup", "150", "--seed", "3",
                 "--mean-gap", "20.0"]
    FAULT_FLAGS = ["--drop-rate", "0.05", "--dup-rate", "0.01",
                   "--jitter", "0.5", "--fault-seed", "9"]
    REL_FLAGS = ["--retry-timeout", "6.0", "--retry-backoff", "1.5",
                 "--max-retries", "8"]
    PART_FLAGS = ["--cut", "1:4:100:200", "--cut-one-way", "2:4:50",
                  "--heartbeat-interval", "30.0", "--suspect-after", "2",
                  "--partition-policy", "serve_local_reads",
                  "--partition-seed", "5"]

    def parse(self, *argv):
        return build_parser().parse_args(list(argv))

    def test_shared_flags_parse_everywhere(self):
        shared = (self.RUN_FLAGS + self.FAULT_FLAGS + self.REL_FLAGS
                  + self.PART_FLAGS)
        for argv in (
            ["simulate", "write_once", "--N", "3", "--p", "0.2", *shared],
            ["validate", "write_once", "--N", "3", "--p", "0.2", *shared],
            ["sweep", "--N", "3", "--p-values", "0.2", *shared],
        ):
            args = self.parse(*argv)
            assert args.ops == 600
            assert args.warmup == 150
            assert args.seed == 3
            assert args.mean_gap == 20.0
            assert args.drop_rate == 0.05
            assert args.dup_rate == 0.01
            assert args.jitter == 0.5
            assert args.fault_seed == 9
            assert args.retry_timeout == 6.0
            assert args.retry_backoff == 1.5
            assert args.max_retries == 8
            assert args.cut == ["1:4:100:200"]
            assert args.cut_one_way == ["2:4:50"]
            assert args.heartbeat_interval == 30.0
            assert args.suspect_after == 2
            assert args.partition_policy == "serve_local_reads"
            assert args.partition_seed == 5

    def test_run_defaults_identical(self):
        parsed = [
            self.parse("simulate", "write_once", "--N", "3", "--p", "0.2"),
            self.parse("validate", "write_once", "--N", "3", "--p", "0.2"),
            self.parse("sweep", "--N", "3", "--p-values", "0.2"),
        ]
        for args in parsed:
            assert (args.ops, args.warmup, args.seed, args.mean_gap) == \
                (4000, None, 0, 25.0)

    def test_cli_defaults_equal_field_defaults(self):
        minimal = ("--N", "3", "--p", "0.2")
        args = self.parse("simulate", "write_once", *minimal)
        assert runconfig_from_args(args) == RunConfig()
        cut_config = runconfig_from_args(
            self.parse("simulate", "write_once", *minimal, "--cut", "1:2:0"))
        assert cut_config.partitions == PartitionPlan(links=cut(1, 2, 0.0))
        assert cut_config.reliability == ReliabilityConfig()
        config = runconfig_from_args(self.parse(
            "simulate", "sc_abd", *minimal, "--cache-capacity", "2",
            "--hedge-budget", "5"))
        assert config.cache == CacheConfig(capacity=2)
        assert config.hedge == HedgeConfig(budget=5)
        assert _chaos_options(self.parse("chaos")) == ChaosOptions()
        assert workload_from_args(self.parse("acc", "berkeley", *minimal)) \
            == WorkloadParams(N=3, p=0.2)

    #: the flags that switch each config class on, so its fields are built
    ENABLERS = {
        WorkloadParams: ["--hot-set", "2", "--hot-fraction", "0.8"],
        FaultPlan: ["--crash-at", "2:10:20"],
        CrashWindow: ["--crash-at", "2:10:20"],
        PartitionPlan: ["--cut", "1:2:0"],
        ReliabilityConfig: ["--drop-rate", "0.1"],
        HedgeConfig: ["--hedge-budget", "5"],
        ReconfigPlan: ["--leave-at", "4:100"],
        CacheConfig: ["--cache-capacity", "2"],
        TraceConfig: ["--trace-out", "unused.json"],
    }
    #: values for flags whose field has no default, a ``None`` default or
    #: a non-numeric one (any other flag steps its default by one)
    VALUES = {"--N": "5", "--p": "0.3", "--warmup": "100", "--hot-set": "3",
              "--hot-fraction": "0.5", "--hedge-budget": "6.5",
              "--cache-capacity": "3", "--protocols": "berkeley,sc_abd"}

    @pytest.mark.parametrize("group, flag, owner, field, extras", [
        pytest.param(group, flag, owner, field, extras,
                     id=f"{owner.__name__}.{field}")
        for group, rows in _FLAGS.items()
        for flag, owner, field, _, extras in rows
        # chaos --trace-sample feeds replay_repro, not a built config
        if owner is not None and not (group == "chaos"
                                      and owner is TraceConfig)])
    def test_field_flag_lands_in_its_field(self, group, flag, owner, field,
                                           extras):
        """Every table flag that fills a field, given a non-default value,
        carries it into that field of the config the command builds."""
        default = owner.__dataclass_fields__[field].default
        if isinstance(default, bool):
            value = []
        elif flag in self.VALUES:
            value = [self.VALUES[flag]]
        elif "choices" in extras:
            value = [next(c for c in extras["choices"] if c != default)]
        else:
            value = [str(default + 1)]
        argv = (["chaos"] if group == "chaos" else
                ["simulate", "sc_abd", "--N", "4", "--p", "0.2",
                 *self.ENABLERS.get(owner, [])])
        args = self.parse(*argv, flag, *value)
        if owner is ChaosOptions:
            built = _chaos_options(args)
        elif owner is WorkloadParams:
            built = workload_from_args(args)
        else:
            config = runconfig_from_args(args)
            if owner is CrashWindow:
                built = config.faults.crashes[0]
            else:
                built = config if owner is RunConfig else next(
                    plan for plan in vars(config).values()
                    if isinstance(plan, owner))
        parsed = getattr(args, flag.lstrip("-").replace("-", "_"))
        expected = tuple(parsed) if isinstance(parsed, list) else parsed
        assert getattr(built, field) == expected != default

    def test_faulty_validate_accepts_fault_flags(self, capsys):
        code, out, _ = run(capsys, "validate", "write_through", "--N", "3",
                           "--p", "0.3", "--a", "2", "--sigma", "0.1",
                           "--ops", "800", "--M", "5",
                           "--drop-rate", "0.05", "--fault-seed", "7")
        assert code == 0
        assert "discrepancy" in out


class TestVersion:
    def test_version_flag_prints_package_version(self, capsys):
        import pytest
        import repro
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        out = capsys.readouterr().out.strip()
        assert out.startswith("repro ")
        version = out.split()[1]
        assert version == repro.__version__ or version[0].isdigit()

    def test_version_helper_falls_back_to_dunder(self, monkeypatch):
        import repro
        from repro import cli

        def boom(name):
            raise Exception("no metadata")
        monkeypatch.setattr("importlib.metadata.version", boom)
        assert cli._version() == repro.__version__


def test_module_docstring_lists_every_command():
    """The module docstring's command list and count match argparse."""
    import argparse
    import re
    from repro import cli
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    listed = re.findall(r"^\* ``(\w+)``", cli.__doc__, re.MULTILINE)
    assert sorted(listed) == sorted(sub.choices)
    assert len(listed) == 10 and "Ten commands" in cli.__doc__


class TestTraceCommand:
    BASE = ["--N", "4", "--p", "0.2", "--a", "2", "--sigma", "0.1",
            "--ops", "300", "--warmup", "50", "--seed", "3"]

    def test_trace_exports_valid_chrome_trace(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out, _ = run(capsys, "trace", "berkeley", *self.BASE,
                           "--out", str(out_path))
        assert code == 0
        assert "simulated acc" in out
        assert "chrome trace" in out
        from repro.obs.export import validate_chrome_trace
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []

    def test_trace_jsonl_and_sampling(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        jsonl_path = tmp_path / "trace.jsonl"
        code, out, _ = run(capsys, "trace", "berkeley", *self.BASE,
                           "--out", str(out_path),
                           "--jsonl", str(jsonl_path), "--sample", "5")
        assert code == 0
        assert "sample_every=5" in out
        lines = jsonl_path.read_text(encoding="utf-8").splitlines()
        header = json.loads(lines[0])
        assert header["sample_every"] == 5
        assert header["spans"] == 60  # 300 ops / 5

    def test_trace_is_byte_identical_across_runs(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(capsys, "trace", "berkeley", *self.BASE,
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_trace_takes_bounded_cache_flags(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out, _ = run(capsys, "trace", "berkeley", *self.BASE,
                           "--M", "2", "--cache-capacity", "1",
                           "--out", str(out_path))
        assert code == 0
        assert "chrome trace" in out
        from repro.obs.export import validate_chrome_trace
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []

    def test_trace_takes_reconfiguration_flags(self, capsys, tmp_path):
        out_path = tmp_path / "trace.json"
        code, out, _ = run(capsys, "trace", "sc_abd", *self.BASE,
                           "--quorum-weight", "1:2", "--out", str(out_path))
        assert code == 0
        assert "chrome trace" in out
        assert out_path.exists()


class TestProfileCommand:
    FLAGS = ["berkeley", "--N", "4", "--p", "0.2", "--a", "2",
             "--sigma", "0.1", "--ops", "300", "--warmup", "50"]

    @staticmethod
    def tables(out):
        """The rows of the module table and of the function table."""
        blocks = [block.splitlines() for block in out.split("\n\n")]
        by_header = {block[0].split()[0]: block[1:] for block in blocks
                     if block and block[0].split()[0] in ("module",
                                                          "function")}
        return by_header["module"], by_header["function"]

    def test_profile_prints_hot_paths(self, capsys):
        code, out, _ = run(capsys, "profile", *self.FLAGS)
        assert code == 0
        modules, functions = self.tables(out)
        names = {row.split()[0] for row in modules}
        assert {"sim.engine", "protocols.berkeley"} <= names
        assert "events executed" in out
        assert any(row.startswith("sim.") for row in functions)

    def test_profile_top_limits_rows(self, capsys):
        code, out, _ = run(capsys, "profile", *self.FLAGS, "--top", "1")
        assert code == 0
        modules, functions = self.tables(out)
        assert len(modules) == 1
        assert len(functions) == 1

    def test_profile_takes_bounded_cache_flags(self, capsys):
        code, out, _ = run(capsys, "profile", *self.FLAGS, "--M", "2",
                           "--cache-capacity", "1")
        assert code == 0
        assert "sim.engine" in out
        assert "events executed" in out

    @pytest.mark.parametrize("fabric", [[], ["--drop-rate", "0.05"]],
                             ids=["plain", "reliable"])
    def test_profile_prints_the_simulate_acc(self, capsys, fabric):
        """Profiling only observes: the measured acc is the one
        ``simulate`` prints for the same flags (``--drop-rate`` puts the
        run on the reliable transport)."""
        def acc_line(command):
            code, out, _ = run(capsys, command, *self.FLAGS, *fabric)
            assert code == 0
            return next(line for line in out.splitlines()
                        if line.startswith("simulated acc"))

        assert acc_line("profile") == acc_line("simulate")


class TestMonitorVerdict:
    """``simulate``, ``trace`` and ``profile`` share one tail: under
    ``--monitor`` each prints the verdict and exits 1 on a violation."""

    COMMANDS = ["simulate", "trace", "profile"]

    @staticmethod
    def argv(command, tmp_path):
        out = (["--out", str(tmp_path / "trace.json")]
               if command == "trace" else [])
        return [command, "berkeley", "--N", "3", "--p", "0.2",
                "--sigma", "0.1", "--ops", "300", "--monitor", *out]

    @pytest.mark.parametrize("command", COMMANDS)
    def test_clean_run_prints_ok(self, command, capsys, tmp_path):
        code, out, _ = run(capsys, *self.argv(command, tmp_path))
        assert code == 0
        assert "consistency     = ok" in out

    @pytest.mark.parametrize("command", COMMANDS)
    def test_violation_exits_one(self, command, capsys, tmp_path,
                                 monkeypatch):
        planted = ConsistencyViolation("divergence", 1, "planted")
        monkeypatch.setattr(DSMSystem, "consistency_report",
                            lambda system: [planted])
        code, out, _ = run(capsys, *self.argv(command, tmp_path))
        assert code == 1
        assert "consistency VIOLATIONS = 1" in out
        assert "[divergence] obj 1: planted" in out


class TestSimulateTraceFlags:
    def test_simulate_trace_out(self, capsys, tmp_path):
        out_path = tmp_path / "sim-trace.json"
        code, out, _ = run(capsys, "simulate", "berkeley", "--N", "4",
                           "--p", "0.2", "--a", "2", "--sigma", "0.1",
                           "--ops", "300", "--warmup", "50",
                           "--trace-out", str(out_path))
        assert code == 0
        assert out_path.exists()
        assert "chrome trace" in out
        from repro.obs.export import validate_chrome_trace
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []

    def test_simulate_without_trace_flags_prints_no_trace(self, capsys):
        code, out, _ = run(capsys, "simulate", "berkeley", "--N", "4",
                           "--p", "0.2", "--a", "2", "--sigma", "0.1",
                           "--ops", "300", "--warmup", "50")
        assert code == 0
        assert "trace " not in out


class TestChaosReplayTraceFlag:
    def _write_repro(self, tmp_path):
        from repro.core import WorkloadParams
        from repro.exp.spec import SweepCell
        from repro.sim import CrashWindow, FaultPlan, RunConfig
        cell = SweepCell(
            protocol="berkeley",
            params=WorkloadParams(N=4, p=0.2, a=2, sigma=0.1, S=50,
                                  P=20),
            kind="sim", M=2,
            config=RunConfig(
                ops=200, warmup=20, seed=5, monitor=True,
                faults=FaultPlan(seed=3, drop_rate=0.05,
                                 crashes=[CrashWindow(2, 300.0,
                                                      600.0)]),
            ),
        )
        path = tmp_path / "repro.json"
        path.write_text(json.dumps({"cell": cell.to_payload()}),
                        encoding="utf-8")
        return path

    def test_replay_with_trace_out(self, capsys, tmp_path):
        repro_path = self._write_repro(tmp_path)
        trace_path = tmp_path / "replay-trace.json"
        code, out, _ = run(capsys, "chaos", "--replay", str(repro_path),
                           "--trace-out", str(trace_path),
                           "--trace-sample", "2")
        assert "chrome trace" in out
        assert trace_path.exists()
        from repro.obs.export import validate_chrome_trace
        payload = json.loads(trace_path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == []
        assert payload["otherData"]["sample_every"] == 2
