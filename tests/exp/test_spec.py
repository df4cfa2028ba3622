"""SweepSpec expansion, derived seeds, and cell serialization."""

import pytest

from repro.core.parameters import Deviation, WorkloadParams
from repro.exp import SweepCell, SweepSpec, derive_cell_seed
from repro.sim import FaultPlan, ReliabilityConfig, RunConfig

BASE = WorkloadParams(N=3, p=0.0, a=2, S=100.0, P=30.0)


class TestCartesian:
    def test_feasibility_filtering(self):
        # p + 2 * disturb > 1 cells are skipped (3 of the 9 grid points);
        # the boundary p + 2 * disturb == 1 stays in
        spec = SweepSpec.cartesian(
            ["write_once"], BASE, [0.0, 0.5, 1.0], [0.0, 0.25, 0.5]
        )
        coords = {(c.params.p, c.disturb) for c in spec}
        assert len(spec) == 6
        assert (0.5, 0.25) in coords
        assert (1.0, 0.25) not in coords
        assert (0.5, 0.5) not in coords
        assert (1.0, 0.5) not in coords

    def test_protocol_fanout(self):
        spec = SweepSpec.cartesian(
            ["write_once", "berkeley"], BASE, [0.2, 0.4]
        )
        assert len(spec) == 4
        assert {c.protocol for c in spec} == {"write_once", "berkeley"}

    def test_derived_seeds_are_order_independent(self):
        forward = SweepSpec.cartesian(["write_once", "berkeley"], BASE,
                                      [0.2, 0.4], seed=7)
        backward = SweepSpec.cartesian(["berkeley", "write_once"], BASE,
                                       [0.4, 0.2], seed=7)
        seeds = {c.cell_id(): c.config.seed for c in forward}
        assert seeds == {c.cell_id(): c.config.seed for c in backward}

    def test_different_base_seed_changes_cell_seeds(self):
        a = SweepSpec.cartesian(["write_once"], BASE, [0.2], seed=0)
        b = SweepSpec.cartesian(["write_once"], BASE, [0.2], seed=1)
        assert a.cells[0].config.seed != b.cells[0].config.seed

    def test_unseeded_spec(self):
        spec = SweepSpec.cartesian(["write_once"], BASE, [0.2], seed=None)
        assert spec.cells[0].config.seed is None

    def test_derive_cell_seed_stable(self):
        # the derivation is a stable hash, not Python's randomized hash()
        assert derive_cell_seed(0, "write_once", "read", 0.2, 0.0) == \
            derive_cell_seed(0, "write_once", "read", 0.2, 0.0)
        assert derive_cell_seed(0, "a") != derive_cell_seed(0, "b")


class TestSweepCell:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            SweepCell(protocol="write_once", params=BASE, kind="plot")

    def test_payload_round_trip_preserves_identity(self):
        cell = SweepCell(
            protocol="berkeley",
            params=BASE.with_(p=0.3, sigma=0.1),
            kind="compare",
            M=5,
            config=RunConfig(
                ops=800, warmup=200, seed=9,
                faults=FaultPlan(seed=2, drop_rate=0.1),
                reliability=ReliabilityConfig(timeout=4.0),
            ),
        )
        again = SweepCell.from_payload(cell.to_payload())
        assert again.cell_id() == cell.cell_id()
        assert again.key_dict() == cell.key_dict()

    def test_payload_missing_keys_take_field_defaults(self):
        config = RunConfig(ops=500, warmup=100)
        payload = {"protocol": "write_once", "params": BASE.to_dict(),
                   "config": config.to_dict()}
        assert (SweepCell.from_payload(payload)
                == SweepCell(protocol="write_once", params=BASE,
                             config=config))
        with pytest.raises(ValueError, match="did you mean 'kind'"):
            SweepCell.from_payload({**payload, "kinds": "sim"})

    def test_non_canonical_params_hash_identically(self):
        # S=100 (int) and S=100.0 (float) describe the same cell
        a = SweepCell(protocol="write_once",
                      params=WorkloadParams(N=3, p=0.2, a=2, S=100, P=30))
        b = SweepCell(protocol="write_once",
                      params=WorkloadParams(N=3, p=0.2, a=2, S=100.0,
                                            P=30.0))
        assert a.cell_id() == b.cell_id()

    def test_analytic_key_ignores_run_config(self):
        a = SweepCell(protocol="write_once", params=BASE, kind="analytic",
                      config=RunConfig(ops=100, seed=1))
        b = SweepCell(protocol="write_once", params=BASE, kind="analytic",
                      config=RunConfig(ops=9999, seed=2), M=7)
        assert a.cell_id() == b.cell_id()

    def test_sim_key_ignores_method(self):
        a = SweepCell(protocol="write_once", params=BASE, kind="sim",
                      method="markov")
        b = SweepCell(protocol="write_once", params=BASE, kind="sim",
                      method="closed_form")
        assert a.cell_id() == b.cell_id()

    def test_sim_key_tracks_config(self):
        a = SweepCell(protocol="write_once", params=BASE, kind="sim",
                      config=RunConfig(ops=400, seed=1))
        b = SweepCell(protocol="write_once", params=BASE, kind="sim",
                      config=RunConfig(ops=400, seed=2))
        assert a.cell_id() != b.cell_id()

    def test_disturb_follows_deviation(self):
        params = BASE.with_(p=0.1, sigma=0.2, xi=0.0)
        assert SweepCell(protocol="write_once", params=params).disturb == 0.2
        wparams = BASE.with_(p=0.1, sigma=0.0, xi=0.15)
        cell = SweepCell(protocol="write_once", params=wparams,
                         deviation=Deviation.WRITE)
        assert cell.disturb == 0.15
