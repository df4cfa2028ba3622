"""Scenario schema: strict validation, round-trips, expansion semantics."""

import json

import pytest

from repro.core.parameters import Deviation
from repro.exp import SweepSpec, derive_cell_seed
from repro.scenarios import Scenario, ScenarioError, SweepAxes, deep_merge

MINIMAL = {
    "name": "t",
    "protocols": ["write_once"],
    "workload": {"N": 3, "a": 2},
}


def doc(**overrides) -> dict:
    merged = json.loads(json.dumps(MINIMAL))
    merged.update(overrides)
    return merged


CARTESIAN = {
    "mode": "cartesian",
    "p_values": [0.0, 0.2, 0.4],
    "disturb_values": [0.0, 0.1],
}


class TestValidation:
    def test_minimal_document(self):
        s = Scenario.from_dict(MINIMAL)
        assert s.name == "t"
        assert s.protocols == ("write_once",)
        assert s.deviation is Deviation.READ
        assert s.kind == "compare"
        assert (s.M, s.method, s.title) == (20, "auto", "")
        assert len(s.to_spec()) == 1  # default: one cell at the base point
        bare = {"mode": "cartesian", "p_values": [0.1]}
        assert (Scenario.from_dict(doc(sweep=bare)).sweep
                == SweepAxes(mode="cartesian", p_values=(0.1,)))

    def test_unknown_top_key_rejected_with_suggestion(self):
        with pytest.raises(ScenarioError, match="protocol"):
            Scenario.from_dict(doc(protocl=["write_once"]))

    def test_unknown_workload_key_rejected(self):
        with pytest.raises(ScenarioError, match="sigma"):
            Scenario.from_dict(doc(workload={"N": 3, "sgma": 0.1}))

    def test_unknown_run_key_rejected(self):
        with pytest.raises(ScenarioError, match="warmup"):
            Scenario.from_dict(doc(run={"ops": 100, "warmpu": 10}))

    def test_unknown_sweep_key_rejected(self):
        with pytest.raises(ScenarioError, match="p_values"):
            Scenario.from_dict(doc(sweep=dict(CARTESIAN, p_valus=[0.1])))

    def test_unknown_cell_key_rejected(self):
        with pytest.raises(ScenarioError, match="sigma"):
            Scenario.from_dict(doc(
                sweep={"mode": "explicit", "cells": [{"sgima": 0.1}]}
            ))

    def test_unknown_protocol_rejected(self):
        with pytest.raises(KeyError, match="write_once"):
            Scenario.from_dict(doc(protocols=["write_onec"]))

    def test_protocols_all_expands_to_the_papers_eight(self):
        s = Scenario.from_dict(doc(protocols="all"))
        assert len(s.protocols) == 8

    def test_duplicate_protocols_rejected(self):
        with pytest.raises(ScenarioError, match="twice"):
            Scenario.from_dict(doc(protocols=["write_once", "Write-Once"]))

    def test_unresolved_extends_rejected(self):
        with pytest.raises(ScenarioError, match="extends"):
            Scenario.from_dict(doc(extends="parent"))

    def test_bad_deviation_rejected(self):
        with pytest.raises(ScenarioError, match="deviation"):
            Scenario.from_dict(doc(deviation="raed"))

    def test_deviation_aliases_and_enum_values(self):
        assert Scenario.from_dict(
            doc(deviation="mac")
        ).deviation is Deviation.MULTIPLE_ACTIVITY_CENTERS
        assert Scenario.from_dict(
            doc(deviation="write_disturbance")
        ).deviation is Deviation.WRITE

    def test_name_defaults_to_file_stem(self):
        data = {k: v for k, v in MINIMAL.items() if k != "name"}
        assert Scenario.from_dict(data, default_name="stem").name == "stem"
        with pytest.raises(ScenarioError, match="name"):
            Scenario.from_dict(data)


class TestRoundTrip:
    @pytest.mark.parametrize("extra", [
        {},
        {"sweep": dict(CARTESIAN,
                       seeds={"rule": "indexed", "base": 7, "stride": 100})},
        {"sweep": {"mode": "explicit", "cells": [
            {"p": 0.2, "sigma": 0.1, "seed": 5, "M": 3, "label": "x",
             "run": {"ops": 200, "warmup": 50}},
            {},
        ]}},
        {"deviation": "write", "kind": "analytic", "method": "markov",
         "title": "T", "description": "D", "tags": ["a", "b"],
         "run": {"ops": 800, "monitor": True}},
    ])
    def test_parse_expand_serialize_reparse_identical(self, extra):
        s1 = Scenario.from_dict(doc(**extra))
        # through JSON, like a catalog file would
        s2 = Scenario.from_dict(json.loads(json.dumps(s1.to_dict())))
        assert s1 == s2
        assert s1.to_dict() == s2.to_dict()
        assert ([c.to_payload() for c in s1.to_spec()]
                == [c.to_payload() for c in s2.to_spec()])


class TestExpansion:
    def test_cartesian_derived_matches_sweepspec_cartesian(self):
        s = Scenario.from_dict(doc(sweep=CARTESIAN))
        expected = SweepSpec.cartesian(
            protocols=("write_once",), base=s.workload,
            p_values=(0.0, 0.2, 0.4), disturb_values=(0.0, 0.1),
            config=s.run, seed=0,
        )
        assert ([c.to_payload() for c in s.to_spec()]
                == [c.to_payload() for c in expected])
        first = list(s.to_spec())[0]
        assert first.config.seed == derive_cell_seed(
            0, "write_once", Deviation.READ.value, 0.0, 0.0
        )

    def test_indexed_rule_uses_pre_filter_grid_indices(self):
        s = Scenario.from_dict(doc(sweep=dict(
            CARTESIAN,
            p_values=[0.0, 0.6], disturb_values=[0.0, 0.1, 0.3],
            seeds={"rule": "indexed", "base": 0, "stride": 1000},
        )))
        cells = list(s.to_spec())
        # (p=0.6, d=0.3) is infeasible (0.6 + 2*0.3 > 1) and skipped,
        # but the surviving cells keep their i,j-indexed seeds.
        assert [(c.params.p, c.disturb, c.config.seed) for c in cells] == [
            (0.0, 0.0, 0), (0.0, 0.1, 1), (0.0, 0.3, 2),
            (0.6, 0.0, 1000), (0.6, 0.1, 1001),
        ]

    def test_fixed_rule_keeps_the_scenario_seed(self):
        s = Scenario.from_dict(doc(
            run={"seed": 42},
            sweep=dict(CARTESIAN, seeds={"rule": "fixed"}),
        ))
        assert {c.config.seed for c in s.to_spec()} == {42}

    def test_mac_ignores_the_disturb_axis(self):
        s = Scenario.from_dict(doc(
            deviation="mac", workload={"N": 3, "a": 2, "beta": 2},
            sweep=dict(CARTESIAN,
                       seeds={"rule": "indexed"}),
        ))
        cells = list(s.to_spec())
        assert len(cells) == 3  # one pass over p_values
        assert all(c.params.sigma == 0.0 and c.params.xi == 0.0
                   for c in cells)

    def test_explicit_cell_overrides(self):
        s = Scenario.from_dict(doc(
            M=5,
            run={"ops": 1000, "seed": 9},
            sweep={"mode": "explicit", "cells": [
                {},
                {"p": 0.4, "sigma": 0.2, "seed": 77, "M": 2,
                 "run": {"ops": 300, "monitor": True}},
            ]},
        ))
        base, cell = list(s.to_spec())
        assert (base.params.p, base.config.seed, base.M) == (0.0, 9, 5)
        assert cell.params.p == 0.4 and cell.params.sigma == 0.2
        assert cell.config.ops == 300 and cell.config.monitor is True
        assert cell.config.seed == 77 and cell.M == 2
        # the override merged, not replaced: base seed survives until the
        # cell's own seed is applied on top
        assert cell.config.mean_gap == base.config.mean_gap

    def test_explicit_cells_are_protocol_major(self):
        s = Scenario.from_dict(doc(
            protocols=["write_once", "berkeley"],
            sweep={"mode": "explicit",
                   "cells": [{"p": 0.1}, {"p": 0.2}]},
        ))
        assert [(c.protocol, c.params.p) for c in s.to_spec()] == [
            ("write_once", 0.1), ("write_once", 0.2),
            ("berkeley", 0.1), ("berkeley", 0.2),
        ]

    def test_bad_cell_run_override_is_a_scenario_error(self):
        s = Scenario.from_dict(doc(sweep={
            "mode": "explicit",
            "cells": [{"run": {"ops": -1}}],
        }))
        with pytest.raises(ScenarioError, match="cell #0"):
            s.to_spec()


class TestDeepMerge:
    def test_nested_dicts_merge_scalars_replace(self):
        base = {"a": {"x": 1, "y": 2}, "b": [1, 2], "c": 3}
        out = deep_merge(base, {"a": {"y": 9}, "b": [7], "d": 4})
        assert out == {"a": {"x": 1, "y": 9}, "b": [7], "c": 3, "d": 4}
        assert base == {"a": {"x": 1, "y": 2}, "b": [1, 2], "c": 3}

    def test_null_replaces(self):
        assert deep_merge({"a": {"x": 1}}, {"a": None}) == {"a": None}
