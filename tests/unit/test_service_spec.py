"""Sweep spec DSL: validation, fingerprinting, grid expansion."""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.runner import OVERLAY_KEYS
from repro.experiments.spec import SweepSpec, load_spec, spec_from_dict

BASE = {"name": "base", "experiments": ["fig7"]}


def make(**overrides):
    payload = dict(BASE)
    payload.update(overrides)
    return spec_from_dict(payload)


class TestValidation:
    def test_minimal_spec(self):
        spec = make()
        assert spec.name == "base"
        assert spec.experiments == ("fig7",)
        assert spec.scale_name == "quick"
        assert spec.seeds == (2010,)

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown key"):
            make(experiment="fig7")  # typo'd singular

    def test_missing_name_rejected(self):
        with pytest.raises(ConfigurationError, match="'name'"):
            spec_from_dict({"experiments": ["fig7"]})

    def test_non_slug_name_rejected(self):
        with pytest.raises(ConfigurationError, match="slug"):
            make(name="has spaces")

    def test_unregistered_experiment_rejected(self):
        with pytest.raises(Exception, match="unknown experiment"):
            make(experiments=["nope99"])

    def test_duplicate_experiments_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicate"):
            make(experiments=["fig7", "fig7"])

    def test_bad_scale_rejected(self):
        with pytest.raises(ConfigurationError, match="'scale'"):
            make(scale="enormous")

    def test_bad_runs_rejected(self):
        with pytest.raises(ConfigurationError, match="'runs'"):
            make(runs=0)

    def test_bool_runs_rejected(self):
        with pytest.raises(ConfigurationError, match="'runs'"):
            make(runs=True)

    def test_duplicate_seeds_rejected(self):
        with pytest.raises(ConfigurationError, match="duplicates"):
            make(seeds=[1, 1])

    def test_unknown_overlay_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown overlay"):
            make(overlays={"wormholes": True})

    @pytest.mark.parametrize("key", ["faults", "loss", "traffic", "adversary"])
    def test_malformed_fault_overlay_rejected_at_submit(self, key):
        with pytest.raises(
            ConfigurationError,
            match=f"overlay '{key}' spec 'not-a-spec!!!' does not parse: ",
        ):
            make(overlays={key: "not-a-spec!!!"})

    def test_boolean_overlay_cannot_be_grid(self):
        with pytest.raises(ConfigurationError, match="grid axis"):
            make(overlays={"quarantine": [True, False]})

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ConfigurationError, match="empty"):
            make(overlays={"route_ttl": []})

    def test_bad_limits_rejected(self):
        # how a sweep runs belongs to the `repro run` flags, not the spec.
        with pytest.raises(ConfigurationError, match="'limits'.*--workers"):
            make(limits={"workers": 2})

    def test_unknown_outputs_key_rejected(self):
        with pytest.raises(ConfigurationError, match="'outputs'.*--metrics-out"):
            make(outputs={"svg": True})

    def test_priority_rejected(self):
        with pytest.raises(ConfigurationError, match="'priority' is no longer"):
            make(priority=9)

    def test_wrong_schema_rejected(self):
        with pytest.raises(ConfigurationError, match="schema"):
            make(schema=99)


class TestFingerprint:
    def test_stable_across_round_trip(self):
        spec = make(runs=4, seeds=[1, 2], overlays={"route_ttl": 30})
        clone = spec_from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone.fingerprint() == spec.fingerprint()

    def test_result_shaping_fields_change_it(self):
        base = make().fingerprint()
        assert make(runs=9).fingerprint() != base
        assert make(seeds=[7]).fingerprint() != base
        assert make(scale="paper").fingerprint() != base
        assert make(overlays={"route_ttl": 30}).fingerprint() != base
        assert make(experiments=["fig8"]).fingerprint() != base

    def test_cosmetic_fields_do_not_change_it(self):
        base = make().fingerprint()
        assert make(name="other").fingerprint() == base
        assert make(description="words").fingerprint() == base
        assert make(baseline_pack="pack.json").fingerprint() == base

    def test_checked_in_smoke_spec_fingerprint_is_pinned(self):
        # baselines/quick_smoke_pack.json records this fingerprint.
        import pathlib

        root = pathlib.Path(__file__).parents[2]
        spec = load_spec(root / "examples" / "specs" / "quick_smoke.json")
        assert spec.fingerprint() == "94e0f1ee09c65449"


class TestExpansion:
    def test_single_unit(self):
        units = make().expand()
        assert [u.label for u in units] == ["fig7-s2010"]
        assert units[0].overlay_dict == {}

    def test_experiments_x_seeds(self):
        units = make(experiments=["fig7", "fig8"], seeds=[1, 2]).expand()
        assert [u.label for u in units] == [
            "fig7-s1", "fig7-s2", "fig8-s1", "fig8-s2",
        ]

    def test_grid_axis_fans_out(self):
        units = make(overlays={"route_ttl": [10, 20, 30]}).expand()
        assert [u.label for u in units] == [
            "fig7-s2010-g0", "fig7-s2010-g1", "fig7-s2010-g2",
        ]
        assert [u.overlay_dict["route_ttl"] for u in units] == [10, 20, 30]

    def test_scalar_overlays_reach_every_cell(self):
        units = make(
            overlays={"route_ttl": [10, 20], "quarantine": True}
        ).expand()
        assert all(u.overlay_dict["quarantine"] for u in units)

    def test_overlay_order_is_canonical(self):
        spec = make(overlays={"route_ttl": 30, "loss": "loss=0.1", "quarantine": True})
        keys = [key for key, _ in spec.expand()[0].overlays]
        assert keys == sorted(keys, key=OVERLAY_KEYS.index)

    def test_runs_override_applied_to_scale(self):
        unit = make(runs=3).expand()[0]
        assert unit.scale().runs == 3


class TestLoadSpec:
    def test_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(BASE))
        assert load_spec(path).name == "base"

    def test_yaml_file(self, tmp_path):
        pytest.importorskip("yaml")
        path = tmp_path / "spec.yaml"
        path.write_text("name: yamlspec\nexperiments: [fig7]\n")
        assert load_spec(path).name == "yamlspec"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_spec(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{not json")
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            load_spec(path)

    def test_checked_in_examples_validate(self):
        import pathlib

        spec_dir = pathlib.Path(__file__).parents[2] / "examples" / "specs"
        specs = sorted(spec_dir.glob("*.json"))
        assert specs, "examples/specs/ should ship at least one spec"
        for path in specs:
            load_spec(path)


def test_default_spec_dataclass_usable_directly():
    spec = SweepSpec(name="direct", experiments=("fig7",))
    assert spec.expand()[0].label == "fig7-s2010"
    assert len(spec.fingerprint()) == 16
