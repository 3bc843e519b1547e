"""Console entry point: configs, determinism, exit codes, output layout."""

import contextlib
import csv
import dataclasses
import io
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from lorentz_synth import cli as C
from lorentz_synth import lipschitz_grid as L
from lorentz_synth.cli import (COMMANDS, MODEL_KINDS, ConfigError, ExperimentConfig,
                               _build_model, _checked, _suite_row_configs, main, run, suite)
from lorentz_synth.comparison import make_report
from lorentz_synth.distortion import (KappaProfile, const_first_zero, const_tau, defect_bound,
                                      sigma_coeff, tau_coeff)
from lorentz_synth.extreal import INF, is_inf
from lorentz_synth.models import ModelSpacetime
from lorentz_synth.transport import DiscreteMeasure


def cli(tmp_path, *argv, config=None):
    """Invoke main() with --out pointed at tmp_path; returns the exit code."""
    args = list(argv)
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config) if isinstance(config, dict) else config)
        args += ["--config", str(path)]
    args += ["--out", str(tmp_path / "run")]
    return main(args)


class TestConfig:
    def test_defaults_fill_in(self):
        cfg = ExperimentConfig.from_mapping({"command": "bonnet-myers"})
        resolved = cfg.resolved()
        assert resolved["parameters"]["K"] == 1.0
        assert resolved["model"]["kind"] == "desitter"
        assert resolved["seed"] == 0

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"command": "tmcp", "extra": 1})

    def test_rejects_unknown_parameter(self):
        cfg = ExperimentConfig.from_mapping(
            {"command": "tmcp", "parameters": {"nope": 3}})
        with pytest.raises(ConfigError):
            cfg.resolved()

    def test_rejects_command_mismatch(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_mapping({"command": "tcd"}, command="tmcp")

    def test_hash_ignores_output_dir_but_not_seed(self):
        base = ExperimentConfig.from_mapping({"command": "eikonal"})
        moved = ExperimentConfig.from_mapping(
            {"command": "eikonal", "output_dir": "elsewhere"})
        reseeded = ExperimentConfig.from_mapping(
            {"command": "eikonal", "seed": 3})
        assert base.config_hash() == moved.config_hash()
        assert base.config_hash() != reseeded.config_hash()

    def test_every_command_has_defaults_that_resolve(self):
        for name in COMMANDS:
            resolved = ExperimentConfig.from_mapping({"command": name}).resolved()
            json.dumps(resolved)  # must be serializable as written

    def test_every_model_kind_validates_and_builds(self, tmp_path):
        L.save_grid(L.minkowski_grid(((0.0, 1.0), (-1.0, 1.0)), (33, 33)),
                    tmp_path / "grid.bin")
        # the keys a kind cannot default; every other kind builds from its name
        given = {"warp-samples": {"samples": [[0.0, 1.0], [1.0, 1.5]],
                                  "t_bounds": [0.0, 1.0], "x_bounds": [-1.0, 1.0]},
                 "grid": {"path": str(tmp_path / "grid.bin")},
                 "minkowski-grid": {"bounds": [[0.0, 1.0], [-1.0, 1.0]],
                                    "shape": [33, 33]}}
        assert set(given) <= set(MODEL_KINDS)
        for name, kind in MODEL_KINDS.items():
            built = _build_model({"kind": name, **given.get(name, {})})
            assert isinstance(built, L.MetricGrid) == name.endswith("grid")
            if kind.required:
                with pytest.raises(ConfigError, match="needs"):
                    _build_model({"kind": name})


class TestExitCodes:
    def test_malformed_json_is_a_parse_error(self, tmp_path, capsys):
        code = cli(tmp_path, "tmcp", config="{broken")
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "parse-error"

    def test_unknown_key_is_an_invalid_config(self, tmp_path, capsys):
        code = cli(tmp_path, "tmcp", config={"command": "tmcp", "what": 1})
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"

    def test_unknown_command_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli(tmp_path, "no-such-check")
        assert exc.value.code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "usage-error"

    def test_unknown_model_kind_is_an_invalid_config(self, tmp_path, capsys):
        code = cli(tmp_path, "tmcp", config={"model": {"kind": "nope"}})
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "invalid-config", "detail": "unknown model kind 'nope'"}

    def test_missing_grid_file_is_an_invalid_config(self, tmp_path, capsys):
        code = cli(tmp_path, "mollify",
                   config={"command": "mollify",
                           "model": {"kind": "grid", "path": "nowhere.bin"}})
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"

    @pytest.mark.parametrize("edit", [lambda raw: raw[:-1], lambda raw: np.append(raw, 1.0),
                                      lambda raw: np.where(raw == 1.0, 0.5, raw)],
                             ids=["short", "long", "half-valid"])
    def test_grid_file_unlike_its_manifest_is_an_invalid_config(self, tmp_path, capsys,
                                                                edit):
        path = tmp_path / "grid.bin"
        L.save_grid(L.minkowski_grid(((0.0, 1.0), (-1.0, 1.0)), (65, 33)), path)
        edit(np.fromfile(path, dtype=np.float64)).tofile(path)
        code = cli(tmp_path, "mollify",
                   config={"command": "mollify", "model": {"kind": "grid", "path": str(path)}})
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config" and str(path) in err["detail"]

    def test_verifier_rejection_exits_three(self, tmp_path, capsys):
        # radius below twice the spacing is only caught inside the library
        code = cli(tmp_path, "mollify",
                   config={"command": "mollify",
                           "parameters": {"eps_list": [1e-4]}})
        assert code == 3
        assert json.loads(capsys.readouterr().err)["error"] == "verifier-error"

    def test_nonpositive_k_for_diameter_bound(self, tmp_path, capsys):
        code = cli(tmp_path, "bonnet-myers",
                   config={"command": "bonnet-myers", "parameters": {"K": -1.0}})
        assert code == 2

    def test_increasing_eps_schedule_is_rejected(self, tmp_path):
        code = cli(tmp_path, "lp-deficit",
                   config={"command": "lp-deficit",
                           "parameters": {"eps_list": [0.3, 0.5]}})
        assert code == 2

    @pytest.mark.parametrize("p_list", [[], ["abc"], [-1.0], [1.0, 1.0]],
                             ids=["empty", "string", "negative", "repeated"])
    def test_bad_p_list_is_an_invalid_config(self, tmp_path, capsys, p_list):
        model = {"kind": "kinked-grid", "shape": [257, 33]}
        code = cli(tmp_path, "lp-deficit",
                   config={"model": model, "parameters": {"p_list": p_list}})
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "invalid-config" and "p_list" in err["detail"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("kind", ["kinked-grid", "minkowski-grid", "grid"])
    def test_n_below_the_grid_dimension_is_an_invalid_config(self, tmp_path, capsys,
                                                             kind):
        bounds = [[0.0, 1.0], [-1.0, 1.0], [-1.0, 1.0]]
        L.save_grid(L.minkowski_grid(bounds, (9, 9, 9)), tmp_path / "grid.bin")
        model, n = {
            "kinked-grid": ({"kind": kind, "shape": [257, 33]}, 1.0),
            "minkowski-grid": ({"kind": kind, "bounds": bounds, "shape": [9, 9, 9]}, 2.5),
            "grid": ({"kind": kind, "path": str(tmp_path / "grid.bin")}, 2.5)}[kind]
        code = cli(tmp_path, "lp-deficit",
                   config={"model": model, "parameters": {"n": n}})
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "invalid-config" and "grid dimension" in err["detail"]
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize("command, key, value", [
        ("transport", "instances", "abc"), ("transport", "quick_instances", 0),
        ("distortion", "pairs", 2.5), ("distortion", "quick_tuples", None),
        ("brenier", "count", 0), ("needles", "n_rays", "many"),
        ("aubry", "boxes", -1), ("brunn-minkowski", "max_pairs", 0.5),
        ("tmcp", "quick_cells_resolution", 16)])
    def test_bad_count_is_an_invalid_config(self, tmp_path, capsys, command, key,
                                            value):
        code = cli(tmp_path, command, config={"parameters": {key: value}})
        assert code == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "invalid-config" and key in err["detail"]

    def test_unparsable_parameter_is_an_invalid_config(self, tmp_path, capsys):
        code = cli(tmp_path, "transport", config={"parameters": {"q": "abc"}})
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"] == "invalid-config"

    def test_ratio_pairs_must_name_listed_radii(self, tmp_path, capsys):
        # the default ratio_pairs reference radius 1.0
        code = cli(tmp_path, "bishop-gromov",
                   config={"parameters": {"r_list": [0.25, 0.5]}})
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config" and "r_list" in err["detail"]

    def test_malformed_measure_spec_is_an_invalid_config(self, tmp_path, capsys):
        # measure specs are parsed by the runner, after dispatch
        code = cli(tmp_path, "tcd", config={"parameters": {"source": {"foo": 1}}})
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config" and "measure" in err["detail"]

    def test_warp_samples_without_bounds_is_an_invalid_config(self, tmp_path, capsys):
        code = cli(tmp_path, "tmcp",
                   config={"model": {"kind": "warp-samples",
                                     "samples": [[0.0, 1.0], [2.0, 1.0]],
                                     "x_bounds": [-1.0, 1.0]}})
        assert code == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "invalid-config" and "t_bounds" in err["detail"]

    def test_key_error_inside_a_verifier_exits_three(self, tmp_path, capsys,
                                                     monkeypatch):
        def broken(model, params, rng):
            raise KeyError("lost")

        monkeypatch.setitem(COMMANDS, "eikonal",
                            dataclasses.replace(COMMANDS["eikonal"], runner=broken))
        code = cli(tmp_path, "eikonal")
        assert code == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "verifier-error" and "KeyError" in err["detail"]


# config hashes of every default run, plain and --quick, and of the perfbench
# workloads; the declarations must resolve to exactly these maps
PINNED_HASHES = {
    "distortion":
        "3168c04c0007c14980edc69a16ebd2c298b094e282f4026b419d5325bbffaf38",
    "distortion --quick":
        "ef309f350f7587b056d73348a062455bdd5158d1136d8a1bf2e7e7a4c4478446",
    "cd-verify":
        "c67a3688bab50b185157853c17d7c4bb57dec058956fb57d26a5581b563ba621",
    "cd-verify --quick":
        "b97dcdc0ff724867ac90738fa1e7a80f2c0f1f2facd932a4463f821912af6d41",
    "transport":
        "1043f6b6d747568467ac4b5aac9793660f08f8ae02f3729c4b25c1897c325daa",
    "transport --quick":
        "a2b3dbb59f56daab2e4371fd20f12ab3d38184e3add453ac43549830a3e60960",
    "tmcp":
        "71ec5e29ada6370f1964e6f5dbdee17347815aaa152633063c8fc2e0efd65352",
    "tmcp --quick":
        "037a335de77bd3cafd58138fcb7c02ad95d6a09a9eeeaae2b613434fb9b4e330",
    "tcd":
        "5673b782972c86b8759ce0756e62c5f8187ab6ec0494fe66c971ff530de1ebff",
    "tcd --quick":
        "56319a8839e0313c09106c93166e1e317e8735677e70c0613b309e635f4935f2",
    "brunn-minkowski":
        "56a84ec83ab833c711ccb786e0ff9aeabfafcfc4f82830910d97599fd0ed2990",
    "brunn-minkowski --quick":
        "6e9f2fe97caf8c839deb93d19e13e0ce560e75772bde3f460869f4a494d477cf",
    "bishop-gromov":
        "f458450744aa1aa64aafbff8b6389f07afd6c753e156b99072dbcdffd2e0e362",
    "bishop-gromov --quick":
        "0ef81b73e3156302e8dff999c64c22dbb6e35d8c808b79688bd3040e5193f4cb",
    "bonnet-myers":
        "8b1880daef135bca5fba242ba2634d8d0872ddd878d77a915fb7cf5138cd37e6",
    "bonnet-myers --quick":
        "1ec789ac44847d3651232a3937028b83c981d3dfca0defe79cc7c8b6817a0630",
    "dalembert":
        "e8bb008129a4ab2e0e71155506b8b44c35c0cc2acc953060075a56f4c5b37a80",
    "dalembert --quick":
        "4c8a0131b56f98b4ea9be3383b5154b184e180e9ab0b5490c5d0719f0e93ca0a",
    "eikonal":
        "47d8c5148ad7b2584733310b3f72c75a80994f69cce2033eef6450654300cac3",
    "eikonal --quick":
        "f20c243033dec41634e3363cb4a9545bb8339d222c91b6556b7a541e1473bd37",
    "brenier":
        "e048f286b1e72da3aa337f526fe5906c6e0c51a63ec8438640781e9a22dd0d2e",
    "brenier --quick":
        "c3efac4bdbeb1434fd89b8feff4383d401f6bd6fe74cd592f6c270f9e5823491",
    "needles":
        "65b3dba17fedee9ea485f348d4526f7384e8a690b35fe6c842fc9cc1965e927a",
    "needles --quick":
        "56ed36266669c641c914b749537571753df356ff1d150a65f1b37ae6b48e3c93",
    "mollify":
        "ce68338545c3eb4785f3c801a21168aa9811596446b375e447771a55d23d491f",
    "mollify --quick":
        "61d486ea01530b17c9445732ace3fc244d238c5acc0faa510aaa6d66c18aa936",
    "lp-deficit":
        "1dc5d6757191a728ebabd732a1c3f760546706463520a11940b3a34cf5912f43",
    "lp-deficit --quick":
        "fc8214035affff134d95a2e9af745b6c36c10b3a28e31d7b122f94f61eb6e4e8",
    "aubry":
        "e33146ec3eac9c8b02679f6db13769157fba3a521b559bbc6b78e7cd23516f6d",
    "aubry --quick":
        "3f29ecafa8a3b4bad2c88705662411e7f1771f08023b273acc6ccdb524342e2b",
    "suite":
        "4a53cd61291e1229cef1011b80d882da6efc4e1e2d3b5b3a4c6d2cfcd9948066",
    "suite --quick":
        "26d02c9e48a0f6c99875260ed1b3570862af9ca2a87ca223145e9947c7088a42",
    "perfbench lattice-tcd":
        "ce4a71c65d7f09b41cfad8da583541b3ca42444a48f04e66acbcbbd7826680c4",
    "perfbench flat-tcd":
        "c3bdef3e116f59cc596822f2d44afd07f706b2807091e61149122aca8eb6d851",
    "perfbench grid-deficit":
        "dd8c31a8c7e96ae1b8af7cf26dbbf008b490a4b3ce6e075ca621e6c629b6a137",
    "perfbench sine-scan":
        "aae114632caa1a09311f9bd19689c993621712072f4c784e070fe9a1bce999ba",
}


def invalid_config(capsys, tmp_path):
    """The one JSON error line of a run that stopped before dispatch."""
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "invalid-config"
    assert not (tmp_path / "run").exists()
    return err


# malformed parameter values and model specs; each must stop before dispatch
REPROS = [
    ("tmcp", {"parameters": {"variant": "sideways"}}),
    ("tmcp", {"parameters": {"K": "abc"}}),
    ("tcd", {"parameters": {"n": 0.5}}),
    ("tcd", {"parameters": {"tolerance": "x"}}),
    ("tcd", {"parameters": {"source": {"points": "abc"}}}),
    ("bonnet-myers", {"parameters": {"window": [1]}}),
    # the diameter is the chart's time extent: no lattice resolution to set
    ("bonnet-myers", {"parameters": {"resolution": 257}}),
    ("dalembert", {"parameters": {"variant": "nope"}}),
    ("dalembert", {"parameters": {"bumps": [{"center": [1.2, 0.0]}]}}),
    ("dalembert", {"parameters": {"variant": "power", "q_prime": 0.5}}),
    ("eikonal", {"parameters": {"resolutions": []}}),
    ("eikonal", {"parameters": {"resolutions": [129.5, 257]}}),
    ("brenier", {"parameters": {"shrink_factor": "x"}}),
    ("brenier", {"parameters": {"t_range": [1.0]}}),
    ("needles", {"parameters": {"window": [0.8, -0.8]}}),
    ("needles", {"parameters": {"r": -1}}),
    ("aubry", {"parameters": {"p": "x"}}),
    ("aubry", {"parameters": {"quick_resolution": 129}}),
    ("cd-verify", {"parameters": {"n_values": [1.0]}}),
    ("cd-verify", {"parameters": {"k_values": ["a"]}}),
    ("distortion", {"parameters": {"kappas": ["a"]}}),
    ("lp-deficit", {"parameters": {"final_ratio": "x"}}),
    ("transport", {"parameters": {"origin": [0.0]}}),
    ("transport", {"parameters": {"gap_tolerance": "x"}}),
    ("bishop-gromov", {"parameters": {"dr": -1}}),
    *[(name, {"parameters": {"quick": "no"}}) for name in COMMANDS],
    ("tmcp", {"model": {"kind": "desitter", "delta": 2.0}}),
    ("tmcp", {"model": {"kind": "minkowski", "bounds": [[0, 1]]}}),
    ("lp-deficit", {"model": {"kind": "kinked-grid", "shape": [257, 33, 9]}}),
    ("lp-deficit", {"model": {"kind": "minkowski-grid", "bounds": [[0, 1], [-1, 1]],
                              "shape": [33]}}),
]

# an out-of-range value for each declared parameter that has a range
OUT_OF_RANGE = {
    **dict.fromkeys(["pairs", "tuples", "instances", "count", "n_rays", "boxes",
                     "max_pairs", "n_needles"], 0),
    **dict.fromkeys(["resolution", "cells_resolution", "raster", "tau_samples",
                     "needle_samples", "reference_resolution"], 16),
    **dict.fromkeys(["tolerance", "gap_tolerance", "equality_tolerance",
                     "box_tolerance", "ratio_tolerance", "order_floor",
                     "final_ratio"], -1.0),
    **dict.fromkeys(["dr", "r", "shrink_factor", "c_const"], 0.0),
    **dict.fromkeys(["check", "variant", "mode", "curvature"], "nope"),
    **dict.fromkeys(["window", "t_range", "x_range"], [1.0, 0.0]),
    "q": 1.5, "q_prime": 1.5, "n": 0.5, "equality_n_prime": 1.0, "p": 0.5,
    "t_grid": [1.5], "t_list": [1.5], "n_values": [1.0], "n_prime_grid": [1.0],
    "r_list": [-1.0, 0.5], "resolutions": [16, 257], "eps_list": [-0.1],
    "p_list": [0.0], "ratio_pairs": [[0.5, 2.0]],
    "bumps": [{"center": [1.2, 0.0], "radius": -0.1}],
    "box": [[1.1, 0.6], [-0.2, 0.2]],
}


def with_first_number(value, new):
    """``value`` with its first numeric leaf replaced by ``new`` (None if it
    has no numeric leaf)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return new
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        replaced = with_first_number(item, new)
        if replaced is not None:
            copy = dict(value) if isinstance(value, dict) else list(value)
            copy[key] = replaced
            return copy
    return None


def bad_value(command, key, how):
    default = COMMANDS[command].defaults()[key]
    if how in ("NaN", "Infinity", "-Infinity"):
        return with_first_number(default, json.loads(how))
    if how == "wrong type":
        return [1.0] if isinstance(default, dict) else {"x": 1}
    if how == "empty list":
        # no ratio pairs is a valid request
        return [] if isinstance(default, list) and key != "ratio_pairs" else None
    name = key.removeprefix("quick_")
    if name == "K" and command in ("bonnet-myers", "aubry"):
        return -1.0     # the diameter bounds need K > 0; elsewhere K is free
    return OUT_OF_RANGE.get(name)


class TestDeclarations:
    @pytest.mark.parametrize(
        "command, config", REPROS,
        ids=[f"{cmd}:{','.join(cfg.get('parameters', cfg.get('model', {})))}"
             for cmd, cfg in REPROS])
    def test_malformed_config_exits_two_before_dispatch(self, tmp_path, capsys,
                                                        command, config):
        assert cli(tmp_path, command, config=config) == 2
        invalid_config(capsys, tmp_path)

    @given(data=st.data())
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_every_declared_parameter_rejects_bad_values(self, tmp_path, capsys, data):
        command = data.draw(st.sampled_from(sorted(COMMANDS)))
        key = data.draw(st.sampled_from(sorted(COMMANDS[command].defaults())))
        how = data.draw(st.sampled_from(["NaN", "Infinity", "-Infinity", "wrong type",
                                         "empty list", "out of range"]))
        value = bad_value(command, key, how)
        assume(value is not None)
        out = tmp_path / f"{command}-{key}"
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"parameters": {key: value}}))
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "invalid-config"
        assert not out.exists()

    def test_config_hashes_are_pinned(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
        from run import WORKLOADS

        configs = {}
        for name in COMMANDS:
            configs[name] = {"command": name}
            quick = {"quick": True, **({"mode": "quick"} if name == "suite" else {})}
            configs[f"{name} --quick"] = {"command": name, "parameters": quick}
        configs.update({f"perfbench {w}": cfg for w, cfg in WORKLOADS.items()})
        assert {label: ExperimentConfig.from_mapping(cfg).config_hash()
                for label, cfg in configs.items()} == PINNED_HASHES

    @pytest.mark.parametrize("command, ints", [
        ("tmcp", {"K": 0, "n": 2}), ("tcd", {"K": 0, "n": 2}),
        ("bishop-gromov", {"K": 0, "n": 2}), ("bonnet-myers", {"K": 1, "n": 2})])
    def test_integer_valued_reals_keep_their_json_type(self, tmp_path, capsys,
                                                       command, ints):
        # the payload of K = 0 is that of K = 0.0 with the provenance reading 0
        texts = {}
        for kind, params in (("int", ints),
                             ("float", {k: float(v) for k, v in ints.items()})):
            out = tmp_path / kind
            path = tmp_path / f"{kind}.json"
            path.write_text(json.dumps({"parameters": params}))
            assert main([command, "--quick", "--config", str(path),
                         "--out", str(out)]) == 0
            record = json.loads((out / "report.json").read_text())
            texts[kind] = json.dumps(record["reports"])
            assert (out / "margins.csv").read_bytes() == (
                (tmp_path / "int" / "margins.csv").read_bytes())
        expected = texts["float"]
        for key, label in (("K", "K"), ("n", "N")):
            expected = expected.replace(f'"{label}": {float(ints[key])!r}',
                                        f'"{label}": {ints[key]}')
        assert texts["int"] == expected != texts["float"]

    def test_dalembert_power_variant_runs(self, tmp_path, capsys):
        code = cli(tmp_path, "dalembert", "--quick",
                   config={"parameters": {"variant": "power", "q_prime": -1.0}})
        assert code == 0
        record = json.loads((tmp_path / "run" / "report.json").read_text())
        assert record["reports"][0]["provenance"]["variant"] == "power"

    def test_lp_deficit_at_the_grid_dimension_needs_a_constant_weight(self, tmp_path,
                                                                      capsys):
        grid = L.minkowski_grid(((0.0, 2.0), (-1.0, 1.0)), (65, 65),
                                weight=lambda p: 0.1 * p[..., 0])
        L.save_grid(grid, tmp_path / "grid.bin")
        model = {"kind": "grid", "path": str(tmp_path / "grid.bin")}
        assert cli(tmp_path, "lp-deficit",
                   config={"model": model, "parameters": {"n": 2}}) == 2
        assert "constant weight" in invalid_config(capsys, tmp_path)["detail"]
        # above the dimension the weight may vary
        checked, params = _checked(ExperimentConfig.from_mapping(
            {"command": "lp-deficit", "model": model, "parameters": {"n": 2.5}}))
        assert checked.dims == 2 and params["n"] == 2.5

    @pytest.mark.parametrize("parameters, key", [
        ({"n": 4.0, "n_prime_grid": [2.0]}, "n_prime_grid"),
        ({"n": 3.0, "n_prime_grid": [4.0, 2.5, 3.0]}, "n_prime_grid"),
        ({"n": 3.0, "n_prime_grid": [3.0, 4.0], "equality_n_prime": 2.0}, "equality_n_prime"),
        ({"n": 2.5, "quick": True}, "n_prime_grid")])
    def test_tmcp_entropy_exponents_below_n_are_rejected(self, tmp_path, capsys,
                                                         parameters, key):
        assert cli(tmp_path, "tmcp", config={"parameters": parameters}) == 2
        assert key in invalid_config(capsys, tmp_path)["detail"]
        # at n itself and above, or with no equality check, they pass
        _, params = _checked(ExperimentConfig.from_mapping(
            {"command": "tmcp", "parameters": {"n": 3.0, "n_prime_grid": [3.0, 4.0],
                                               "equality_n_prime": None}}))
        assert params["n_prime_grid"] == [3.0, 4.0]

    def test_every_default_and_suite_config_passes_its_rule(self):
        for command in COMMANDS:
            for quick in (False, True):
                _checked(ExperimentConfig.from_mapping(
                    {"command": command, "parameters": {"quick": quick}}))
        for _, command, overrides in _suite_row_configs("full") + _suite_row_configs("quick"):
            _checked(ExperimentConfig(command, None, overrides, "", 0))

    @pytest.mark.parametrize("floor", [{"constant": 1.0}, {"dip": {"depth": 0.05}}])
    def test_aubry_curvature_floors_are_functions_of_chart_points(self, tmp_path,
                                                                  capsys, floor):
        assert cli(tmp_path, "aubry", "--quick",
                   config={"parameters": {"curvature": floor}}) == 0

    def test_runners_read_typed_values(self):
        model, params = _checked(ExperimentConfig.from_mapping(
            {"command": "tcd", "parameters": {"resolution": 129.0, "quick": True}}))
        assert params["resolution"] == 129 and type(params["resolution"]) is int
        assert params["cells_resolution"] == 128            # the quick twin
        assert isinstance(params["source"], DiscreteMeasure)
        assert isinstance(model, ModelSpacetime)


class TestOutputs:
    def test_eikonal_writes_the_full_layout(self, tmp_path, capsys):
        code = cli(tmp_path, "eikonal")
        assert code == 0
        out = tmp_path / "run"
        record = json.loads((out / "report.json").read_text())
        assert record["passed"] is True
        assert record["version"]
        csv = (out / "margins.csv").read_text().splitlines()
        assert csv[0] == "report,label,lhs,rhs,margin"
        assert len(csv) == 1 + sum(len(r["labels"]) for r in record["reports"])
        manifest = json.loads((out / "plots" / "manifest.json").read_text())
        for entry in manifest:
            lines = (out / "plots" / entry["file"]).read_text().splitlines()
            assert lines[0] == ",".join(entry["columns"])
            assert all(len(line.split(",")) == 2 for line in lines)
        assert "PASS" in capsys.readouterr().out

    def test_quoted_labels_survive_the_csv(self, tmp_path, capsys, monkeypatch):
        assert cli(tmp_path, "bishop-gromov", "--quick") == 0
        text = (tmp_path / "run" / "margins.csv").read_text()
        assert '"v:r=0.25,R=0.5"' in text
        # labels with commas and embedded quotes read back whole
        labels = ['say "hi", then', "plain"]
        quoted = make_report("quoted", [0.5, 1.0], [1.0, 1.0], 0.0, labels, {})
        monkeypatch.setitem(COMMANDS, "eikonal", dataclasses.replace(
            COMMANDS["eikonal"], runner=lambda model, params, rng: ([quoted], [])))
        assert cli(tmp_path, "eikonal") == 0
        rows = list(csv.reader(io.StringIO(
            (tmp_path / "run" / "margins.csv").read_text())))
        assert [row[:2] for row in rows[1:]] == [["quoted", lab] for lab in labels]

    def test_same_seed_means_identical_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["brenier", "--quick", "--seed", "5",
                         "--out", str(out)]) == 0
        assert (a / "margins.csv").read_bytes() == (b / "margins.csv").read_bytes()
        pa = json.loads((a / "report.json").read_text())
        pb = json.loads((b / "report.json").read_text())
        for rec in (pa, pb):
            rec.pop("started")
            rec.pop("finished")
        assert pa == pb

    def test_different_seed_changes_the_draw(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["brenier", "--quick", "--seed", "1", "--out", str(a)]) == 0
        assert main(["brenier", "--quick", "--seed", "2", "--out", str(b)]) == 0
        assert (a / "margins.csv").read_bytes() != (b / "margins.csv").read_bytes()


def _ordering_one_pair_at_a_time(rng, n):
    """The distortion ordering check evaluated as each pair is drawn."""
    worst_sigma = worst_tau = worst_dom = 0.0
    for _ in range(n):
        a, b = rng.uniform(-4.0, 4.0, 2)
        d0, d1 = rng.uniform(0.0, 3.0, 2)
        length = float(rng.uniform(1.0, 2.5))
        n_param = float(rng.choice((2.0, 3.0, 4.5)))
        t = float(rng.uniform(0.0, 1.0))
        theta = float(rng.uniform(0.05, 0.95)) * length
        upper = KappaProfile.from_samples([[0.0, a], [length, b]])
        lower = KappaProfile.from_samples([[0.0, a - d0], [length, b - d1]])
        s_up = sigma_coeff(upper.scaled(1.0 / n_param), t, theta)
        s_lo = sigma_coeff(lower.scaled(1.0 / n_param), t, theta)
        if not is_inf(s_up):
            worst_sigma = max(worst_sigma, s_lo - s_up)
        t_up = tau_coeff(upper, n_param, t, theta)
        t_lo = tau_coeff(lower, n_param, t, theta)
        if not is_inf(t_up):
            worst_tau = max(worst_tau, t_lo - t_up)
            if not is_inf(s_up):
                worst_dom = max(worst_dom, s_up - t_up)
    return [worst_sigma, worst_tau, worst_dom]


def _defect_one_draw_at_a_time(rng, n):
    """The distortion defect check's loop, one draw evaluated at a time:
    (worst, used, skipped). It reads const_first_zero and const_tau from the
    cli module, as the runner does."""
    worst = 0.0
    used = skipped = 0
    while used < n and skipped < 20 * n:
        big_k = float(rng.uniform(0.5, 2.0))
        n_param = float(rng.choice((2.0, 2.5, 3.0)))
        p = float(rng.uniform(max(2.0, n_param / 2.0 + 0.3), 3.5))
        fz = C.const_first_zero(big_k / (n_param - 1.0))
        eta = float(rng.uniform(0.05, 0.45)) * fz
        offs = rng.uniform(-1.5, 0.5, 2)
        prof = KappaProfile.from_samples([[0.0, big_k + offs[0]], [2.0, big_k + offs[1]]])
        theta_max = min(2.0, fz - eta)
        if theta_max <= 1e-2:
            skipped += 1
            continue
        theta = float(rng.uniform(0.1, 0.9)) * theta_max
        t = float(rng.uniform(0.05, 0.95))
        bound = defect_bound(big_k, n_param, p, eta, prof, t, theta)
        t_model = float(C.const_tau(big_k, n_param, t, theta))
        t_prof = tau_coeff(prof, n_param, t, theta)
        if is_inf(t_model) or is_inf(t_prof):
            skipped += 1
            continue
        worst = max(worst, (t_model - t_prof) - bound)
        used += 1
    return worst, used, skipped


class TestDistortionRounds:
    """The distortion checks draw a round of pairs or loop passes, then
    evaluate it in one batch: the results are those of one draw at a time."""

    def test_ordering_rounds_match_one_pair_at_a_time(self):
        n = C._DISTORTION_ROUND + 8
        [report], _ = C._run_distortion(None, {"check": "ordering", "pairs": n}, 3)
        want = _ordering_one_pair_at_a_time(np.random.default_rng(3), n)
        assert report.lhs.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("tuples, below, radius", [(40, 0.5, 0.015), (5, 10.0, 0.005)],
                             ids=["some-skipped", "all-skipped"])
    def test_defect_rounds_match_one_draw_at_a_time(self, monkeypatch, tuples, below, radius):
        # both kinds of skip: a conjugate radius so short (where K / (N - 1)
        # is below ``below``) that theta_max <= 1e-2 for some or all eta, and
        # an infinite model tau (t > 0.8); in the second case every draw is
        # skipped until 20 n of them are
        monkeypatch.setattr(C, "const_first_zero",
                            lambda k: radius if k < below else const_first_zero(k))
        monkeypatch.setattr(C, "const_tau",
                            lambda K, N, t, theta: INF if t > 0.8 else const_tau(K, N, t, theta))
        [report], _ = C._run_distortion(None, {"check": "defect", "tuples": tuples}, 5)
        worst, used, skipped = _defect_one_draw_at_a_time(np.random.default_rng(5), tuples)
        assert (float(report.lhs[0]), report.provenance) == \
            (worst, {"tuples": used, "skipped": skipped})
        assert skipped > 0
        if below > 1.0:
            assert (used, skipped) == (0, 20 * tuples)


class TestRunners:
    def test_bishop_gromov_ratio_margins(self, tmp_path, capsys):
        assert cli(tmp_path, "bishop-gromov") == 0
        record = json.loads((tmp_path / "run" / "report.json").read_text())
        ratios = [r for r in record["reports"]
                  if r["name"] == "bishop-gromov-ratios"][0]
        assert ratios["passed"]
        assert all(lhs <= 1e-3 for lhs in ratios["lhs"])

    def test_lp_deficit_curve_decreases_in_the_csv(self, tmp_path, capsys):
        assert cli(tmp_path, "lp-deficit") == 0
        for p in (1, 2):
            rows = (tmp_path / "run" / "plots" / f"deficit_p{p}.csv"
                    ).read_text().splitlines()[1:]
            deficits = [float(r.split(",")[1]) for r in rows]
            assert all(b < a for a, b in zip(deficits, deficits[1:]))
            assert deficits[-1] <= 0.1 * deficits[0]

    def test_lp_deficit_scans_once_per_radius(self, tmp_path, capsys, monkeypatch):
        # k(x) does not depend on p: the default run (4 radii, 2 exponents)
        # mollifies and rebuilds the curvature 4 times, not 8
        calls = {"mollify": 0, "bakry_emery": 0, "timelike_lower_bound_fn": 0}
        for name in calls:
            fn = getattr(L, name)

            def counted(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(L, name, counted)
        assert cli(tmp_path, "lp-deficit") == 0
        assert calls == {"mollify": 4, "bakry_emery": 4, "timelike_lower_bound_fn": 4}
        names = [r["name"] for r in
                 json.loads((tmp_path / "run" / "report.json").read_text())["reports"]]
        assert names == ["lp-deficit-p1", "lp-deficit-p2"]

    def test_grid_config_loads_a_saved_grid(self, tmp_path, capsys):
        g = L.minkowski_grid(((0.0, 2.0), (-1.0, 1.0)), (129, 129))
        L.save_grid(g, tmp_path / "grid.bin")
        code = cli(tmp_path, "mollify",
                   config={"command": "mollify",
                           "model": {"kind": "grid",
                                     "path": str(tmp_path / "grid.bin")},
                           "parameters": {"eps_list": [0.2]}})
        assert code == 0

    def test_measure_and_region_specs_parse(self, tmp_path, capsys):
        code = cli(tmp_path, "tmcp", "--quick",
                   config={"command": "tmcp",
                           "parameters": {
                               "target": {"points": [[1.2, 0.1], [1.4, -0.2]],
                                          "weights": [0.5, 0.5]},
                               "t_grid": [0.5],
                               "n_prime_grid": [2.0],
                               "equality_n_prime": None}})
        assert code == 0
        record = json.loads((tmp_path / "run" / "report.json").read_text())
        labels = record["reports"][0]["labels"]
        assert "t=0.5,N'=2" in labels

    def test_weighted_chart_spec(self, tmp_path, capsys):
        # weight_poly_t adds a log-density; the closed-form mass row must
        # then drop out of the needle report
        code = cli(tmp_path, "needles", "--quick",
                   config={"command": "needles",
                           "model": {"kind": "minkowski",
                                     "bounds": [[0.0, 1.5], [-1.5, 1.5]],
                                     "weight_poly_t": [0.0, 0.3]},
                           "parameters": {"box_tolerance": 5e-3}})
        record = json.loads((tmp_path / "run" / "report.json").read_text())
        labels = record["reports"][0]["labels"]
        assert code == 0
        assert "reassembly" in labels and "total-mass" not in labels


class TestSuite:
    # one quick suite run, shared by both tests, so tier-1 runs the matrix
    # twice rather than three times
    @pytest.fixture(scope="class")
    def first_run(self, tmp_path_factory):
        out_dir = tmp_path_factory.mktemp("suite-a")
        table = io.StringIO()
        with contextlib.redirect_stdout(table):
            record = suite(mode="quick", seed=0, output_dir=str(out_dir))
        return record, table.getvalue(), out_dir

    def test_quick_matrix_runs_all_rows(self, first_run):
        record, table, _ = first_run
        assert record.passed
        rows = record.reports[0]["provenance"]["rows"]
        assert len(rows) == 15
        assert all(row["passed"] for row in rows)
        assert table.count("PASS") == 15

    def test_quick_matrix_is_reproducible(self, first_run, tmp_path):
        a, _, a_dir = first_run
        b = suite(mode="quick", seed=0, output_dir=str(tmp_path / "b"))
        assert a.payload() == b.payload()
        assert ((a_dir / "margins.csv").read_bytes()
                == (tmp_path / "b" / "margins.csv").read_bytes())


def test_run_returns_the_persisted_record(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"command": "eikonal", "output_dir": str(tmp_path / "e")})
    record = run(cfg)
    assert record.passed and record.command == "eikonal"
    on_disk = json.loads((tmp_path / "e" / "report.json").read_text())
    assert on_disk["config_hash"] == record.config_hash
