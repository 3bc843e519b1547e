"""Console entry point: configs, determinism, exit codes, output layout."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from lorentz_synth import lipschitz_grid as L
from lorentz_synth.cli import (COMMANDS, MODEL_KINDS, ConfigError, ExperimentConfig,
                               _build_model, _validate_model, main, run, suite)
from lorentz_synth.comparison import make_report


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
            spec = {"kind": name, **given.get(name, {})}
            _validate_model(spec)
            assert isinstance(_build_model(spec), L.MetricGrid) == kind.grid
            if kind.required:
                with pytest.raises(ConfigError, match="needs"):
                    _validate_model({"kind": name})


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
    def test_quick_matrix_runs_all_rows(self, tmp_path, capsys):
        record = suite(mode="quick", seed=0, output_dir=str(tmp_path / "s"))
        assert record.passed
        rows = record.reports[0]["provenance"]["rows"]
        assert len(rows) == 15
        assert all(row["passed"] for row in rows)
        table = capsys.readouterr().out
        assert table.count("PASS") == 15

    def test_quick_matrix_is_reproducible(self, tmp_path, capsys):
        a = suite(mode="quick", seed=0, output_dir=str(tmp_path / "a"))
        b = suite(mode="quick", seed=0, output_dir=str(tmp_path / "b"))
        assert a.payload() == b.payload()
        assert ((tmp_path / "a" / "margins.csv").read_bytes()
                == (tmp_path / "b" / "margins.csv").read_bytes())


def test_run_returns_the_persisted_record(tmp_path):
    cfg = ExperimentConfig.from_mapping(
        {"command": "eikonal", "output_dir": str(tmp_path / "e")})
    record = run(cfg)
    assert record.passed and record.command == "eikonal"
    on_disk = json.loads((tmp_path / "e" / "report.json").read_text())
    assert on_disk["config_hash"] == record.config_hash
