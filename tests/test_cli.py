"""End-to-end tests of the command-line harness (in-process, via main)."""

from __future__ import annotations

import argparse
import csv
import json
import os
import subprocess
import sys
import warnings
from importlib import resources
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from jsonschema.validators import validator_for

import pareto_forge
from pareto_forge import experiments, rp
from pareto_forge.cli import _config_validator, build_parser, main
from pareto_forge.core import (
    ConstraintFunction,
    EmpiricalStrategy,
    ParetoCertificate,
    RPDataset,
    load_dataset,
    save_dataset,
)
from pareto_forge.rp import pareto_gap
from pareto_forge.synthetic import violating_dataset


@pytest.fixture
def gen_config(tmp_path):
    cfg = {"game": {"T": 3, "seed": 5, "theta0": [0.5, 0.3, 0.4, 0.5, 0.2, 0.3, 0.4]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def _loaded_by_fresh_cli_import(*packages) -> list:
    """The modules of ``packages`` in sys.modules after ``import pareto_forge.cli`` in a
    fresh interpreter (this one has loaded them already)."""
    src = str(Path(pareto_forge.__file__).parents[1])
    code = (
        "import json, sys, pareto_forge.cli; "
        f"print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in {packages!r})))"
    )
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return json.loads(out.stdout)


class TestConfigHandling:
    def test_generate_requires_config(self, tmp_path, capsys):
        assert main(["generate", "--out-dir", str(tmp_path)]) == 2
        assert "requires --config" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"game": {"flux_capacitor": 1.21}}))
        assert main(["generate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_removed_rp_block_rejected(self, tmp_path, capsys):
        path = tmp_path / "rp.json"
        path.write_text(json.dumps({"rp": {"tol_r": 1e-6}}))
        assert main(["generate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "invalid config" in capsys.readouterr().err

    def test_removed_output_block_rejected(self, tmp_path, capsys):
        path = tmp_path / "output.json"
        path.write_text(json.dumps({"output": {"dir": str(tmp_path / "elsewhere")}}))
        assert main(["generate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "'output' was unexpected" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"game": {')
        assert main(["generate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "cannot read config" in capsys.readouterr().err


    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_rejected(self, tmp_path, capsys, literal):
        path = tmp_path / "nan.json"
        path.write_text('{"game": {"jitter": %s}}' % literal)
        assert main(["generate", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "cannot read config" in err
        assert "game/jitter" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["generate", "spsa"])
    @pytest.mark.parametrize(
        "delta",
        [
            [[0.9, 0.1, 0.6, 0.4, 0.2, 0.8]],
            [[0.9, 0.1], [-0.6, -0.4], [0.2, 0.8]],
            [[0.9, 0.1], [0.0, 0.0], [0.2, 0.8]],
        ],
    )
    def test_bad_river_delta_exits_two(self, tmp_path, capsys, command, delta):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"game": {"T": 2, "delta": delta}, "spsa": {"max_iters": 1}}))
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out-dir", str(out)]) == 2
        assert "delta" in capsys.readouterr().err
        assert not (out / "dataset.json").exists()
        assert not (out / "spsa_manifest.json").exists()

    @pytest.mark.parametrize(
        "theta0, named",
        [([0.5, 0.3, -0.4, 0.5, 0.2, 0.3, 0.4], "c12 = -0.4"), ([-0.5, 0.3, 0.4, 0.5, -0.2, 0.3, 0.4], "d2 = -0.5")],
        ids=["c12", "d2"],
    )
    def test_generate_with_a_negative_d2_or_c1_exits_two(self, tmp_path, capsys, theta0, named):
        path = _write(tmp_path / "cfg.json", {"game": {"T": 2, "theta0": theta0}})
        out = tmp_path / "out"
        assert main(["generate", "--config", path, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: theta must have d2 >= 0 and every c1i >= 0, got {named}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spsa", "mc"])
    @pytest.mark.parametrize(
        "box, message",
        [
            ([[0.0, 1.0]] * 2, "theta_box must have 7 rows (d2, c11, c12, c13, c21, c22, c23), got 2"),
            ([[-0.5, 1.0]] + [[0.0, 1.0]] * 6, "theta_box row 0 (d2) needs a lower bound >= 0, got -0.5"),
            ([[0.0, 1.0]] * 3 + [[-1.0, 1.0]] * 4, "theta_box row 3 (c13) needs a lower bound >= 0, got -1.0"),
        ],
        ids=["two rows", "d2", "c13"],
    )
    def test_theta_box_outside_the_playable_theta_exits_two(
        self, tmp_path, capsys, monkeypatch, command, box, message
    ):
        # rejected with the config, before θ0 is drawn or the game is played
        monkeypatch.setattr(experiments, "river_loss", lambda *a, **k: pytest.fail("the game was played"))
        doc = {"spsa": {"theta_box": box, "max_iters": 1}, "monte_carlo": {"replications": 1}}
        path = _write(tmp_path / "cfg.json", doc)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "spsa_manifest.json").exists() and not (out / "mc_spsa.csv").exists()


class TestNegativeSeed:
    """A negative seed reached np.random.default_rng, whose message named no key."""

    @pytest.mark.parametrize(
        "command, cfg, key",
        [
            ("generate", {"game": {"T": 2, "seed": -1}}, "game/seed"),
            ("spsa", {"spsa": {"seed": -1}}, "spsa/seed"),
            ("dro", {"dro": {"seed": -1}}, "dro/seed"),
            ("mc", {"monte_carlo": {"base_seed": -1}}, "monte_carlo/base_seed"),
        ],
    )
    def test_negative_config_seed_exits_two_naming_the_key(self, tmp_path, capsys, command, cfg, key):
        path = tmp_path / "cfg.json"
        _write(path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid config: -1 is less than the minimum of 0" in err and f"(at {key})" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["generate", "spsa", "dro", "mc"])
    def test_negative_seed_flag_exits_two_before_any_work(self, tmp_path, capsys, command):
        path = tmp_path / "cfg.json"
        _write(path, {"game": {"T": 2}})
        out = tmp_path / "out"
        argv = [command, "--config", str(path), "--seed", "-1", "--out-dir", str(out)]
        assert main(argv) == 2
        assert f"{command} error: --seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


def _bundled_schema() -> dict:
    return json.loads(resources.files("pareto_forge").joinpath("schemas/config.schema.json").read_text())


def _write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


class TestValidatorAndParserReuse:
    def test_bundled_schema_passes_its_metaschema(self):
        schema = _bundled_schema()
        validator_for(schema).check_schema(schema)

    def test_schema_checked_and_parser_built_once_per_process(self, tmp_path, monkeypatch):
        cls = validator_for(_bundled_schema())
        check_schema = cls.check_schema
        checked, built = [], []
        monkeypatch.setattr(cls, "check_schema", lambda schema: checked.append(1) or check_schema(schema))
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        _config_validator.cache_clear()
        build_parser.cache_clear()
        cfg = _write(tmp_path / "cfg.json", {"game": {"T": 2}, "spsa": {"max_iters": 0}})
        out = str(tmp_path / "out")
        for command in ("spsa", "generate", "spsa"):
            assert main([command, "--config", cfg, "--out-dir", out]) == 0
        assert len(checked) == 1
        assert built.count("pareto-forge") == 1

    def test_invalid_config_after_valid_one_still_rejected(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        good = _write(tmp_path / "good.json", {"game": {"T": 2}})
        bad = _write(tmp_path / "bad.json", {"game": {"T": 0}})
        assert main(["generate", "--config", good, "--out-dir", out]) == 0
        capsys.readouterr()
        assert main(["generate", "--config", bad, "--out-dir", out]) == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "(at game/T)" in err
        assert main(["generate", "--config", good, "--out-dir", out]) == 0

    @pytest.mark.parametrize(
        "doc",
        [
            {"game": {"flux_capacitor": 1.21}},
            {"output": {"dir": "elsewhere"}},
            {"spsa": {"eta": 0.9}},
            {"game": {"N": 0}},
            {"game": {"theta0": [0.1, 0.2]}},
            {"dro": {"eps": [1.0, -1.0]}},
            {"monte_carlo": {"command": "audit"}},
            {"game": {"N": 1.5}, "spsa": {"a": -1, "theta_box": [[0, 1, 2]]}},
            [],
        ],
    )
    def test_config_errors_match_jsonschema_validate(self, tmp_path, capsys, doc):
        with pytest.raises(jsonschema.ValidationError) as info:
            jsonschema.validate(doc, _bundled_schema())
        err = info.value
        expected = f"invalid config: {err.message} (at {'/'.join(map(str, err.path))})"
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main(["generate", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == expected + "\n"

    def test_import_leaves_jsonschema_unloaded(self):
        assert _loaded_by_fresh_cli_import("jsonschema") == []

    def test_import_leaves_the_process_pool_unloaded(self):
        # mc runs its replications in the calling process
        assert _loaded_by_fresh_cli_import("concurrent", "multiprocessing") == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["spsa", "--tol", "5", "--max-iters", "0"],
            ["audit", "data.json", "--config", "cfg.json"],
            ["audit", "data.json", "--seed", "9"],
        ],
    )
    def test_flags_are_registered_only_where_read(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main([*argv, "--out-dir", str(tmp_path)])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestGenerateAndAudit:
    def test_generate_writes_dataset_and_manifest(self, tmp_path, gen_config):
        out = tmp_path / "out"
        assert main(["generate", "--config", str(gen_config), "--out-dir", str(out)]) == 0
        assert (out / "dataset.json").exists()
        manifest = json.loads((out / "manifest.json").read_text()) if (
            out / "manifest.json"
        ).exists() else json.loads((out / "generate_manifest.json").read_text())
        assert manifest["seed"] == 5
        assert "config_hash" in manifest

    def test_generate_is_byte_identical_per_seed(self, tmp_path, gen_config):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["generate", "--config", str(gen_config), "--out-dir", str(out1)]) == 0
        assert main(["generate", "--config", str(gen_config), "--out-dir", str(out2)]) == 0
        assert (out1 / "dataset.json").read_bytes() == (out2 / "dataset.json").read_bytes()

    def test_audit_consistent_dataset_exits_zero(self, tmp_path, gen_config):
        out = tmp_path / "out"
        main(["generate", "--config", str(gen_config), "--out-dir", str(out)])
        code = main(["audit", str(out / "dataset.json"), "--out-dir", str(out)])
        assert code == 0
        report = json.loads((out / "audit_report.json").read_text())
        assert report["consistent"] is True
        assert report["mm_garp"] is True
        assert report["pareto_gap"] <= report["tol"]

    def test_audit_violating_dataset_exits_one(self, tmp_path):
        d = violating_dataset(T=3, M=2, k=2, seed=1)
        path = tmp_path / "violating.json"
        save_dataset(d, path)
        code = main(["audit", str(path), "--out-dir", str(tmp_path)])
        assert code == 1
        report = json.loads((tmp_path / "audit_report.json").read_text())
        assert report["consistent"] is False
        assert report["mm_garp"] is False
        assert report["pareto_gap"] == pytest.approx(pareto_gap(d).gap)

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_audit_bad_tol_exits_two_without_a_report(self, tmp_path, capsys, tol):
        # json.dump would write NaN or Infinity, and inf would pass every gap
        path = tmp_path / "violating.json"
        save_dataset(violating_dataset(T=3, M=2, k=2, seed=1), path)
        out = tmp_path / "out"
        assert main(["audit", str(path), "--tol", tol, "--out-dir", str(out)]) == 2
        assert "--tol must be a finite number >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_audit_truncated_file_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"T": 2, "M": 1,')
        assert main(["audit", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "audit error" in capsys.readouterr().err

    def test_audit_nan_sample_exits_two(self, tmp_path, capsys):
        # json reads a bare NaN literal, so the dataset check must catch it
        path = tmp_path / "nan.json"
        save_dataset(violating_dataset(T=3, M=2, k=2, seed=1), path)
        doc = json.loads(path.read_text())
        doc["strategies"][1][0]["samples"][0][0] = float("nan")
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        assert main(["audit", str(path), "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "audit error" in err and "strategy (1,0)" in err

    @pytest.mark.parametrize("alpha", ["ab", [True, 1.0]])
    def test_audit_non_numeric_coefficient_exits_two_without_a_report(self, tmp_path, capsys, alpha):
        # "ab" has length k = 2; numpy raised TypeError on it and read true as 1.0
        path = tmp_path / "bad.json"
        save_dataset(violating_dataset(T=3, M=2, k=2, seed=1), path)
        doc = json.loads(path.read_text())
        doc["constraints"][1][0]["alpha"] = alpha
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["audit", str(path), "--out-dir", str(out)]) == 2
        assert "audit error: constraint (1,0) has a non-numeric coefficient" in capsys.readouterr().err
        assert not out.exists()

    def test_audit_huge_int_in_a_file_exits_two_without_a_report(self, tmp_path, capsys):
        # json reads 10**400 as an int too large to be a float; it raised OverflowError
        path = tmp_path / "huge.json"
        save_dataset(violating_dataset(T=3, M=2, k=2, seed=1), path)
        doc = json.loads(path.read_text())
        doc["constraints"][1][0]["b"] = 10**400
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["audit", str(path), "--out-dir", str(out)]) == 2
        assert "audit error: constraint (1,0) has a non-finite coefficient" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [("T", "8"), ("k", 3.0)])
    def test_audit_header_that_is_no_json_integer_exits_two_without_a_report(
        self, tmp_path, capsys, key, value
    ):
        # int() read both as the integer, so the file was audited
        path = tmp_path / "header.json"
        save_dataset(violating_dataset(T=8, M=3, k=3, seed=0), path)
        doc = json.loads(path.read_text())
        doc[key] = value
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["audit", str(path), "--out-dir", str(out)]) == 2
        assert f"audit error: dataset file key '{key}' is not an integer" in capsys.readouterr().err
        assert not out.exists()

    def test_audit_of_a_grid_without_agents_exits_two_without_a_report(self, tmp_path, capsys):
        # it printed "audit error: tuple index out of range"
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"T": 1, "M": 0, "k": 2, "constraints": [[]], "strategies": [[]]}))
        out = tmp_path / "out"
        assert main(["audit", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "audit error: constraints and strategies must be non-empty with equal T" in err
        assert not (out / "audit_report.json").exists()

    def test_audit_reports_undefined_ccei_as_null(self, tmp_path):
        # play 1.5 inside its own budget: gbar + 1 = -0.5, so CCEI is undefined
        path = tmp_path / "inside.json"
        d = RPDataset(
            ((ConstraintFunction((1.0,), 2.0),),),
            ((EmpiricalStrategy(np.array([[0.5]])),),),
        )
        save_dataset(d, path)
        assert main(["audit", str(path), "--out-dir", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "audit_report.json").read_text())
        assert report["ccei"] == [None]
        assert report["pareto_gap"] == pytest.approx(1.5, abs=1e-12)  # budget left unspent

    def test_audit_reports_each_agents_ccei(self, tmp_path):
        # agent 0 plays 1.5 inside its own budget (undefined); agent 1 is a budget reversal
        path = tmp_path / "mixed.json"
        reversal = (
            ConstraintFunction((2.0, 1.0), 1.0),
            ConstraintFunction((1.0, 2.0), 1.0),
        )
        d = RPDataset(
            tuple((ConstraintFunction((1.0, 1.0), 2.0), g) for g in reversal),
            tuple(
                (EmpiricalStrategy(np.array([[0.5, 0.0]])), EmpiricalStrategy(np.array([x])))
                for x in ([0.5, 0.0], [0.0, 0.5])
            ),
        )
        save_dataset(d, path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["audit", str(path), "--out-dir", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "audit_report.json").read_text())
        assert report["ccei"] == [None, rp.ccei_scalar(d, 1)]
        assert report["ccei"][1] == pytest.approx(0.5, abs=2e-4)

    def test_audit_makes_two_closures(self, tmp_path, monkeypatch):
        # one of -gbar for the gap and its certificates, and one of the slack and CCEI ratio
        # stacks together for mm_garp, garp_f_threshold and every CCEI
        calls = []
        close = rp._closure
        monkeypatch.setattr(rp, "_closure", lambda W: calls.append(W.shape) or close(W))
        path = tmp_path / "violating.json"
        save_dataset(violating_dataset(T=8, M=3, k=3, seed=2), path)
        assert main(["audit", str(path), "--out-dir", str(tmp_path)]) == 1
        assert calls == [(3, 8, 8), (6, 8, 8)]

    def test_audit_certificate_validation_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        # a certificate that does not validate must reach the user, never a report
        def bad_point(gbar_i, r):
            T = gbar_i.shape[0]
            return np.arange(T) * 100.0, np.ones(T)

        monkeypatch.setattr(rp, "_agent_certificate", bad_point)
        path = tmp_path / "violating.json"
        save_dataset(violating_dataset(T=3, M=2, k=2, seed=1), path)
        assert main(["audit", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "certificate failed validation" in capsys.readouterr().err
        assert not (tmp_path / "audit_report.json").exists()

    def test_audit_leaves_scipy_optimize_unloaded(self, tmp_path):
        # a fresh interpreter: this one has scipy.optimize loaded already
        path = tmp_path / "violating.json"
        save_dataset(violating_dataset(T=8, M=3, k=3, seed=2), path)
        argv = ["audit", str(path), "--out-dir", str(tmp_path)]
        code = (
            "import sys; from pareto_forge.cli import main; "
            f"c = main({argv!r}); print(c, 'scipy.optimize' in sys.modules)"
        )
        src = str(Path(pareto_forge.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert out.stdout.splitlines()[-1] == "1 False"

    def test_audit_t20_dataset_exits_one_with_valid_certificate(self, tmp_path):
        # this dataset once drove the LP bisection into a numerical failure (exit 2)
        path = tmp_path / "t20.json"
        save_dataset(violating_dataset(T=20, M=3, k=3, seed=3), path)
        assert main(["audit", str(path), "--out-dir", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "audit_report.json").read_text())
        cert = report["certificate"]
        cert = ParetoCertificate(np.array(cert["u"]), np.array(cert["lam"]), cert["r"], cert["alpha"])
        assert cert.validates(load_dataset(path))
        assert cert.r >= report["pareto_gap"] > report["tol"]


class TestSpsaCommand:
    def test_zero_iterations_writes_manifest_only(self, tmp_path):
        out = tmp_path / "out"
        code = main(["spsa", "--max-iters", "0", "--seed", "1", "--out-dir", str(out)])
        assert code == 0
        manifest = json.loads((out / "spsa_manifest.json").read_text())
        assert manifest["iterations"] == 0
        assert manifest["final_loss"] is None
        assert not (out / "spsa_trace.csv").exists()

    def test_negative_iterations_rejected_writing_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["spsa", "--max-iters", "-3", "--out-dir", str(out)]) == 2
        assert "max_iters must be >= 0, got -3" in capsys.readouterr().err
        assert not out.exists()

    def test_run_writes_trace_and_manifest(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"spsa": {"max_iters": 3, "seed": 2}}))
        code = main(["spsa", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 0
        with open(out / "spsa_trace.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:2] == ["n", "loss"]
        assert len(rows) >= 2
        manifest = json.loads((out / "spsa_manifest.json").read_text())
        assert manifest["iterations"] == len(rows) - 1

    def test_seed_flag_overrides_the_config_seed(self, tmp_path):
        out = tmp_path / "out"
        cfg = _write(tmp_path / "cfg.json", {"spsa": {"seed": 5, "max_iters": 1}})
        assert main(["spsa", "--config", cfg, "--seed", "2", "--out-dir", str(out)]) == 0
        assert json.loads((out / "spsa_manifest.json").read_text())["seed"] == 2

    def test_config_seed_reaches_the_tuner(self, tmp_path, monkeypatch):
        seen = []
        run = experiments.run_river_spsa
        monkeypatch.setattr("pareto_forge.cli.run_river_spsa", lambda cfg, **kw: seen.append(cfg.seed) or run(cfg, **kw))
        out = tmp_path / "out"
        cfg = _write(tmp_path / "cfg.json", {"spsa": {"seed": 7, "max_iters": 1, "T": 3}})
        assert main(["spsa", "--config", cfg, "--out-dir", str(out)]) == 0
        assert seen == [7]
        assert json.loads((out / "spsa_manifest.json").read_text())["seed"] == 7

    def test_certificate_validation_failure_exits_two(self, tmp_path, capsys, monkeypatch):
        # the tuner retries only Nash failures, so a bad gap certificate reaches the user
        def bad_point(gbar_i, r):
            T = gbar_i.shape[0]
            return np.arange(T) * 100.0, np.ones(T)

        monkeypatch.setattr(rp, "_agent_certificate", bad_point)
        out = tmp_path / "out"
        cfg = _write(tmp_path / "cfg.json", {"spsa": {"seed": 1, "max_iters": 1, "T": 3}})
        assert main(["spsa", "--config", cfg, "--out-dir", str(out)]) == 2
        assert "certificate failed validation" in capsys.readouterr().err
        assert not (out / "spsa_manifest.json").exists()

    def test_max_iters_flag_applies_to_its_call_only(self, tmp_path, monkeypatch):
        seen = []
        run = experiments.run_river_spsa
        monkeypatch.setattr(
            "pareto_forge.cli.run_river_spsa", lambda cfg, **kw: seen.append(cfg.max_iters) or run(cfg, **kw)
        )
        out = tmp_path / "out"
        cfg = _write(tmp_path / "cfg.json", {"spsa": {"max_iters": 2, "T": 3}})
        assert main(["spsa", "--config", cfg, "--max-iters", "0", "--out-dir", str(out)]) == 0
        assert main(["spsa", "--config", cfg, "--out-dir", str(out)]) == 0
        assert seen == [2]
        assert json.loads((out / "spsa_manifest.json").read_text())["iterations"] >= 1


    @pytest.mark.parametrize("command", ["spsa", "mc"])
    def test_short_theta0_exits_two(self, tmp_path, capsys, command):
        # one value used to be broadcast to all seven coordinates
        out = tmp_path / "out"
        cfg = _write(
            tmp_path / "cfg.json",
            {"monte_carlo": {"replications": 1}, "spsa": {"theta0": [0.2]}},
        )
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
        assert "theta0 must have shape (7,)" in capsys.readouterr().err
        assert not (out / "spsa_manifest.json").exists()
        assert not (out / "mc_spsa.csv").exists()


class TestDroCommand:
    def test_traces_per_radius(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "dro": {
                        "eps": [0.5],
                        "delta": 0.5,
                        "T": 3,
                        "M": 2,
                        "N": 2,
                        "seed": 0,
                        "max_exchange_iters": 10,
                    }
                }
            )
        )
        code = main(["dro", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 0
        with open(out / "dro_trace_eps_0p5.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "max_cv", "master_objective", "n_cuts_total"]
        assert len(rows) >= 2
        manifest = json.loads((out / "dro_manifest.json").read_text())
        assert "0.5" in manifest["results"]

    @pytest.mark.parametrize(
        "block, field",
        [
            ({"lambda_hat": 5, "lam_max": 1}, "lam_max"),
            ({"lambda_hat": 0.5, "lam_max": float("nan")}, "lam_max"),
        ],
    )
    def test_bad_lambda_box_exits_two_naming_the_field(self, tmp_path, capsys, block, field):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"dro": {"eps": [1.0], "T": 2, "M": 1, "N": 2, **block}}))
        assert main(["dro", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert field in err
        assert "high - low" not in err

    @pytest.mark.parametrize("radii", [[0.5, 0.5], [1, 1.0], [0, 0.0]])
    def test_repeated_radius_exits_two_without_output(self, tmp_path, capsys, radii):
        # one radius given twice would run twice and write one trace file over the other
        out = tmp_path / "out"
        cfg = _write(tmp_path / "cfg.json", {"dro": {"eps": radii, "T": 2, "M": 1, "N": 2}})
        assert main(["dro", "--config", cfg, "--out-dir", str(out)]) == 2
        assert "non-unique" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["dro", "mc"])
    def test_retired_use_paper_v_key_exits_two_without_output(self, tmp_path, capsys, command):
        # V is always 2·U_BOUND/λ̂ + G; the schema no longer has the key that dropped G
        out = tmp_path / "out"
        doc = {"dro": {"eps": [1.0], "T": 2, "M": 1, "N": 2, "use_paper_v": True}}
        if command == "mc":
            doc["monte_carlo"] = {"command": "dro", "replications": 1}
        cfg = _write(tmp_path / "cfg.json", doc)
        assert main([command, "--config", cfg, "--out-dir", str(out)]) == 2
        assert "'use_paper_v' was unexpected" in capsys.readouterr().err
        assert not out.exists()


def _record_play(monkeypatch) -> list:
    """Record (θ, cap, horizon) of every river game the experiments play."""
    played = []
    collect = experiments.collect_dataset

    def recording(game, probes, **kwargs):
        played.append((game.theta.copy(), game.cap, len(probes)))
        return collect(game, probes, **kwargs)

    monkeypatch.setattr(experiments, "collect_dataset", recording)
    return played


class TestMonteCarloCommand:
    def test_spsa_replications_csv(self, tmp_path):
        out = tmp_path / "out"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "monte_carlo": {
                        "command": "spsa",
                        "replications": 2,
                        "base_seed": 0,
                    },
                    "spsa": {"max_iters": 2},
                    "game": {"T": 3},
                }
            )
        )
        code = main(["mc", "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 0
        with open(out / "mc_spsa.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["replication", "seed", "iterations", "final_loss"]
        assert len(rows) == 3
        manifest = json.loads((out / "mc_manifest.json").read_text())
        assert set(manifest["summary"]) == {"mean_iterations", "success_rate"}

    def test_spsa_replications_read_the_spsa_block_like_spsa(self, tmp_path, monkeypatch):
        # game.T is the generate horizon; the tuner's T comes from the spsa block
        played = _record_play(monkeypatch)
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "monte_carlo": {"command": "spsa", "replications": 1},
                "spsa": {"T": 4, "max_iters": 1},
                "game": {"T": 7, "cap": 50.0, "seed": 3},
            },
        )
        assert main(["mc", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        assert played
        assert {(cap, horizon) for _theta, cap, horizon in played} == {(50.0, 4)}

    def test_spsa_replications_start_from_the_configured_theta0(self, tmp_path, monkeypatch):
        # as in the spsa command, a configured theta0 replaces the random start
        played = _record_play(monkeypatch)
        theta0 = [0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6]
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "monte_carlo": {"command": "spsa", "replications": 2},
                "spsa": {"T": 3, "max_iters": 1, "theta0": theta0},
            },
        )
        assert main(["mc", "--config", cfg, "--out-dir", str(tmp_path / "out")]) == 0
        # each replication first plays at theta0; its perturbed plays lie off it
        np.testing.assert_array_equal(played[0][0], theta0)
        assert sum(np.array_equal(theta, theta0) for theta, _cap, _horizon in played) == 2

    def test_spsa_seed_is_rejected(self, tmp_path, capsys):
        # replications are seeded from monte_carlo.base_seed; a spsa.seed would be ignored
        out = tmp_path / "out"
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "monte_carlo": {"command": "spsa", "replications": 1},
                "spsa": {"T": 3, "max_iters": 1, "seed": 7},
            },
        )
        assert main(["mc", "--config", cfg, "--out-dir", str(out)]) == 2
        assert "monte_carlo.base_seed" in capsys.readouterr().err
        assert not (out / "mc_spsa.csv").exists()

    def test_dro_seed_is_rejected(self, tmp_path, capsys):
        # as for spsa.seed: dro replications are seeded from monte_carlo.base_seed
        out = tmp_path / "out"
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "monte_carlo": {"command": "dro", "replications": 1},
                "dro": {"eps": [1.0], "T": 2, "M": 1, "N": 2, "seed": 7},
            },
        )
        assert main(["mc", "--config", cfg, "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "dro.seed" in err and "monte_carlo.base_seed" in err
        assert not (out / "mc_dro.csv").exists()

    def test_dro_replications_use_the_dro_block(self, tmp_path):
        # the block's max_exchange_iters (and lambda box) reach every replication
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "monte_carlo": {"command": "dro", "replications": 2},
                    "dro": {
                        "eps": [1.0],
                        "delta": 1e-6,
                        "T": 3,
                        "M": 2,
                        "N": 2,
                        "max_exchange_iters": 1,
                    },
                }
            )
        )
        out = tmp_path / "out"
        assert main(["mc", "--config", str(cfg_path), "--out-dir", str(out)]) == 0
        with open(out / "mc_dro.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["iterations"] for r in rows] == ["1", "1"]
        assert [r["certified"] for r in rows] == ["False", "False"]

    def test_bad_dro_block_exits_two(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "monte_carlo": {"command": "dro", "replications": 1},
                    "dro": {"lambda_hat": 5, "lam_max": 1},
                }
            )
        )
        assert main(["mc", "--config", str(cfg_path), "--out-dir", str(tmp_path / "out")]) == 2
        assert "lam_max" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"monte_carlo": {"replications": 1}, "spsa": {"theta_box": [[0.0, 1.0]] * 2}}, "must have 7 rows"),
            ({"monte_carlo": {"command": "dro", "replications": 1}, "dro": {"lambda_hat": 5, "lam_max": 1}}, "lam_max"),
        ],
        ids=["spsa", "dro"],
    )
    def test_block_rejected_at_play_time_exits_two_without_an_out_dir(self, tmp_path, capsys, doc, message):
        # the schema accepts both blocks; the out-dir is made only once the replications return
        out = tmp_path / "out"
        assert main(["mc", "--config", _write(tmp_path / "cfg.json", doc), "--out-dir", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("radii", [[0.5, 0.5], [1, 1.0], [0, 0.0]])
    def test_repeated_dro_radius_exits_two_without_output(self, tmp_path, capsys, radii):
        out = tmp_path / "out"
        cfg = _write(
            tmp_path / "cfg.json",
            {
                "monte_carlo": {"command": "dro", "replications": 1},
                "dro": {"eps": radii, "T": 2, "M": 1, "N": 2},
            },
        )
        assert main(["mc", "--config", cfg, "--out-dir", str(out)]) == 2
        assert "non-unique" in capsys.readouterr().err
        assert not out.exists()

    def test_reruns_are_reproducible(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "monte_carlo": {"command": "spsa", "replications": 2},
                    "spsa": {"max_iters": 2},
                    "game": {"T": 3},
                }
            )
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["mc", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
        assert main(["mc", "--config", str(cfg_path), "--out-dir", str(out2)]) == 0
        assert (out1 / "mc_spsa.csv").read_bytes() == (out2 / "mc_spsa.csv").read_bytes()


# every default the README documents for the blocks each command reads
_RIVER_GAME = {"d1": 3.0, "delta": [[0.9, 0.1], [0.6, 0.4], [0.2, 0.8]], "cap": 100.0, "N": 1, "jitter": 0.0}
DOCUMENTED_DEFAULTS = {
    "generate": {
        "game": {**_RIVER_GAME, "theta0": [0.5, 0.3, 0.4, 0.5, 0.2, 0.3, 0.4], "T": 10, "seed": 0},
    },
    "spsa": {
        "spsa": {
            "a": 0.5,
            "c": 0.5,
            "q": 0.001,
            "eta": 0.25,
            "theta_box": [[0.0, 1.0]] * 7,
            "T": 10,
            "max_iters": 30,
            "stop_tol": 1e-5,
            "seed": 0,
        },
        "game": _RIVER_GAME,
    },
    "dro": {
        "dro": {
            "eps": [0.001, 1.0, 10.0],
            "delta": 0.1,
            "T": 5,
            "M": 3,
            "N": 5,
            "jitter": 0.05,
            "lambda_hat": 1.0,
            "lam_max": 10.0,
            "max_exchange_iters": 60,
            "seed": 0,
        },
    },
}


class TestDocumentedDefaults:
    @staticmethod
    def _outputs(out: Path) -> dict:
        """Every output file, manifests without the echoed config and its hash."""
        files = {}
        for path in sorted(out.iterdir()):
            if path.name.endswith("_manifest.json"):
                manifest = json.loads(path.read_text())
                del manifest["config"], manifest["config_hash"]
                files[path.name] = manifest
            else:
                files[path.name] = path.read_bytes()
        return files

    @pytest.mark.parametrize("command", sorted(DOCUMENTED_DEFAULTS))
    def test_empty_config_runs_the_documented_defaults(self, tmp_path, command):
        # a default that drifts between the layers that pass it on fails here;
        # --max-iters keeps the tuning run short (it overrides spsa.max_iters)
        flags = ["--max-iters", "2"] if command == "spsa" else []
        outputs = []
        for name, doc in (("empty", {}), ("documented", DOCUMENTED_DEFAULTS[command])):
            out = tmp_path / name
            cfg = _write(tmp_path / f"{name}.json", doc)
            assert main([command, "--config", cfg, *flags, "--out-dir", str(out)]) == 0
            outputs.append(self._outputs(out))
        assert len(outputs[0]) >= 2
        assert outputs[0] == outputs[1]
