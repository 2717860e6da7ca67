"""End-to-end tests of the command-line harness (in-process, via main)."""

from __future__ import annotations

import csv
import json
import os

import numpy as np
import pytest

from pareto_forge.cli import main
from pareto_forge.core import (
    ConstraintFunction,
    EmpiricalStrategy,
    Family,
    ParetoCertificate,
    RPDataset,
    load_dataset,
    save_dataset,
)
from pareto_forge.experiments import default_parallelism
from pareto_forge.rp import pareto_gap
from pareto_forge.synthetic import violating_dataset


@pytest.fixture
def gen_config(tmp_path):
    cfg = {"game": {"T": 3, "seed": 5, "theta0": [0.5, 0.3, 0.4, 0.5, 0.2, 0.3, 0.4]}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


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

    def test_malformed_json_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{"game": {')
        assert main(["generate", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
        assert "cannot read config" in capsys.readouterr().err


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

    def test_audit_reports_undefined_ccei_as_null(self, tmp_path):
        # play 1.5 inside its own budget: gbar + 1 = -0.5, so CCEI is undefined
        path = tmp_path / "inside.json"
        d = RPDataset(
            ((ConstraintFunction(Family.AFFINE, 1, alpha=(1.0,), b=2.0),),),
            ((EmpiricalStrategy(np.array([[0.5]])),),),
        )
        save_dataset(d, path)
        assert main(["audit", str(path), "--out-dir", str(tmp_path)]) == 1
        report = json.loads((tmp_path / "audit_report.json").read_text())
        assert report["ccei"] == [None]
        assert report["pareto_gap"] == pytest.approx(1.5, abs=1e-12)  # budget left unspent

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
                        "parallelism": 1,
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

    def test_reruns_are_reproducible(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "monte_carlo": {"command": "spsa", "replications": 2, "parallelism": 1},
                    "spsa": {"max_iters": 2},
                    "game": {"T": 3},
                }
            )
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["mc", "--config", str(cfg_path), "--out-dir", str(out1)]) == 0
        assert main(["mc", "--config", str(cfg_path), "--out-dir", str(out2)]) == 0
        assert (out1 / "mc_spsa.csv").read_bytes() == (out2 / "mc_spsa.csv").read_bytes()


class TestDefaultParallelism:
    def test_positive_value_is_used(self, monkeypatch):
        monkeypatch.setenv("PARETO_FORGE_THREADS", "2")
        assert default_parallelism() == 2

    @pytest.mark.parametrize("value", ["0", "junk"])
    def test_invalid_value_names_the_variable(self, monkeypatch, value):
        monkeypatch.setenv("PARETO_FORGE_THREADS", value)
        with pytest.raises(ValueError, match="PARETO_FORGE_THREADS must be a positive integer"):
            default_parallelism()

    def test_falls_back_to_cpu_count_without_affinity(self, monkeypatch):
        monkeypatch.delenv("PARETO_FORGE_THREADS", raising=False)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        assert default_parallelism() == (os.cpu_count() or 1)
