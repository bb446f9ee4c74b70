import hashlib
import json
import subprocess
import sys
from collections import Counter

import pytest

from dunkl_lab.cli import main
from dunkl_lab.config import (
    apply_override,
    assemble,
    load_run_config,
    parse_override,
    validate_document,
)
from dunkl_lab.errors import ConfigError


def base_doc(**overrides):
    doc = {
        "system": {"type": "B", "n": 2},
        "k": 1.0,
        "x0": [2.0, 1.0],
        "sim": {"T": 0.2, "dt": 0.002, "paths": 20, "seed": 9},
    }
    doc.update(overrides)
    return doc


def write_cfg(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConfig:
    def test_valid_document(self):
        validate_document(base_doc())

    def test_unknown_key_rejected_with_pointer(self):
        with pytest.raises(ConfigError) as err:
            validate_document(base_doc(bogus=1))
        assert "bogus" in str(err.value)
        # the wall rule and the engine's tolerances are not settings
        for key, value in (("wall_policy", "stop_at_t0"), ("max_halvings", 3),
                           ("eps_wall", 1e-6)):
            doc = base_doc()
            doc["sim"][key] = value
            with pytest.raises(ConfigError) as err:
                validate_document(doc)
            assert key in str(err.value) and err.value.pointer == "/sim"

    def test_nested_pointer(self):
        doc = base_doc()
        doc["sim"]["paths"] = -1
        with pytest.raises(ConfigError) as err:
            validate_document(doc)
        assert err.value.pointer == "/sim/paths"

    def test_semantic_checks(self):
        doc = base_doc()
        doc["x0"] = [1.0, 2.0, 3.0]
        with pytest.raises(ConfigError) as err:
            assemble(doc)
        assert err.value.pointer == "/x0"
        doc = base_doc(enumeration=[0, 1])
        with pytest.raises(ConfigError):
            assemble(doc)

    def test_custom_system(self):
        doc = base_doc()
        doc["system"] = {"type": "custom",
                         "roots": [[1, 0], [-1, 0], [0, 1], [0, -1],
                                   [1, 1], [-1, -1], [1, -1], [-1, 1]]}
        cfg = assemble(doc)
        assert cfg.system.n_positive == 4

    def test_custom_requires_roots(self):
        doc = base_doc()
        doc["system"] = {"type": "custom"}
        with pytest.raises(ConfigError) as err:
            assemble(doc)
        assert err.value.pointer == "/system/roots"

    def test_overrides(self):
        doc = base_doc()
        key, value = parse_override("sim.paths=55")
        apply_override(doc, key, value)
        assert doc["sim"]["paths"] == 55
        key, value = parse_override("k=[0.5,1.5]")
        apply_override(doc, key, value)
        assert doc["k"] == [0.5, 1.5]

    def test_k_per_orbit(self, tmp_path):
        cfg = load_run_config(write_cfg(tmp_path, base_doc(k=[0.5, 1.5])))
        assert cfg.k.by_orbit == (0.5, 1.5)


class TestCommands:
    def test_describe_b2(self, capsys):
        rc = main(["describe", "--system", "B", "--n", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "Weyl group order: 8" in out
        assert out.count("true") == 4

    def test_describe_a3_has_false_entry(self, capsys):
        rc = main(["describe", "--system", "A", "--n", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "false" in out

    def test_radial_subcommand_writes_csv(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        doc = base_doc(output={"path": str(out_path), "format": "csv"})
        rc = main(["simulate-radial", "--config", write_cfg(tmp_path, doc)])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["paths"] == 20
        header = out_path.read_text().splitlines()[0]
        assert header == "path_id,t,x_1,x_2,event"

    def test_radial_subcommand_set_override(self, tmp_path, capsys):
        doc = base_doc()
        rc = main(["simulate-radial", "--config", write_cfg(tmp_path, doc),
                   "--set", "sim.paths=5"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["paths"] == 5

    def test_simulate_dunkl_modes(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        doc = base_doc(output={"path": str(out_path), "format": "csv"})
        doc["sim"]["T"] = 1.0
        doc["sim"]["paths"] = 60
        rc = main(["simulate-dunkl", "--config", write_cfg(tmp_path, doc),
                   "--mode", "auto"])
        assert rc == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["modes"] == ["shortcut"] * 4
        assert summary["total_jumps"] > 0
        text = out_path.read_text()
        assert "jump:" in text
        per_path = Counter(row.split(",")[0] for row in text.splitlines()
                           if ",jump:" in row)
        assert summary["max_jumps_path"] == max(per_path.values())

    def test_byte_identical_replay(self, tmp_path, capsys):
        outputs = []
        for name in ("a.csv", "b.csv"):
            out_path = tmp_path / name
            doc = base_doc(output={"path": str(out_path), "format": "csv"})
            rc = main(["simulate-dunkl", "--config",
                       write_cfg(tmp_path, doc, f"cfg_{name}.json")])
            assert rc == 0
            capsys.readouterr()
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]

    def test_env_seed_override(self, tmp_path, capsys, monkeypatch):
        doc = base_doc()
        path = write_cfg(tmp_path, doc)
        rc = main(["simulate-radial", "--config", path])
        base_out = json.loads(capsys.readouterr().out)
        monkeypatch.setenv("DUNKL_LAB_SEED", "12345")
        rc = main(["simulate-radial", "--config", path])
        env_out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert base_out["mean_sq_norm_T"] != env_out["mean_sq_norm_T"]

    def test_bad_config_exit_code(self, tmp_path, capsys):
        doc = base_doc(bogus=1)
        rc = main(["simulate-radial", "--config", write_cfg(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert "bogus" in err

    def test_negative_threads_exit_code(self, tmp_path, capsys):
        rc = main(["simulate-radial", "--config", write_cfg(tmp_path, base_doc()),
                   "--threads", "-1"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "threads" in err

    def test_infinite_horizon_exit_code(self, tmp_path, capsys):
        rc = main(["simulate-radial", "--config", write_cfg(tmp_path, base_doc()),
                   "--set", "sim.T=Infinity"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: /sim: ")

    def test_verify_harmonic(self, capsys):
        rc = main(["verify-harmonic", "--system", "B", "--n", "2",
                   "--k", "1.0,0.5", "--points", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "harmonic-delta_bar" in out
        assert "FAIL" not in out

    def test_export_plot_data(self, tmp_path, capsys):
        out_path = tmp_path / "traj.csv"
        doc = base_doc(output={"path": str(out_path), "format": "csv"})
        doc["sim"]["paths"] = 30
        main(["simulate-dunkl", "--config", write_cfg(tmp_path, doc)])
        capsys.readouterr()
        summary_path = tmp_path / "summary.csv"
        rc = main(["export-plot-data", "--in", str(out_path),
                   "--out", str(summary_path), "--bins", "5"])
        assert rc == 0
        lines = summary_path.read_text().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("t_lo,t_hi,count,jumps")

    @pytest.mark.parametrize("bins", ["0", "-2"])
    def test_export_plot_data_rejects_bins_below_one(self, tmp_path, capsys, bins):
        out_path = tmp_path / "traj.csv"
        doc = base_doc(output={"path": str(out_path), "format": "csv"})
        main(["simulate-radial", "--config", write_cfg(tmp_path, doc)])
        capsys.readouterr()
        summary_path = tmp_path / "summary.csv"
        rc = main(["export-plot-data", "--in", str(out_path),
                   "--out", str(summary_path), "--bins", bins])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "--bins" in err
        assert not summary_path.exists()

    def test_export_plot_data_reports_unreadable_input(self, tmp_path, capsys):
        empty, header_only = tmp_path / "empty.csv", tmp_path / "header.csv"
        empty.write_text("")
        header_only.write_text("path_id,t,x_1,x_2,event\n")
        for path, words in ((tmp_path / "missing.csv", "cannot read"),
                            (empty, "bad header"), (header_only, "no rows")):
            summary_path = tmp_path / "summary.csv"
            rc = main(["export-plot-data", "--in", str(path),
                       "--out", str(summary_path)])
            err = capsys.readouterr().err
            assert rc == 2
            assert err.startswith("error:") and words in err
            assert not summary_path.exists()

    def test_entry_point_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "dunkl_lab.cli", "describe",
             "--system", "A", "--n", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "Weyl group order: 6" in proc.stdout


class TestVerifySuiteCommand:
    # SHA-256 of the suite's reports, runtimes removed, as sorted-key JSON
    QUICK_SUITE_SHA256 = (
        "744b5f3f2504da4000fe99c3ceaebbd0771f7d0ece71bf6b42910ca570cf6a5f")

    def test_quick_suite(self, tmp_path, capsys):
        """Very small sizes: the wiring, not the statistics.

        The digest pins all 33 reports (names, order, estimates, verdicts
        and details; only ``runtime`` is free), including the one check
        that fails at this size: projection-agreement.
        A deliberate change to the reproducibility contract or to a check
        updates it and says so in CHANGES.md; anything else that moves it
        is a regression.
        """
        doc = base_doc()
        doc["sim"] = {"T": 0.5, "dt": 0.005, "paths": 400, "seed": 314}
        rc = main(["verify-suite", "--config", write_cfg(tmp_path, doc)])
        out = capsys.readouterr().out
        assert "martingale" in out
        assert "wall-profile" in out
        json_start = out.index("[")
        parsed = json.loads(out[json_start:])
        assert any(r["name"] == "projection-agreement" for r in parsed)
        assert rc in (0, 1)
        assert len(parsed) == 33
        for r in parsed:
            r.pop("runtime")
        digest = hashlib.sha256(json.dumps(parsed, sort_keys=True).encode())
        assert digest.hexdigest() == self.QUICK_SUITE_SHA256
