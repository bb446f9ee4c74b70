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

    @pytest.mark.parametrize("text, pointer", [
        ("x0.5=3", "/x0/5"),
        ("x0.-1=3", "/x0/-1"),
        ("x0.a=3", "/x0/a"),
        ("x0.0.1=3", "/x0/0/1"),
        ("system.type.foo=1", "/system/type/foo"),
    ])
    def test_override_that_does_not_fit(self, tmp_path, capsys, text, pointer):
        doc = base_doc()
        with pytest.raises(ConfigError) as err:
            apply_override(doc, *parse_override(text))
        assert err.value.pointer == pointer
        assert doc == base_doc()
        rc = main(["simulate-radial", "--config", write_cfg(tmp_path, doc), "--set", text])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {pointer}: ")

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

    @pytest.mark.parametrize("system, n, k, reports", [
        ("B", "2", "1.0,0.5", 4),
        # B4 and A6: rejection sampling of the chamber gave up; rank one: π
        # is linear, and its difference Laplacian read NaN over a zero scale
        ("B", "4", "1", 3), ("A", "7", "1", 3), ("A", "2", "1", 3),
        # k ≡ ½: δ ≡ 1, whose residual 0 over a zero scale read NaN
        ("B", "2", "0.5", 4),
    ], ids=["b2", "b4", "a6", "rank1", "b2-half"])
    def test_verify_harmonic(self, capsys, system, n, k, reports):
        rc = main(["verify-harmonic", "--system", system, "--n", n, "--k", k,
                   "--points", "25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("PASS") == reports and "FAIL" not in out
        assert ("harmonic-delta_bar" in out) == (reports == 4)

    @pytest.mark.parametrize("k", ["abc", "1,"])
    def test_verify_harmonic_rejects_a_malformed_k(self, capsys, k):
        rc = main(["verify-harmonic", "--system", "B", "--n", "2", "--k", k])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:") and "--k" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_verify_harmonic_rejects_points_below_one(self, capsys, points):
        rc = main(["verify-harmonic", "--system", "B", "--n", "2", "--k", "1.0",
                   "--points", points])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err.startswith("error:") and "n_points" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("where", ["flag", "env"])
    def test_verify_harmonic_rejects_a_negative_seed(self, capsys, monkeypatch, where):
        argv = ["verify-harmonic", "--system", "B", "--n", "2", "--k", "1.0", "--points", "5"]
        if where == "flag":
            argv += ["--seed", "-1"]
        else:
            monkeypatch.setenv("DUNKL_LAB_SEED", "-1")
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "seed" in err

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

    @pytest.mark.parametrize("out, words", [("missing/s.csv", "does not exist"),
                                            (".", "is a directory")])
    def test_export_plot_data_refuses_an_unwritable_output(self, tmp_path, capsys,
                                                          out, words):
        out_path = tmp_path / "traj.csv"
        doc = base_doc(output={"path": str(out_path), "format": "csv"})
        main(["simulate-radial", "--config", write_cfg(tmp_path, doc)])
        capsys.readouterr()
        rc = main(["export-plot-data", "--in", str(out_path), "--out", str(tmp_path / out)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and words in err

    def test_export_plot_data_reports_a_malformed_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("path_id,t,x_1,x_2,event\n0,0.0,2,1,\nabc,0.1,1,2,\n")
        rc = main(["export-plot-data", "--in", str(bad), "--out", str(tmp_path / "s.csv")])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "line 3" in err

    # SHA-256 of export-plot-data's output, as binned path by path and bin by
    # bin before the one-pass binning
    EXPORT_PINNED = {
        "b2": "2c32626f9cffb7de19f3ebf89aa95987cf20e3f184608c4997165d7c3a31918a",
        "interleaved": "4d83274d94a1ae314a3166378f52d92cf5e32eaab4d84ad542217db9af5352ae",
    }
    # path 0's rows come before and after path 1's; a bin concatenates its
    # rows in the reader's path order, so bin 0's mean_x_1 is ((0.1 + 0.7) + 0.3)/3,
    # not ((0.1 + 0.3) + 0.7)/3, and the row at t = −0.25 falls in no bin
    INTERLEAVED = ("path_id,t,x_1,x_2,event\n0,0,0.1,1,\n1,0,0.3,0.5,\n0,0.25,0.7,2,\n"
                   "1,-0.25,9,9,\n1,0.5,0.75,0.125,jump:1\n0,0.5,3,0.25,\n"
                   "0,0.75,-3,0.25,jump:3\n1,1,0.5,0.25,T0\n")

    @pytest.mark.parametrize("case", EXPORT_PINNED)
    def test_export_plot_data_bytes_are_pinned(self, tmp_path, capsys, case):
        in_path, out_path = tmp_path / "traj.csv", tmp_path / "summary.csv"
        if case == "b2":
            doc = base_doc(output={"path": str(in_path), "format": "csv"})
            assert main(["simulate-dunkl", "--config", write_cfg(tmp_path, doc)]) == 0
            bins = "5"
        else:
            in_path.write_text(self.INTERLEAVED)
            bins = "2"
        rc = main(["export-plot-data", "--in", str(in_path), "--out", str(out_path),
                   "--bins", bins])
        assert rc == 0
        digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        assert digest == self.EXPORT_PINNED[case]
        if case == "interleaved":
            lines = out_path.read_text().splitlines()
            assert lines[1].split(",")[2:7] == ["3", "0", "0", "1.9466666666666665",
                                                "0.36666666666666664"]
            assert lines[2].split(",")[2:5] == ["4", "2", "1"]

    @pytest.mark.parametrize("bad", ["0,nan,2,1,", "0,0.2,2,inf,"],
                             ids=["nan-time", "inf-coordinate"])
    def test_export_plot_data_refuses_a_value_that_is_not_finite(self, tmp_path, capsys, bad):
        in_path, out_path = tmp_path / "traj.csv", tmp_path / "summary.csv"
        in_path.write_text(f"path_id,t,x_1,x_2,event\n0,0,2,1,\n0,0.1,2,1,\n{bad}\n")
        rc = main(["export-plot-data", "--in", str(in_path), "--out", str(out_path)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "line 4: a value is not finite" in err
        assert not out_path.exists()

    @pytest.mark.parametrize("command", ["simulate-radial", "simulate-dunkl"])
    def test_csv_output_builds_no_trajectories(self, tmp_path, capsys, monkeypatch, command):
        from dunkl_lab import radial

        def no_objects(run):
            raise AssertionError("built Trajectory objects")

        monkeypatch.setattr(radial, "_trajectories_from_engine", no_objects)
        out_path = tmp_path / "traj.csv"
        doc = base_doc(output={"path": str(out_path), "format": "csv"})
        assert main([command, "--config", write_cfg(tmp_path, doc)]) == 0
        assert out_path.read_text().startswith("path_id,t,x_1,x_2,event\n")

    @pytest.mark.parametrize("command", ["simulate-radial", "simulate-dunkl"])
    def test_summary_does_not_depend_on_the_output(self, tmp_path, capsys, command):
        summaries = []
        for output in (None, {"path": str(tmp_path / "traj.csv"), "format": "csv"}):
            doc = base_doc() if output is None else base_doc(output=output)
            assert main([command, "--config", write_cfg(tmp_path, doc)]) == 0
            summaries.append(json.loads(capsys.readouterr().out))
        assert summaries[0].pop("output") is None
        assert summaries[1].pop("output") == str(tmp_path / "traj.csv")
        assert summaries[0] == summaries[1]

    def test_paths_are_recorded_only_for_an_output(self, tmp_path, capsys, monkeypatch):
        import dunkl_lab.cli as cli

        seen = []
        for name in ("run_radial", "simulate_dunkl"):
            def spy(*args, _fn=getattr(cli, name), **kwargs):
                seen.append((_fn.__name__, kwargs["record"]))
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cli, name, spy)
        for output in (None, {"path": str(tmp_path / "traj.csv"), "format": "csv"}):
            doc = base_doc() if output is None else base_doc(output=output)
            for command in ("simulate-radial", "simulate-dunkl"):
                assert main([command, "--config", write_cfg(tmp_path, doc)]) == 0
        assert seen == [("run_radial", False), ("simulate_dunkl", False),
                        ("run_radial", True), ("simulate_dunkl", True)]

    @pytest.mark.parametrize("command", ["simulate-radial", "simulate-dunkl"])
    def test_output_in_a_missing_directory_is_refused_first(self, tmp_path, capsys,
                                                            monkeypatch, command):
        import dunkl_lab.cli as cli

        def no_run(*args, **kwargs):
            raise AssertionError("simulated before checking the output")

        monkeypatch.setattr(cli, "run_radial", no_run)
        monkeypatch.setattr(cli, "simulate_dunkl", no_run)
        doc = base_doc(output={"path": str(tmp_path / "missing" / "x.csv"), "format": "csv"})
        rc = main([command, "--config", write_cfg(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "missing" in err
        doc["output"]["path"] = str(tmp_path)
        rc = main([command, "--config", write_cfg(tmp_path, doc)])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error:") and "is a directory" in err

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
        "c317c472d230bd87593e714c1bda254fb9264bf4c91f2137b25407fbea23dedb")
    # Lifted runs appear only in the label law and the ridge martingale
    # functions: their norm, projection and W-invariant functions are the
    # radial run's (π(X_t) = Z_t).
    QUICK_SUITE_NAMES = (
        "harmonic-delta", "harmonic-pi", "harmonic-pi_power",
        "moment-besq-radial", "ks-norm-radial", "ks-norm:control",
        "label-law-full", "label-law-general", "label-law-two-param", "label-law:control",
        "label-law-rotated", "label-law-rotated:control",
        "wall-profile", "wall-profile:control",
        "martingale-radial-sq_norm", "martingale-radial-gauss",
        "martingale-radial-linear", "martingale-full-linear", "martingale-two-param-linear",
        "martingale-radial-sine", "martingale-full-sine", "martingale-two-param-sine",
        "martingale-radial-inv_quad", "martingale:control")

    def test_quick_suite(self, tmp_path, capsys):
        """Very small sizes: the wiring, not the statistics.

        The names come first, so a dropped or renamed report fails with a
        readable diff.  The digest pins all 24 reports (names, order,
        estimates, verdicts and details; only ``runtime`` is free).  All
        24 pass at this size and seed.
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
        assert rc in (0, 1)
        assert tuple(r["name"] for r in parsed) == self.QUICK_SUITE_NAMES
        for r in parsed:
            r.pop("runtime")
        digest = hashlib.sha256(json.dumps(parsed, sort_keys=True).encode())
        assert digest.hexdigest() == self.QUICK_SUITE_SHA256
