import json
import os
import subprocess
import sys

import numpy as np
import pytest

from gabp import analysis, cli, network

GOLDEN_C = (np.sqrt(5.0) - 1.0) / 2.0


def run_cli(*argv):
    """Invoke the CLI in process, normalizing SystemExit to a code."""
    try:
        return cli.main(list(argv))
    except SystemExit as exc:
        return exc.code


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def strip_timestamp(path):
    doc = read_json(path)
    doc.pop("timestamp", None)
    if isinstance(doc.get("meta"), dict):
        doc["meta"].pop("timestamp", None)
    return doc


@pytest.fixture()
def golden_instance(tmp_path):
    path = tmp_path / "golden.json"
    network.save(network.two_node_symmetric(), path)
    return str(path)


class TestGen:
    def test_writes_valid_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        code = run_cli("gen", "--out", str(out), "--seed", "3", "--nodes", "5")
        assert code == 0
        net = network.load(out)
        assert net.num_nodes == 5
        assert network.validate(net) == []

    def test_deterministic_modulo_timestamp(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for p in (a, b):
            assert run_cli("gen", "--out", str(p), "--seed", "9", "--nodes", "4") == 0
        assert strip_timestamp(a) == strip_timestamp(b)

    def test_meta_embedded(self, tmp_path):
        out = tmp_path / "inst.json"
        run_cli("gen", "--out", str(out), "--seed", "3", "--nodes", "4")
        meta = read_json(out)["meta"]
        assert meta["tool"] == "gabp"
        assert meta["seed"] == 3
        assert len(meta["content_hash"]) == 64

    def test_topology_choices_enforced(self, tmp_path):
        code = run_cli(
            "gen", "--out", str(tmp_path / "x.json"), "--seed", "1",
            "--nodes", "4", "--topology", "moebius",
        )
        assert code == 1

    def test_grid_args_must_pair(self, tmp_path):
        code = run_cli(
            "gen", "--out", str(tmp_path / "x.json"), "--seed", "1",
            "--nodes", "6", "--topology", "grid", "--grid-rows", "2",
        )
        assert code == 1


class TestRun:
    def test_golden_run(self, golden_instance, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--instance", golden_instance, "--out-dir", str(out),
            "--tol", "1e-12",
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out
        summary = read_json(out / "summary.json")
        assert summary["converged"] is True
        assert summary["mean_converged"] in (True, False)
        for m in summary["messages"]:
            assert m["info"][0][0] == pytest.approx(GOLDEN_C, abs=1e-10)
        assert summary["fixed_point_hash"]
        assert (out / "trace.csv").exists()
        assert (out / "manifest.json").exists()

    def test_rerun_identical_modulo_timestamp(self, golden_instance, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            assert run_cli("run", "--instance", golden_instance, "--out-dir", str(out)) == 0
        assert strip_timestamp(out1 / "summary.json") == strip_timestamp(out2 / "summary.json")
        assert (out1 / "trace.csv").read_bytes() == (out2 / "trace.csv").read_bytes()

    def test_content_hash_excludes_timestamp(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--instance", golden_instance, "--out-dir", str(out))
        doc = read_json(out / "summary.json")
        claimed = doc.pop("content_hash")
        doc.pop("timestamp")
        recomputed = cli._sha256_text(cli._canonical(doc))
        assert claimed == recomputed

    def test_non_convergence_exit_3(self, golden_instance, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--instance", golden_instance, "--out-dir", str(out),
            "--max-iters", "2",
        )
        assert code == 3
        assert "did not converge" in capsys.readouterr().err
        summary = read_json(out / "summary.json")
        assert summary["converged"] is False
        assert summary["fixed_point_hash"] is None

    def test_missing_instance_exit_1(self, tmp_path):
        assert run_cli("run", "--instance", str(tmp_path / "no.json"),
                       "--out-dir", str(tmp_path / "o")) == 1

    def test_schema_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": []}')
        code = run_cli("run", "--instance", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "invalid instance" in capsys.readouterr().err

    def test_semantic_error_reports_rule(self, tmp_path, capsys):
        doc = json.loads(network.dumps(network.two_node_chain()))
        doc["nodes"][0]["W"] = [[-2.0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("run", "--instance", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "prior-not-pd" in capsys.readouterr().err


class TestInitOption:
    def test_identity_scale(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--instance", golden_instance, "--out-dir", str(out),
            "--init", "identity:5",
        )
        assert code == 0
        assert read_json(out / "summary.json")["schedule"]["init_scale"] == 5.0

    def test_file_init_round_trip(self, golden_instance, tmp_path):
        first = tmp_path / "first"
        assert run_cli("run", "--instance", golden_instance, "--out-dir", str(first)) == 0
        warm = tmp_path / "warm"
        code = run_cli(
            "run", "--instance", golden_instance, "--out-dir", str(warm),
            "--init", f"file:{first / 'summary.json'}",
        )
        assert code == 0
        # warm start at the fixed point: nothing left to do
        assert read_json(warm / "summary.json")["iterations"] <= 2

    @staticmethod
    def run_with_tampered_message(golden_instance, tmp_path, **fields):
        """Warm start from a run summary whose first message has the given
        fields (info, mean) replaced."""
        tmp_path.mkdir(parents=True, exist_ok=True)
        first = tmp_path / "first"
        run_cli("run", "--instance", golden_instance, "--out-dir", str(first))
        doc = read_json(first / "summary.json")
        doc["messages"][0].update(fields)
        tampered = tmp_path / "tampered.json"
        tampered.write_text(json.dumps(doc))
        return run_cli(
            "run", "--instance", golden_instance, "--out-dir", str(tmp_path / "out"),
            "--init", f"file:{tampered}",
        )

    def test_file_init_rejects_non_psd(self, golden_instance, tmp_path, capsys):
        assert self.run_with_tampered_message(golden_instance, tmp_path, info=[[-1.0]]) == 1
        assert "positive semidefinite" in capsys.readouterr().err

    def test_file_init_rejects_nan(self, golden_instance, tmp_path, capsys):
        nan = float("nan")
        for field, value in (("info", [[nan]]), ("mean", [nan])):
            code = self.run_with_tampered_message(golden_instance, tmp_path / field,
                                                  **{field: value})
            assert code == 1
            assert f"init {field} for edge (1, 1) has non-finite" in capsys.readouterr().err

    def test_workers_flag_is_a_usage_error(self, golden_instance, tmp_path):
        assert run_cli(
            "run", "--instance", golden_instance,
            "--out-dir", str(tmp_path / "o"), "--workers", "2",
        ) == 1

    def test_unknown_init_spec(self, golden_instance, tmp_path):
        assert run_cli(
            "run", "--instance", golden_instance,
            "--out-dir", str(tmp_path / "o"), "--init", "ones",
        ) == 1


class TestAnalyze:
    def test_golden_analysis(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "analyze", "--instance", golden_instance, "--out-dir", str(out),
            "--trials", "25",
        )
        assert code == 0
        doc = read_json(out / "analysis.json")
        assert doc["phi"] == 4
        assert doc["converged"] is True
        assert doc["stacked_residual"] <= 1e-12
        assert doc["rate"]["c_estimate"] == pytest.approx(0.146, abs=0.02)
        assert doc["rate"]["strictly_decreasing"] is True
        assert doc["bounds"]["trace_in_bounds_all"] is True
        assert doc["norm_domination"]["all_ok"] is True
        assert doc["harness"]["failures"] == []
        assert doc["harness"]["trials"] == 25
        assert doc["sandwich"]["reached_target"] is True
        assert doc["quantitative_failures"] == []

    def test_toggles_skip_sections(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "analyze", "--instance", golden_instance, "--out-dir", str(out),
            "--no-rate", "--no-properties", "--no-sandwich",
        )
        assert code == 0
        doc = read_json(out / "analysis.json")
        assert "rate" not in doc and "harness" not in doc and "sandwich" not in doc
        assert "bounds" in doc

    def test_rate_without_bounds_section(self, golden_instance, tmp_path):
        # The rate fit needs the annotated trace even when --no-bounds
        # drops the bounds section.
        out = tmp_path / "out"
        code = run_cli(
            "analyze", "--instance", golden_instance, "--out-dir", str(out),
            "--no-bounds", "--no-properties", "--no-sandwich",
        )
        assert code == 0
        doc = read_json(out / "analysis.json")
        assert "bounds" not in doc
        assert doc["rate"]["c_estimate"] == pytest.approx(0.146, abs=0.02)

    def test_bound_eigenvalues_on_larger_blocks(self, tmp_path):
        # With 2x2 and 3x3 blocks the largest entry of U is not its largest
        # eigenvalue; the report must give the eigenvalues.
        net = network.generate_random(21, 5, "er", dim_range=(2, 3))
        inst = tmp_path / "inst.json"
        network.save(net, inst)
        out = tmp_path / "out"
        code = run_cli(
            "analyze", "--instance", str(inst), "--out-dir", str(out),
            "--no-properties", "--no-sandwich",
        )
        assert code == 0
        bounds = read_json(out / "analysis.json")["bounds"]
        op = analysis.build_stacked(net)
        u = op.a.T @ np.linalg.solve(op.omega, op.a)
        l = analysis.apply_stacked_operator(op, np.zeros((op.dim_c, op.dim_c)))
        u_max = np.linalg.eigvalsh(u)[-1]
        assert bounds["u_max_eig"] == pytest.approx(u_max, rel=1e-12)
        assert bounds["l_min_eig"] == pytest.approx(np.linalg.eigvalsh(l)[0], rel=1e-12)
        assert abs(u_max - np.max(np.abs(u))) > 1e-3 * u_max

    def test_non_convergence_exit_3(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "analyze", "--instance", golden_instance, "--out-dir", str(out),
            "--max-iters", "3",
        )
        assert code == 3
        assert read_json(out / "analysis.json")["converged"] is False


class TestCompare:
    def test_tree_instance_fully_comparable(self, tmp_path):
        inst = tmp_path / "tree.json"
        assert run_cli("gen", "--out", str(inst), "--seed", "6", "--nodes", "7",
                       "--topology", "tree") == 0
        out = tmp_path / "out"
        code = run_cli("compare", "--instance", str(inst), "--out-dir", str(out),
                       "--tol", "1e-12")
        assert code == 0
        doc = read_json(out / "compare.json")
        assert doc["report"]["is_tree"] is True
        assert doc["report"]["cov_comparable"] is True
        assert doc["within_tolerance"] is True
        assert doc["report"]["max_cov_error"] <= 1e-8

    def test_loopy_means_only(self, golden_instance, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli("compare", "--instance", golden_instance, "--out-dir", str(out),
                       "--tol", "1e-13")
        assert code == 0
        doc = read_json(out / "compare.json")
        assert doc["report"]["cov_comparable"] is False
        assert doc["report"]["max_mean_error"] <= 1e-6
        # the known loopy variance gap shows up in the report
        assert doc["report"]["cov_errors"]["1"] == pytest.approx(
            3 / 5 - 1 / np.sqrt(5), abs=1e-6
        )
        assert "means only" in capsys.readouterr().out

    def test_forced_mismatch_exit_2(self, golden_instance, tmp_path, capsys):
        out = tmp_path / "out"
        code = run_cli(
            "compare", "--instance", golden_instance, "--out-dir", str(out),
            "--mean-tol", "1e-18",
        )
        assert code == 2
        assert "disagree" in capsys.readouterr().err
        assert read_json(out / "compare.json")["within_tolerance"] is False

    def test_non_convergence_exit_3(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "compare", "--instance", golden_instance, "--out-dir", str(out),
            "--max-iters", "1",
        )
        assert code == 3
        assert read_json(out / "compare.json")["report"]["applicable"] is False


class TestManifest:
    def test_records_command_and_options(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        run_cli("run", "--instance", golden_instance, "--out-dir", str(out),
                "--max-iters", "77")
        doc = read_json(out / "manifest.json")
        assert doc["command"] == "run"
        assert doc["outputs"] == ["summary.json", "trace.csv"]
        assert doc["options"]["max_iters"] == 77
        assert doc["instance_sha256"] == cli._sha256_file(golden_instance)


class TestConsoleScript:
    def test_entry_point_and_logging(self, tmp_path):
        env = dict(os.environ, GABP_LOG="info")
        out = tmp_path / "inst.json"
        proc = subprocess.run(
            [sys.executable, "-m", "gabp.cli", "gen", "--out", str(out),
             "--seed", "2", "--nodes", "4"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "INFO" in proc.stderr
        assert out.exists()

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gabp.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gabp" in proc.stdout
