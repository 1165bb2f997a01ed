import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg

from gabp import analysis, cli, engine, network
from conftest import two_node_chain

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


    @pytest.mark.parametrize("argv, message", [
        (("--er-prob", "nan"), "er_prob must be in [0, 1], got nan"),
        (("--er-prob", "-0.2"), "er_prob must be in [0, 1], got -0.2"),
        (("--er-prob", "1.5"), "er_prob must be in [0, 1], got 1.5"),
        (("--er-prob", "0.01"), "no connected draw in 1000 tries (m=6, p=0.01); raise --er-prob"),
        (("--coeff-scale", "0"), "coeff_scale must be finite and > 0, got 0.0"),
        (("--coeff-scale", "inf"), "coeff_scale must be finite and > 0, got inf"),
        (("--coeff-scale", "nan"), "coeff_scale must be finite and > 0, got nan"),
        (("--topology", "grid", "--grid-rows", "-2", "--grid-cols", "-3"),
         "grid_shape entries must be >= 1, got -2x-3"),
        (("--nodes", "0"), "num_nodes must be >= 1"),
        (("--dim-min", "0"), "bad dim_range (0, 3)"),
        (("--dim-min", "3", "--dim-max", "2"), "bad dim_range (3, 2)"),
    ])
    def test_bad_generator_settings_exit_1(self, tmp_path, capsys, argv, message):
        out = tmp_path / "x.json"
        code = run_cli("gen", "--out", str(out), "--seed", "1", "--nodes", "6", *argv)
        assert code == 1
        assert capsys.readouterr().err == f"gabp: error: {message}\n"
        assert not out.exists()


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

    @pytest.mark.parametrize("argv,message", [
        (("compare", "--tol", "nan", "--max-iters", "20"), "tol_frobenius must be positive, got nan"),
        (("run", "--init", "identity:nan"), "init_scale must be finite and >= 0, got nan"),
        (("run", "--init", "identity:inf"), "init_scale must be finite and >= 0, got inf"),
        (("analyze", "--trials", "-3"), "trials must be >= 0, got -3"),
        (("analyze", "--alpha", "nan"), "alpha must exceed 1, got nan"),
        (("analyze", "--sandwich-target", "nan"), "target must be >= 0, got nan"),
        (("analyze", "--epsilon", "nan"), "epsilon must be >= 0, got nan"),
        (("compare", "--mean-tol", "nan"), "--mean-tol must be >= 0, got nan"),
        (("compare", "--cov-tol", "nan"), "--cov-tol must be >= 0, got nan"),
        (("run", "--init", "identity:abc"),
         "bad --init 'identity:abc': expected zero, identity[:scale], or file:PATH"),
        (("run", "--init", "identity:"),
         "bad --init 'identity:': expected zero, identity[:scale], or file:PATH"),
    ])
    def test_bad_run_settings_exit_1(self, golden_instance, tmp_path, capsys, argv, message):
        code = run_cli(argv[0], "--instance", golden_instance, "--out-dir", str(tmp_path / "o"),
                       *argv[1:])
        assert code == 1
        assert f"gabp: error: {message}" in capsys.readouterr().err

    def test_numerical_failure_exit_1(self, tmp_path, capsys):
        inst = tmp_path / "huge.json"
        network.save(network.two_node_symmetric(y=(1.7e308, -1.7e308)), inst)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("run", "--instance", str(inst), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        # The overflow is named once, with no numpy warning ahead of it.
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "gabp: numerical failure: message on edge (1, 1) has non-finite entries")

    def test_missing_instance_exit_1(self, tmp_path):
        assert run_cli("run", "--instance", str(tmp_path / "no.json"),
                       "--out-dir", str(tmp_path / "o")) == 1

    def test_unreadable_paths_exit_1(self, golden_instance, tmp_path, capsys):
        # An instance that is a directory, and an output directory that is
        # a file, are input errors with a message, not tracebacks.
        assert run_cli("run", "--instance", str(tmp_path), "--out-dir", str(tmp_path / "o")) == 1
        assert capsys.readouterr().err.startswith("gabp: [Errno")
        taken = tmp_path / "taken"
        taken.write_text("")
        assert run_cli("run", "--instance", golden_instance, "--out-dir", str(taken)) == 1
        err = capsys.readouterr().err
        assert err.startswith("gabp: [Errno") and str(taken) in err

    def test_schema_error_exit_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": []}')
        code = run_cli("run", "--instance", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "invalid instance" in capsys.readouterr().err

    def test_zero_dim_is_a_located_input_error(self, tmp_path, capsys):
        doc = json.loads(network.dumps(two_node_chain()))
        doc["nodes"][0]["dim"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("run", "--instance", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "nodes[0]: node 1: dim must be >= 1, got 0" in capsys.readouterr().err

    def test_semantic_error_reports_rule(self, tmp_path, capsys):
        doc = json.loads(network.dumps(two_node_chain()))
        doc["nodes"][0]["W"] = [[-2.0]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = run_cli("run", "--instance", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert "prior-not-pd" in capsys.readouterr().err

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: [doc], "top level must be an object, got list"),
        (lambda doc: {**doc, "nodes": {}}, "top level: key 'nodes' should be list, got dict"),
        (lambda doc: {**doc, "nodes": [doc["nodes"][0], 2]}, "nodes[1]: must be an object"),
        (lambda doc: {**doc, "nodes": [{**doc["nodes"][0], "W": [[1.0, 0.0]]}, doc["nodes"][1]]},
         "nodes[0]: node 1 prior_cov: expected a square matrix, got shape (1, 2)"),
        (lambda doc: {**doc, "nodes": [{**doc["nodes"][0], "y": [[0.3]]}, doc["nodes"][1]]},
         "nodes[0].y: expected a 1-d array, got shape (1, 1)"),
    ], ids=["top-level", "nodes", "node", "W-not-square", "y-matrix"])
    def test_schema_errors_are_located(self, tmp_path, capsys, edit, message):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(edit(json.loads(network.dumps(two_node_chain())))))
        code = run_cli("run", "--instance", str(bad), "--out-dir", str(tmp_path / "o"))
        assert code == 1
        assert capsys.readouterr().err == f"gabp: invalid instance: {message}\n"

    @pytest.mark.parametrize("key,rel,error", [
        ("W", 0.9, "gabp: invalid instance: nodes[0]: node 1 prior_cov: not symmetric"),
        ("R", 0.9, "gabp: invalid instance: nodes[0]: node 1 noise_cov: not symmetric"),
        ("info", 9e-7, "init info for edge (1, 1) is not symmetric"),
        ("W", 1e-14, None),
        ("info", 1e-14, None),
    ], ids=["prior", "noise", "init", "prior-rounding", "init-rounding"])
    def test_asymmetric_matrices_are_rejected(self, tmp_path, capsys, key, rel, error):
        # An asymmetry beyond 1e-12 of the largest entry is an input error,
        # not something to average away; rounding-level ones still load.
        def skew(x):
            x = np.array(x)
            x[0, 1] += rel * np.abs(x).max()
            return x.tolist()

        inst = tmp_path / "inst.json"
        network.save(network.generate_random(5, 4, "tree", dim_range=(2, 2)), inst)
        argv = ["run", "--instance", str(inst), "--out-dir", str(tmp_path / "o")]
        if key == "info":
            assert run_cli(*argv) == 0
            doc = read_json(tmp_path / "o" / "summary.json")
            doc["messages"][0]["info"] = skew(doc["messages"][0]["info"])
            (tmp_path / "init.json").write_text(json.dumps(doc))
            argv += ["--init", f"file:{tmp_path / 'init.json'}"]
        else:
            doc = read_json(inst)
            doc["nodes"][0][key] = skew(doc["nodes"][0][key])
            inst.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli(*argv)
        if error is None:
            assert code == 0
        else:
            assert code == 1
            assert error in capsys.readouterr().err


class TestInitOption:
    def test_identity_scale(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "run", "--instance", golden_instance, "--out-dir", str(out),
            "--init", "identity:5",
        )
        assert code == 0
        assert read_json(out / "summary.json")["schedule"]["init_scale"] == 5.0

    def test_identity_without_scale_is_scale_1(self, golden_instance, tmp_path):
        for spec in ("identity", "identity:1"):
            assert run_cli("run", "--instance", golden_instance, "--out-dir",
                           str(tmp_path / spec), "--init", spec) == 0
        hashes = {read_json(tmp_path / spec / "summary.json")["content_hash"]
                  for spec in ("identity", "identity:1")}
        assert len(hashes) == 1

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

    def test_file_init_rejects_malformed_message(self, golden_instance, tmp_path, capsys):
        init = tmp_path / "init.json"
        init.write_text(json.dumps({"messages": [{"factor": 1, "variable": 1, "info": 5}]}))
        code = run_cli(
            "run", "--instance", golden_instance, "--out-dir", str(tmp_path / "o"),
            "--init", f"file:{init}",
        )
        assert code == 1
        assert "messages[0] is malformed: info has shape ()" in capsys.readouterr().err
        assert self.run_with_tampered_message(golden_instance, tmp_path / "t", info=5) == 1
        assert "messages[0] is malformed" in capsys.readouterr().err
        init.write_text(json.dumps({"messages": 5}))
        code = run_cli(
            "run", "--instance", golden_instance, "--out-dir", str(tmp_path / "o"),
            "--init", f"file:{init}",
        )
        assert code == 1
        assert "expected a JSON object with a 'messages' list" in capsys.readouterr().err

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

    def test_zero_trials_skip_only_the_harness_work(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "analyze", "--instance", golden_instance, "--out-dir", str(out), "--trials", "0",
        )
        assert code == 0
        doc = read_json(out / "analysis.json")
        assert doc["harness"]["trials"] == 0
        assert doc["harness"]["monotone_checks"] == 0
        assert doc["harness"]["failures"] == []
        for section in ("bounds", "rate", "norm_domination", "sandwich"):
            assert section in doc
        assert doc["bounds"]["trace_in_bounds_all"] is True
        assert doc["rate"]["c_estimate"] == pytest.approx(0.146, abs=0.02)
        assert doc["sandwich"]["reached_target"] is True

    def test_bound_eigenvalues_on_larger_blocks(self, tmp_path):
        # With 2x2 and 3x3 blocks the largest entry of U is not its largest
        # eigenvalue; the report must give the eigenvalues.
        net = network.generate_random(21, 5, "er", dim_range=(2, 3))
        inst = tmp_path / "inst.json"
        network.save(net, inst)
        out = tmp_path / "out"
        code = run_cli(
            "analyze", "--instance", str(inst), "--out-dir", str(out), "--trials", "0",
        )
        assert code == 0
        bounds = read_json(out / "analysis.json")["bounds"]
        op = analysis.build_stacked(net)
        # U = A^T Omega^{-1} A, one block per edge, from the instance data
        u_blocks = []
        for e in net.directed_edges:
            node = net.node(e.factor)
            a = node.coeff[e.variable]
            u_blocks.append(a.T @ np.linalg.solve(node.noise_cov, a))
        u = scipy.linalg.block_diag(*u_blocks)
        l_blocks = analysis.apply_stacked_operator(
            op, [np.zeros((d, d)) for d in op.block_dims]
        )
        u_max = np.linalg.eigvalsh(u)[-1]
        l_min = np.linalg.eigvalsh(scipy.linalg.block_diag(*l_blocks))[0]
        assert bounds["u_max_eig"] == pytest.approx(u_max, rel=1e-12)
        assert bounds["l_min_eig"] == pytest.approx(l_min, rel=1e-12)
        assert abs(u_max - np.max(np.abs(u))) > 1e-3 * u_max

    def test_one_node_instance(self, tmp_path):
        # One node is its own only factor, so phi = 0: F has no inner row
        # and both commands run on the middle layer alone.
        inst = tmp_path / "one.json"
        assert run_cli("gen", "--out", str(inst), "--seed", "1", "--nodes", "1") == 0
        assert run_cli("run", "--instance", str(inst), "--out-dir", str(tmp_path / "run")) == 0
        out = tmp_path / "analyze"
        code = run_cli("analyze", "--instance", str(inst), "--out-dir", str(out), "--trials", "3")
        assert code == 0
        doc = read_json(out / "analysis.json")
        assert doc["phi"] == 0 and doc["quantitative_failures"] == []

    def test_quantitative_failure_exit_2(self, golden_instance, tmp_path, capsys):
        # Rounding keeps the sandwich distances just above 0.
        out = tmp_path / "out"
        code = run_cli("analyze", "--instance", golden_instance, "--out-dir", str(out),
                       "--sandwich-target", "0", "--trials", "2")
        assert code == 2
        failure = "did not reach 0.0e+00 in 500 steps"
        err = capsys.readouterr().err
        assert "check failed: distances (" in err and failure in err
        [listed] = read_json(out / "analysis.json")["quantitative_failures"]
        assert listed.startswith("distances (") and listed.endswith(failure)

    # Every check below holds on every instance.  Each case runs one part of
    # analyze on a broken F'(C) = rule(F(C), C, L, U) (padded stacks; the
    # golden instance's blocks are 1x1 and L = 1/2, U = 1), and the rest of the
    # command on the real F.
    @pytest.mark.parametrize("section,rule,failure", [
        # Antitone, but inside [L, U] and strictly subhomogeneous.
        pytest.param("harness", lambda f, c, l, u: l + u - f, "monotonicity violated",
                     id="antitone"),
        # (alpha - 1) (L - 100 alpha C^2) < 0: the harness's PD states are >= 0.1.
        pytest.param("harness", lambda f, c, l, u: l + 100.0 * c @ c,
                     "scaling law not strict", id="superlinear"),
        # Monotone and strictly subhomogeneous, but above U wherever F(C) > L.
        pytest.param("harness", lambda f, c, l, u: f + u - l, "escaped [L, U]",
                     id="above-u"),
        pytest.param("sandwich", lambda f, c, l, u: l + u - f,
                     "upper sequence increased", id="upper"),
        pytest.param("sandwich", lambda f, c, l, u: l + u - f,
                     "lower sequence decreased", id="lower"),
        # Monotone, with its fixed point above C*: the lower sequence passes C*.
        pytest.param("sandwich", lambda f, c, l, u: f + 0.2 * (u - l),
                     "fixed point escaped the sandwich", id="shifted"),
    ])
    def test_operator_failures_exit_2(self, golden_instance, tmp_path, capsys, monkeypatch,
                                      section, rule, failure):
        stage = {"harness": "property_harness", "sandwich": "sandwich_sequences"}[section]
        real_stage, real_f = getattr(analysis, stage), analysis.apply_stacked_operator

        def broken_stage(op, *args, **kwargs):
            bounds = analysis.bounds_ul(op)
            l, u = (analysis._stack(op, b) for b in (bounds.l_blocks, bounds.u_blocks))

            def broken_f(op, c):
                return rule(real_f(op, c), c, l, u)

            with monkeypatch.context() as m:
                m.setattr(analysis, "apply_stacked_operator", broken_f)
                return real_stage(op, *args, **kwargs)

        monkeypatch.setattr(analysis, stage, broken_stage)
        out = tmp_path / "out"
        code = run_cli("analyze", "--instance", golden_instance, "--out-dir", str(out),
                       "--trials", "3")
        assert code == 2
        doc = read_json(out / "analysis.json")
        assert doc["stacked_residual"] <= 1e-12 and doc["bounds"]["trace_in_bounds_all"]
        [first, *_] = [f for f in doc[section]["failures"] if failure in f]
        assert doc["quantitative_failures"] == doc[section]["failures"]
        assert f"check failed: {first}\n" in capsys.readouterr().err

    def annotated_analyze_exit_2(self, golden_instance, tmp_path, capsys, monkeypatch,
                                 annotate, failure):
        """Run analyze with ``annotate(real annotate_trace, trace, bounds,
        star)`` as its annotation; return analysis.json after exit 2 with
        ``failure`` as the one failure."""
        real = analysis.annotate_trace
        monkeypatch.setattr(analysis, "annotate_trace",
                            lambda *args: annotate(real, *args))
        out = tmp_path / "out"
        code = run_cli("analyze", "--instance", golden_instance, "--out-dir", str(out),
                       "--trials", "2")
        assert code == 2
        assert capsys.readouterr().err == f"check failed: {failure}\n"
        doc = read_json(out / "analysis.json")
        assert doc["quantitative_failures"] == [failure]
        return doc

    def test_trace_outside_bounds_exit_2(self, golden_instance, tmp_path, capsys, monkeypatch):
        # Against U = L, every iterate above L leaves the interval.
        def annotate(real, trace, bounds, star):
            return real(trace, analysis.ConeBounds(bounds.l_blocks, bounds.l_blocks), star)

        doc = self.annotated_analyze_exit_2(golden_instance, tmp_path, capsys, monkeypatch,
                                            annotate, "trace left the [L, U] interval")
        assert doc["bounds"]["trace_in_bounds_all"] is False

    def test_norm_domination_failure_exit_2(self, golden_instance, tmp_path, capsys,
                                            monkeypatch):
        def annotate(real, trace, bounds, star):
            real(trace, bounds, star)
            trace.records[2].norm_slack, trace.records[2].norm_bound_ok = -1.0, False
            return trace

        doc = self.annotated_analyze_exit_2(golden_instance, tmp_path, capsys, monkeypatch,
                                            annotate, "norm domination failed on the trace")
        assert doc["norm_domination"] == {"all_ok": False, "worst_slack": -1.0}

    def test_non_convergence_exit_3(self, golden_instance, tmp_path):
        out = tmp_path / "out"
        code = run_cli(
            "analyze", "--instance", golden_instance, "--out-dir", str(out),
            "--max-iters", "3",
        )
        assert code == 3
        assert read_json(out / "analysis.json")["converged"] is False

    @pytest.mark.parametrize("argv,message", [
        (("--trials", "-3"), "trials must be >= 0, got -3"),
        (("--alpha", "nan"), "alpha must exceed 1, got nan"),
        (("--sandwich-target", "-1"), "target must be >= 0, got -1.0"),
        (("--epsilon", "nan"), "epsilon must be >= 0, got nan"),
    ])
    def test_bad_options_fail_before_the_engine_runs(self, golden_instance, tmp_path, capsys,
                                                     monkeypatch, argv, message):
        def no_run(*args, **kwargs):
            raise AssertionError("engine.run was called")

        monkeypatch.setattr(engine, "run", no_run)
        code = run_cli("analyze", "--instance", golden_instance, "--out-dir",
                       str(tmp_path / "o"), *argv)
        assert code == 1
        assert f"gabp: error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--no-bounds", "--no-rate", "--no-properties",
                                      "--no-sandwich"])
    def test_section_toggles_are_usage_errors(self, golden_instance, tmp_path, capsys, flag):
        code = run_cli("analyze", "--instance", golden_instance, "--out-dir",
                       str(tmp_path / "o"), flag)
        assert code == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


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

    def test_oracle_answers_past_the_information_overflow(self, tmp_path, capsys):
        # The run converges with finite beliefs (true mean 4e307), though the
        # centralized information vector sums to 2e308: the oracle solves for
        # y scaled by a power of two, so it checks them, at a mean tolerance
        # in their units (the run's own mean test is absolute and never
        # passes at this scale, so its beliefs carry about 5e-12).
        inst = tmp_path / "big.json"
        network.save(network.two_node_symmetric(y=(1e308, 1e308)), inst)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli("compare", "--instance", str(inst), "--out-dir", str(tmp_path / "o"),
                           "--mean-tol", "1e297")
        assert code == 0 and caught == []
        assert capsys.readouterr().out.startswith("agreement ok")
        report = read_json(tmp_path / "o" / "compare.json")["report"]
        assert report["max_mean_error"] <= 1e-11 * 4e307

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

    def test_info_log_reports_the_loaded_instance(self, golden_instance, tmp_path):
        env = dict(os.environ, GABP_LOG="info")
        proc = subprocess.run(
            [sys.executable, "-m", "gabp.cli", "run", "--instance", golden_instance,
             "--out-dir", str(tmp_path / "o")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert f"INFO gabp.cli: loaded {golden_instance}: 2 nodes, 4 directed edges" in proc.stderr

    def test_commands_never_import_networkx_or_scipy(self, tmp_path):
        # Each process pays for every module it imports; the graph checks,
        # generators and solvers need nothing beyond numpy.
        script = f"""
import sys
import warnings
from gabp import cli
inst, out = {str(tmp_path / "inst.json")!r}, {str(tmp_path)!r}
assert cli.main(["gen", "--out", inst, "--seed", "2", "--nodes", "4", "--topology", "grid"]) == 0
for argv in (["run"], ["analyze", "--trials", "2"], ["compare"]):
    code = cli.main([*argv, "--instance", inst, "--out-dir", out + "/" + argv[0]])
    assert code == 0, (argv, code)
for name in ("networkx", "scipy"):
    assert name not in sys.modules, name + " was imported"
"""
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_version_flag(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gabp.cli", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "gabp" in proc.stdout
