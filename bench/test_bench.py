"""Tests of the benchmark's own checker and tracer, on tiny inputs.

    python3 -m pytest bench -q
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

Y = (0.3, -0.2)
# Two scalar nodes that each observe x1 + x2, every prior, noise and
# coefficient 1: the posterior means are (y1 + y2) / 5 and every edge info
# converges to (sqrt(5) - 1) / 2, inside [L_e, U_e] = [1/2, 1].
GOLDEN = {
    "nodes": [
        {"id": i, "dim": 1, "W": [[1.0]], "R": [[1.0]], "y": [Y[i - 1]],
         "A": {"1": [[1.0]], "2": [[1.0]]}}
        for i in (1, 2)
    ],
    "edges": [[1, 2]],
}
GOLDEN_MEAN = (Y[0] + Y[1]) / 5.0
GOLDEN_INFO = (math.sqrt(5.0) - 1.0) / 2.0


def golden_messages():
    return [{"factor": n, "variable": i, "info": [[GOLDEN_INFO]]} for n in (1, 2) for i in (1, 2)]


def test_checker_accepts_golden_instance():
    means = {1: [GOLDEN_MEAN], 2: [GOLDEN_MEAN]}
    truth = checks.posterior_means(GOLDEN)
    assert truth[1][0] == pytest.approx(GOLDEN_MEAN, abs=1e-15)
    assert checks.check_means(GOLDEN, means) == []
    assert checks.check_messages(GOLDEN, golden_messages()) == []


def test_checker_rejects_perturbed_mean():
    means = {1: [GOLDEN_MEAN + 1e-3], 2: [GOLDEN_MEAN]}
    assert checks.check_means(GOLDEN, means)


def test_checker_rejects_info_outside_interval():
    messages = golden_messages()
    messages[0]["info"] = [[0.49]]
    assert any("below L_e" in p for p in checks.check_messages(GOLDEN, messages))


def test_tracer_span_tree_around_engine_run():
    from gabp import cones, engine, network

    net = network.two_node_symmetric(Y)
    original = engine.run
    tracer = Tracer({"engine": engine, "cones": cones}, counted=("cones",),
                    observers=run.OBSERVERS)
    with tracer, tracer.command_span() as cmd:
        engine.run(net, engine.ScheduleConfig(max_iterations=3, tol_frobenius=1e-300))
    assert engine.run is original

    names = [tracer.names[k] for k in tracer.name]
    parents = list(tracer.parent)

    def children(idx):
        return [names[k] for k, p in enumerate(parents) if p == idx]

    assert names[0] == "cli.main" and parents[0] == -1
    assert children(0) == ["engine.run"]
    run_children = children(1)
    assert run_children == (
        ["engine.initial_state"] + ["engine.combined_update"] * 3 + ["engine.compute_belief"] * 2
    )
    sweeps = [k for k, p in enumerate(parents) if p == 1 and names[k] == "engine.combined_update"]
    for sweep in sweeps:
        assert children(sweep) == ["engine.var_to_factor"] * 4 + ["engine.factor_to_var"] * 4
    assert all(tracer.start[k] <= tracer.end[k] for k in range(len(names)))
    assert all(
        tracer.start[p] <= tracer.start[k] and tracer.end[k] <= tracer.end[p]
        for k, p in enumerate(parents) if p >= 0
    )

    m = run.layer_metrics(tracer, cmd)
    assert m["engine.sweeps"] == 3
    assert m["engine.stage1_calls"] == m["engine.stage2_calls"] == 12
    assert m["cones.symmetrize_calls"] > 0
    assert m["engine.snapshot_mb"] > 0
    assert m["engine.self_s"] + m["cli.self_s"] == pytest.approx(m["trace.command_s"], abs=1e-9)
    assert np.isclose(m["engine.run_s"], m["engine.self_s"])
