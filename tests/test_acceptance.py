"""End-to-end acceptance checks for the convergence machinery.

Twelve numbered criteria, each asserted at a pinned tolerance and
reported as a PASS/FAIL line in the terminal summary (see conftest).
Most criteria share one pool of runs: 25 random connected instances
(3 to 10 nodes, variable dimensions 1 to 3) solved from three starts
each (zero, 5x identity, random PSD), with traces annotated against each
run's own terminal state.
"""

import dataclasses

import numpy as np
import pytest

from gabp import analysis, engine, network, oracle
from gabp.engine import ScheduleConfig
from conftest import record_criterion

GOLDEN_C = (np.sqrt(5.0) - 1.0) / 2.0

POOL_SIZE = 25
POOL_TOL = 1e-12
POOL_MAX_ITERS = 5000
INIT_NAMES = ("zero", "identity5", "random-psd")


def check(number, description, ok, detail=""):
    record_criterion(number, description, ok, detail)
    assert ok, f"criterion {number:02d} failed: {description} [{detail}]"


@dataclasses.dataclass
class PoolEntry:
    index: int
    net: object
    op: object
    bounds: object
    runs: dict


def pool_config(op, index, init_name):
    if init_name == "zero":
        return ScheduleConfig(max_iterations=POOL_MAX_ITERS, tol_frobenius=POOL_TOL)
    if init_name == "identity5":
        return ScheduleConfig(
            max_iterations=POOL_MAX_ITERS, tol_frobenius=POOL_TOL,
            init="identity", init_scale=5.0,
        )
    rng = np.random.default_rng([7, index])
    blocks = analysis.random_state_blocks(rng, op.block_dims)
    msgs = {
        e: engine.EdgeMessage(e, b, np.zeros(b.shape[0]))
        for e, b in zip(op.edge_order, blocks)
    }
    return ScheduleConfig(
        max_iterations=POOL_MAX_ITERS, tol_frobenius=POOL_TOL,
        init=engine.MessageState(0, msgs),
    )


@pytest.fixture(scope="module")
def pool():
    entries = []
    for k in range(POOL_SIZE):
        net = network.generate_random(1000 + k, 3 + k % 8, "er", er_prob=0.5)
        op = analysis.build_stacked(net)
        bounds = analysis.bounds_ul(op)
        runs = {}
        for name in INIT_NAMES:
            res = engine.run(net, pool_config(op, k, name))
            assert res.converged, f"pool instance {k} did not converge from {name}"
            analysis.annotate_trace(res.trace, bounds, res.state.info_blocks())
            runs[name] = res
        entries.append(PoolEntry(k, net, op, bounds, runs))
    return entries


@pytest.fixture(scope="module")
def golden():
    net = network.two_node_symmetric()
    op = analysis.build_stacked(net)
    bounds = analysis.bounds_ul(op)
    res = engine.run(net, ScheduleConfig(max_iterations=300, tol_frobenius=1e-14))
    assert res.converged
    analysis.annotate_trace(res.trace, bounds, res.state.info_blocks())
    return PoolEntry(-1, net, op, bounds, {"zero": res})


def all_runs(pool):
    for entry in pool:
        for name, res in entry.runs.items():
            yield entry, name, res


def test_c01_golden_fixed_point(golden):
    res = golden.runs["zero"]
    errs = [
        abs(res.state.messages[e].info[0, 0] - GOLDEN_C) for e in res.state.edges
    ]
    ok = res.converged and res.iterations <= 80 and max(errs) <= 1e-10
    check(
        1,
        "golden two-node infos reach (sqrt(5)-1)/2 within 1e-10 in <= 80 iterations",
        ok,
        f"iterations={res.iterations}, worst error={max(errs):.2e}",
    )


def test_c02_init_independence(pool):
    worst = 0.0
    for entry in pool:
        base = entry.runs["zero"].state.info_blocks()
        for name in INIT_NAMES[1:]:
            blocks = entry.runs[name].state.info_blocks()
            diff = float(np.sqrt(sum(np.sum((b - a) ** 2) for a, b in zip(base, blocks))))
            worst = max(worst, diff)
    check(
        2,
        "unique fixed point: three inits agree within 1e-8 Frobenius on 25 instances",
        worst <= 1e-8,
        f"worst cross-init difference={worst:.2e}",
    )


def test_c03_trajectory_bounded(pool):
    checked = 0
    worst_run = None
    ok = True
    for entry, name, res in all_runs(pool):
        flags = [r.in_bounds for r in res.trace.records if r.in_bounds is not None]
        checked += len(flags)
        if not all(flags):
            ok = False
            worst_run = (entry.index, name)
    check(
        3,
        "L <= C(l) <= U for every l >= 1 in every pool run (slack >= -1e-9)",
        ok,
        f"{checked} iteration checks"
        + (f", first failure at {worst_run}" if worst_run else ""),
    )


def test_c04_messages_positive_definite(pool):
    worst = np.inf
    count = 0
    for entry, name, res in all_runs(pool):
        for snapshot in res.trace.info_blocks[1:]:
            for block in snapshot:
                w = np.linalg.eigvalsh(block)
                rel = w[0] / max(1.0, w[-1])
                worst = min(worst, rel)
                count += 1
    check(
        4,
        "every message info block is PD (relative min eigenvalue > 1e-12) for l >= 1",
        worst > 1e-12,
        f"{count} blocks, worst relative min eigenvalue={worst:.2e}",
    )


def test_c05_monotonicity_scaling_harness(pool):
    small = sorted(pool, key=lambda e: e.op.dim_c)[:10]
    failures = []
    checks = 0
    for entry in small:
        rep = analysis.property_harness(entry.op, trials=100, seed=500 + entry.index)
        failures.extend(f"instance {entry.index}: {f}" for f in rep.failures)
        checks += rep.monotone_checks + rep.scaling_checks + rep.bounds_checks
    check(
        5,
        "monotone/scaling/bounds harness: 100 trials x 10 instances, zero violations",
        not failures,
        f"{checks} checks" + (f", first: {failures[0]}" if failures else ""),
    )


def test_c06_sandwich_sequences(pool, golden):
    targets = [golden] + pool[:3]
    problems = []
    for entry in targets:
        star = entry.runs["zero"].state.info_blocks()
        rep = analysis.sandwich_sequences(entry.op, star, alpha=2.0, target=1e-6)
        if rep.failures or not (rep.upper_monotone and rep.lower_monotone):
            problems.append((entry.index, rep.failures[:1]))
    check(
        6,
        "sandwich: F^l(L) nondecreasing, F^l(2C*) nonincreasing, both reach d < 1e-6",
        not problems,
        f"{len(targets)} instances" + (f", first: {problems[0]}" if problems else ""),
    )


def test_c07_geometric_rate(pool, golden):
    problems = []
    fits = 0
    for entry, name, res in all_runs(pool):
        rep = analysis.rate_analysis(res.trace)
        if not rep.strictly_decreasing:
            problems.append(f"instance {entry.index}/{name}: not strictly decreasing")
        if not rep.degenerate:
            fits += 1
            if rep.r_squared < 0.95:
                problems.append(
                    f"instance {entry.index}/{name}: R^2={rep.r_squared:.4f}"
                )
    golden_rate = analysis.rate_analysis(golden.runs["zero"].trace)
    if abs(golden_rate.c_estimate - 0.146) > 0.02:
        problems.append(f"golden c_estimate={golden_rate.c_estimate:.4f}")
    check(
        7,
        "geometric rate: d_l strictly decreasing, fit R^2 >= 0.95, golden c = 0.146 +- 0.02",
        not problems,
        f"{fits} fits, golden c_estimate={golden_rate.c_estimate:.4f}"
        + (f", first: {problems[0]}" if problems else ""),
    )


def test_c08_norm_domination(pool, golden):
    worst = np.inf
    count = 0
    for entry, name, res in list(all_runs(pool)) + [(golden, "zero", golden.runs["zero"])]:
        for rec in res.trace.records:
            if rec.norm_slack is not None:
                worst = min(worst, rec.norm_slack)
                count += 1
    check(
        8,
        "norm domination holds for spectral and Frobenius norms at every iteration",
        worst >= -1e-9,
        f"{count} iteration checks, worst slack={worst:.2e}",
    )


def test_c09_means_match_centralized(pool, golden):
    worst = 0.0
    for entry, name, res in all_runs(pool):
        rep = oracle.compare(entry.net, res.beliefs)
        worst = max(worst, rep.max_mean_error)
    g = golden.runs["zero"]
    y = [golden.net.node(i).obs[0] for i in (1, 2)]
    golden_mean_err = abs(g.beliefs[1].mean[0] - (y[0] + y[1]) / 5.0)
    grep = oracle.compare(golden.net, g.beliefs)
    gap_err = abs(grep.cov_errors[1] - (3.0 / 5.0 - 1.0 / np.sqrt(5.0)))
    ok = worst <= 1e-6 and golden_mean_err <= 1e-8 and gap_err <= 1e-6 and not grep.cov_comparable
    check(
        9,
        "converged means match the centralized posterior (<= 1e-6); golden variance "
        "gap 3/5 - 1/sqrt(5) reported as expected loopy discrepancy",
        ok,
        f"worst mean error={worst:.2e}, golden mean error={golden_mean_err:.2e}, "
        f"gap error={gap_err:.2e}",
    )


def test_c10_tree_exactness():
    worst_mean = 0.0
    worst_cov = 0.0
    for k in range(10):
        net = network.generate_random(2000 + k, 4 + k, "tree")
        assert oracle.factor_graph_is_tree(net)
        res = engine.run(net, ScheduleConfig(max_iterations=500, tol_frobenius=1e-13))
        assert res.converged
        rep = oracle.compare(net, res.beliefs)
        worst_mean = max(worst_mean, rep.max_mean_error)
        worst_cov = max(worst_cov, rep.max_cov_error)
    check(
        10,
        "tree factor graphs: belief means and covariances exact within 1e-8",
        worst_mean <= 1e-8 and worst_cov <= 1e-8,
        f"10 instances, worst mean error={worst_mean:.2e}, worst cov error={worst_cov:.2e}",
    )


def test_c11_engine_matches_stacked_operator(pool):
    worst = 0.0
    for entry in pool:
        rng = np.random.default_rng([11, entry.index])
        blocks = analysis.random_state_blocks(rng, entry.op.block_dims)
        msgs = {
            e: engine.EdgeMessage(e, b, np.zeros(b.shape[0]))
            for e, b in zip(entry.op.edge_order, blocks)
        }
        sweep = engine.combined_update(entry.net, engine.MessageState(0, msgs))
        stacked = analysis.apply_stacked_operator(entry.op, blocks)
        for e, want in zip(entry.op.edge_order, stacked):
            got = sweep.messages[e].info
            rel = float(np.max(np.abs(got - want))) / max(1.0, float(np.max(np.abs(want))))
            worst = max(worst, rel)
    check(
        11,
        "per-edge engine and stacked operator agree to 1e-12 on 25 random inputs",
        worst <= 1e-12,
        f"worst relative difference={worst:.2e}",
    )


def test_c12_observation_independence(pool, golden):
    cases = [golden.net, pool[0].net, pool[1].net]
    ok = True
    detail = []
    for idx, net in enumerate(cases):
        rng = np.random.default_rng([12, idx])
        shifted = net.with_obs(
            {i: net.node(i).obs + rng.standard_normal(net.obs_dim(i)) for i in net.ids}
        )
        cfg = ScheduleConfig(max_iterations=25, tol_frobenius=1e-15)
        r1, r2 = engine.run(net, cfg), engine.run(shifted, cfg)
        same_infos = len(r1.trace) == len(r2.trace) and all(
            np.array_equal(b1, b2)
            for s1, s2 in zip(r1.trace.info_blocks, r2.trace.info_blocks)
            for b1, b2 in zip(s1, s2)
        )
        means_moved = any(
            not np.array_equal(r1.state.messages[e].mean, r2.state.messages[e].mean)
            for e in r1.state.edges
        )
        if not (same_infos and means_moved):
            ok = False
            detail.append(f"case {idx}: infos identical={same_infos}, means moved={means_moved}")
    check(
        12,
        "info trajectories are bitwise independent of the observations y",
        ok,
        "; ".join(detail) if detail else "3 instances, all snapshots bitwise equal",
    )
