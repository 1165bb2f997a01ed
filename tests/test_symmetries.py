"""Exact symmetries of the model, checked bitwise on a 4x4 grid.

Rescaling a variable, x_j -> 2^k x_j (W_j -> 4^k W_j, every A[n][j] ->
2^-k A[n][j]), is a congruence of every information block: infos scale
by 4^-k, means by 2^k and covariances by 4^k.  Rescaling an observation,
y_n -> 2^k y_n (R_n -> 4^k R_n, A[n][.] -> 2^k A[n][.]), changes no info
and no mean.  The means are linear in y.  Power-of-two factors are exact
in floating point, so none of these needs a reference solution or a
tolerance: each holds to the bit.

Two more symmetries change the order of the sums, so they hold to
rounding, checked within 1e-12 relative: relabelling the node ids
permutes every output, and the means are additive in y.
"""

import dataclasses
import functools

import numpy as np
import pytest

from gabp import analysis, engine, network, oracle

NET = network.generate_random(1, 16, "grid", grid_shape=(4, 4))
# A fixed number of sweeps: the stopping test is not part of the symmetry.
CONFIG = engine.ScheduleConfig(max_iterations=20, tol_frobenius=1e-300)
K = [-20, 20]


def scale_variables(net, k):
    """x -> 2^k x for every variable."""
    return network.GaussianNetwork([
        dataclasses.replace(s, prior_cov=4.0**k * s.prior_cov,
                            coeff={j: 2.0**-k * a for j, a in s.coeff.items()})
        for s in map(net.node, net.ids)
    ], net.edges)


def scale_observations(net, k):
    """y -> 2^k y for every observation."""
    return network.GaussianNetwork([
        dataclasses.replace(s, noise_cov=4.0**k * s.noise_cov, obs=2.0**k * s.obs,
                            coeff={j: 2.0**k * a for j, a in s.coeff.items()})
        for s in map(net.node, net.ids)
    ], net.edges)


@functools.cache
def run(transform=None, k=0):
    return engine.run(NET if transform is None else transform(NET, k), CONFIG)


def message_means(result):
    return np.concatenate([result.state.messages[e].mean for e in result.state.edges])


def assert_scaled(got, want, factor):
    assert np.array_equal(got, factor * want)


@pytest.mark.parametrize("k", K)
class TestVariableRescaling:
    def test_infos_and_means_scale(self, k):
        got, want = run(scale_variables, k), run()
        assert_scaled(got.trace.info, want.trace.info, 4.0**-k)
        assert_scaled(message_means(got), message_means(want), 2.0**k)

    def test_bounds_scale_by_4_to_the_minus_k(self, k):
        got = analysis.bounds_ul(analysis.build_stacked(scale_variables(NET, k)))
        want = analysis.bounds_ul(analysis.build_stacked(NET))
        for x, y in zip(got.u_blocks + got.l_blocks, want.u_blocks + want.l_blocks, strict=True):
            assert_scaled(x, y, 4.0**-k)

    def test_operator_commutes_with_the_congruence(self, k):
        op = analysis.build_stacked(NET)
        scaled_op = analysis.build_stacked(scale_variables(NET, k))
        rng = np.random.default_rng(0)
        for _ in range(3):
            c = analysis.random_state_blocks(rng, op.block_dims)
            got = analysis.apply_stacked_operator(scaled_op, [4.0**-k * x for x in c])
            for x, y in zip(got, analysis.apply_stacked_operator(op, c), strict=True):
                assert_scaled(x, y, 4.0**-k)

    def test_marginals_and_beliefs_scale(self, k):
        truth, scaled_truth = oracle.marginals(NET), oracle.marginals(scale_variables(NET, k))
        base, scaled = run().beliefs, run(scale_variables, k).beliefs
        for i in NET.ids:
            assert_scaled(scaled_truth[i][0], truth[i][0], 2.0**k)
            assert_scaled(scaled_truth[i][1], truth[i][1], 4.0**k)
            assert_scaled(scaled[i].mean, base[i].mean, 2.0**k)
            assert_scaled(scaled[i].cov, base[i].cov, 4.0**k)


@pytest.mark.parametrize("k", K)
def test_observation_rescaling_changes_nothing(k):
    got, want = run(scale_observations, k), run()
    assert np.array_equal(got.trace.info, want.trace.info)
    assert np.array_equal(message_means(got), message_means(want))
    truth, scaled_truth = oracle.marginals(NET), oracle.marginals(scale_observations(NET, k))
    for i in NET.ids:
        assert np.array_equal(scaled_truth[i][0], truth[i][0])
        assert np.array_equal(scaled_truth[i][1], truth[i][1])


def test_means_are_linear_in_y():
    doubled = NET.with_obs({i: 2.0 * NET.node(i).obs for i in NET.ids})
    assert_scaled(message_means(engine.run(doubled, CONFIG)), message_means(run()), 2.0)


def relabel(net, perm):
    """Node i becomes node perm[i]."""
    return network.GaussianNetwork([
        dataclasses.replace(s, id=perm[s.id], coeff={perm[j]: a for j, a in s.coeff.items()})
        for s in map(net.node, net.ids)
    ], [(perm[a], perm[b]) for a, b in net.edges])


def assert_close(got, want):
    """Equal up to rounding: within 1e-12 of ``want``'s norm."""
    got, want = (np.concatenate([np.ravel(x) for x in xs]) for xs in (got, want))
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_relabelling_permutes_the_outputs():
    perm = dict(zip(NET.ids, (np.random.default_rng(0).permutation(NET.num_nodes) + 1).tolist()))
    assert sorted(perm.values()) == list(NET.ids) and any(i != j for i, j in perm.items())
    got, want = engine.run(relabel(NET, perm), CONFIG), run()
    moved = {e: network.DirectedEdge(perm[e.factor], perm[e.variable]) for e in want.state.edges}
    for field in ("info", "mean"):
        assert_close([getattr(got.state.messages[moved[e]], field) for e in want.state.edges],
                     [getattr(want.state.messages[e], field) for e in want.state.edges])
    truth, moved_truth = oracle.marginals(NET), oracle.marginals(relabel(NET, perm))
    for i in NET.ids:
        assert_close([got.beliefs[perm[i]].mean, got.beliefs[perm[i]].cov],
                     [want.beliefs[i].mean, want.beliefs[i].cov])
        assert_close(moved_truth[perm[i]], truth[i])


def test_means_are_additive_in_y():
    rng = np.random.default_rng(0)
    y1 = {i: NET.node(i).obs for i in NET.ids}
    y2 = {i: rng.standard_normal(NET.obs_dim(i)) for i in NET.ids}
    nets = [NET.with_obs(y) for y in (y1, y2, {i: y1[i] + y2[i] for i in NET.ids})]
    runs = [engine.run(net, CONFIG) for net in nets]
    truths = [oracle.marginals(net) for net in nets]
    beliefs = [np.concatenate([r.beliefs[i].mean for i in NET.ids]) for r in runs]
    oracle_means = [np.concatenate([t[i][0] for i in NET.ids]) for t in truths]
    for m1, m2, m12 in (map(message_means, runs), beliefs, oracle_means):
        assert np.linalg.norm(m12 - m1 - m2) <= 1e-12 * (np.linalg.norm(m1) + np.linalg.norm(m2))
