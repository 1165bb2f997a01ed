import dataclasses
import types

import numpy as np
import pytest
import scipy.linalg

from gabp import cli, engine, network, oracle
from gabp.cones import NumericalError
from gabp.engine import ScheduleConfig
from conftest import two_node_chain


def dense_joint(net):
    """Reference stacked model: dense A_bar, R_bar, W_bar and y_bar, with the
    slice of each variable's and each observation's block (ascending id)."""
    def spans(dims):
        ends = np.cumsum(dims)
        return {i: slice(e - d, e) for i, d, e in zip(net.ids, dims, ends)}

    var_spans = spans([net.var_dim(i) for i in net.ids])
    obs_spans = spans([net.obs_dim(i) for i in net.ids])
    total_var = sum(net.var_dim(i) for i in net.ids)
    total_obs = sum(net.obs_dim(i) for i in net.ids)
    a_bar = np.zeros((total_obs, total_var))
    r_bar = np.zeros((total_obs, total_obs))
    w_bar = np.zeros((total_var, total_var))
    y_bar = np.zeros(total_obs)
    for n in net.ids:
        node = net.node(n)
        r_bar[obs_spans[n], obs_spans[n]] = node.noise_cov
        y_bar[obs_spans[n]] = node.obs
        w_bar[var_spans[n], var_spans[n]] = node.prior_cov
        for j in net.factor_scope(n):
            a_bar[obs_spans[n], var_spans[j]] = node.coeff[j]
    return types.SimpleNamespace(
        a_bar=a_bar, r_bar=r_bar, w_bar=w_bar, y_bar=y_bar,
        var_spans=var_spans, obs_spans=obs_spans,
    )


def dense_posterior(net):
    """Reference posterior: one Cholesky of the stacked R_bar, as in
    Cov = (W_bar^-1 + A_bar^T R_bar^-1 A_bar)^-1, mean = Cov A_bar^T R_bar^-1 y."""
    joint = dense_joint(net)
    r_inv_a = scipy.linalg.solve(joint.r_bar, joint.a_bar, assume_a="pos")
    prec = np.linalg.inv(joint.w_bar) + joint.a_bar.T @ r_inv_a
    cov = np.linalg.inv((prec + prec.T) / 2.0)
    return cov @ (r_inv_a.T @ joint.y_bar), cov, joint


def posterior_instances():
    return {
        "golden": network.two_node_symmetric(),
        "chain": two_node_chain(),
        "grid16": network.generate_random(1, 16, "grid", grid_shape=(4, 4)),
        "er30": network.generate_random(1, 30, "er", er_prob=0.2, dim_range=(1, 3)),
        "tree": network.generate_random(7, 12, "tree", dim_range=(1, 3)),
    }


class TestJointAssembly:
    """The dense reference itself: the stacked model of the module docstring."""

    def test_spans_and_shapes(self):
        net = network.generate_random(2, 5, "er", dim_range=(1, 3))
        joint = dense_joint(net)
        nvar = sum(net.var_dim(i) for i in net.ids)
        nobs = sum(net.obs_dim(i) for i in net.ids)
        assert joint.a_bar.shape == (nobs, nvar)
        assert joint.r_bar.shape == (nobs, nobs)
        assert joint.w_bar.shape == (nvar, nvar)
        assert joint.y_bar.shape == (nobs,)

    def test_blocks_placed(self):
        net = two_node_chain()
        joint = dense_joint(net)
        # Node 1 observes x1 + x2, node 2 observes x2 only.
        assert np.array_equal(joint.a_bar, [[1.0, 1.0], [0.0, 1.0]])
        assert np.array_equal(joint.r_bar, np.eye(2))
        assert np.array_equal(joint.w_bar, np.eye(2))
        assert np.array_equal(joint.y_bar, [0.3, -0.2])


class TestCentralizedPosterior:
    def test_chain_hand_values(self):
        # Precision [[2,1],[1,3]] inverts to [[3,-1],[-1,2]]/5.
        y = (0.3, -0.2)
        mean, cov = oracle.centralized_posterior(two_node_chain(y=y))
        assert np.allclose(cov, np.array([[3.0, -1.0], [-1.0, 2.0]]) / 5.0, atol=1e-14)
        assert mean[0] == pytest.approx((2 * y[0] - y[1]) / 5, abs=1e-14)
        assert mean[1] == pytest.approx((y[0] + 2 * y[1]) / 5, abs=1e-14)

    def test_symmetric_pair_hand_values(self):
        # Precision [[3,2],[2,3]] inverts to [[3,-2],[-2,3]]/5, and both
        # means collapse to (y1 + y2)/5.
        y = (0.3, -0.2)
        mean, cov = oracle.centralized_posterior(network.two_node_symmetric(y=y))
        assert np.allclose(cov, np.array([[3.0, -2.0], [-2.0, 3.0]]) / 5.0, atol=1e-14)
        want = (y[0] + y[1]) / 5.0
        assert np.allclose(mean, [want, want], atol=1e-14)

    def test_means_past_the_information_overflow(self):
        # The information vector of y = (1e308, 1e308) sums to 2e308, but the
        # means (y1 + y2) / 5 are finite: the oracle solves for y scaled by a
        # power of two and scales the mean back.
        mean, _ = oracle.centralized_posterior(network.two_node_symmetric(y=(1e308, 1e308)))
        want = 1e308 / 5 + 1e308 / 5
        assert np.all(np.abs(mean - want) <= 1e-15 * want)

    def test_observation_term_overflow_is_located(self):
        # Scaled y is below 1, but A^T R^{-1} alone is out of range.
        node = network.NodeSpec(1, 1, np.eye(1), 1e-10 * np.eye(1), [0.5], {1: [[1e300]]})
        with np.errstate(over="ignore"):
            with pytest.raises(NumericalError,
                               match="^information vector overflows at node 1's observation$"):
                oracle.centralized_posterior(network.GaussianNetwork([node], []))

    def test_matches_direct_formula_on_random_instance(self):
        net = network.generate_random(12, 6, "er", dim_range=(1, 3))
        joint = dense_joint(net)
        mean, cov = oracle.centralized_posterior(net)
        prec = np.linalg.inv(joint.w_bar) + joint.a_bar.T @ np.linalg.solve(
            joint.r_bar, joint.a_bar
        )
        want_cov = np.linalg.inv(prec)
        want_mean = want_cov @ joint.a_bar.T @ np.linalg.solve(joint.r_bar, joint.y_bar)
        assert np.allclose(cov, want_cov, atol=1e-11)
        assert np.allclose(mean, want_mean, atol=1e-11)

    def test_marginals_are_slices(self):
        net = network.generate_random(13, 4, "er", dim_range=(2, 3))
        mean, cov = oracle.centralized_posterior(net)
        joint = dense_joint(net)
        marg = oracle.marginals(net)
        for i in net.ids:
            s = joint.var_spans[i]
            assert np.array_equal(marg[i][0], mean[s])
            assert np.array_equal(marg[i][1], cov[s, s])

    @pytest.mark.parametrize("name", list(posterior_instances()))
    def test_matches_dense_reference_blockwise(self, name):
        net = posterior_instances()[name]
        want_mean, want_cov, joint = dense_posterior(net)
        marg = oracle.marginals(net)
        mean, cov = oracle.centralized_posterior(net)
        assert mean.shape == want_mean.shape and cov.shape == want_cov.shape
        for i in net.ids:
            s = joint.var_spans[i]
            for got, want in ((marg[i][0], want_mean[s]), (marg[i][1], want_cov[s, s])):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            for j in net.ids:
                block, want = cov[s, joint.var_spans[j]], want_cov[s, joint.var_spans[j]]
                assert np.max(np.abs(block - want)) <= 1e-12 * np.max(np.abs(want_cov))

    @pytest.mark.parametrize("field, what", [("noise_cov", "noise"), ("prior_cov", "prior")])
    def test_non_pd_covariance_names_its_node(self, field, what):
        # Built in Python, so validate() never sees the bad block.
        net = network.generate_random(3, 6, "er", dim_range=(1, 3))
        node = net.node(4)
        bad = -np.eye(getattr(node, field).shape[0])
        nodes = [dataclasses.replace(node, **{field: bad}) if i == 4 else net.node(i)
                 for i in net.ids]
        broken = network.GaussianNetwork(nodes, net.edges)
        with pytest.raises(NumericalError, match=rf"^node 4 {what} covariance is not positive"):
            oracle.marginals(broken)


class TestTreeDetection:
    def test_chain_is_tree(self):
        assert oracle.factor_graph_is_tree(two_node_chain())

    def test_mutual_observation_is_loopy(self):
        # Even a two-node network is loopy once both observe each other:
        # x1 - f1 - x2 - f2 - x1 closes a 4-cycle.
        assert not oracle.factor_graph_is_tree(network.two_node_symmetric())

    def test_generated_trees(self):
        for seed in range(5):
            net = network.generate_random(seed, 7, "tree")
            assert oracle.factor_graph_is_tree(net)

    def test_er_with_full_scopes_is_loopy(self):
        net = network.generate_random(3, 6, "er")
        assert not oracle.factor_graph_is_tree(net)

    def test_forest_of_several_components(self):
        # Every node observes only itself: one factor-variable edge per
        # node, m components, still cycle free.
        one = np.eye(1)
        nodes = [network.NodeSpec(i, 1, one, one, [0.1], {i: one}) for i in (1, 2, 3)]
        assert oracle.factor_graph_is_tree(network.GaussianNetwork(nodes, [(1, 2), (2, 3)]))

    def test_cycle_through_three_factors_is_loopy(self):
        # f1 - x2 - f2 - x3 - f3 - x1 - f1: no two factors share a pair of
        # variables, yet the factor graph has a 6-cycle.
        one = np.eye(1)
        scopes = {1: (1, 2), 2: (2, 3), 3: (3, 1)}
        nodes = [
            network.NodeSpec(i, 1, one, np.eye(1), [0.1], {j: one for j in scopes[i]})
            for i in scopes
        ]
        net = network.GaussianNetwork(nodes, [(1, 2), (2, 3), (1, 3)])
        assert not oracle.factor_graph_is_tree(net)

    def test_single_node_is_tree(self):
        one = network.NodeSpec(1, 1, np.eye(1), np.eye(1), [0.1], {1: np.eye(1)})
        assert oracle.factor_graph_is_tree(network.GaussianNetwork([one], []))


class TestCompare:
    def run(self, net, tol=1e-13, iters=2000):
        return engine.run(net, ScheduleConfig(max_iterations=iters, tol_frobenius=tol))

    def test_tree_beliefs_exact(self):
        for seed in (20, 21, 22):
            net = network.generate_random(seed, 8, "tree")
            res = self.run(net)
            rep = oracle.compare(net, res.beliefs)
            assert rep.applicable and rep.is_tree and rep.cov_comparable
            assert rep.max_mean_error <= 1e-10
            assert rep.max_cov_error <= 1e-10

    def test_loopy_means_agree_covs_differ(self):
        net = network.two_node_symmetric()
        res = self.run(net)
        rep = oracle.compare(net, res.beliefs)
        assert rep.applicable and not rep.is_tree and not rep.cov_comparable
        assert rep.max_mean_error <= 1e-8
        # The loopy belief variance 1/sqrt(5) is genuinely below the true
        # marginal 3/5; the gap is a property of the cycle, not noise.
        want_gap = 3.0 / 5.0 - 1.0 / np.sqrt(5.0)
        assert rep.cov_errors[1] == pytest.approx(want_gap, abs=1e-9)

    def test_not_converged_not_applicable(self):
        net = network.two_node_symmetric()
        res = engine.run(net, ScheduleConfig(max_iterations=1))
        rep = oracle.compare(net, res.beliefs, converged=res.converged)
        assert not rep.applicable
        assert np.isnan(rep.max_mean_error)

    def test_report_round_trips_through_json(self):
        import json

        net = two_node_chain()
        rep = oracle.compare(net, self.run(net).beliefs)
        doc = json.loads(json.dumps(cli._jsonable(rep)))
        assert doc["is_tree"] is True
        assert set(doc["mean_errors"]) == {"1", "2"}
