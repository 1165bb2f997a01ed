"""Property sweep over generated instances at coefficient scale 1.

Every topology the generator knows, 2-8 nodes, variable dimensions up to
4 and the generator seed are drawn by hypothesis (derandomized, so the
sweep is the same on every run).  On each instance the converged beliefs
match the centralized posterior means, factor trees are exact in means and
covariances as in criterion 10, and one engine sweep agrees with the
stacked operator F as in criterion 11.
"""

import numpy as np
from hypothesis import given, settings, strategies

from gabp import analysis, engine, network, oracle


def worst_relative_gap(got, want):
    """Largest entry of |got - want| over the largest entry of |want|,
    taken per block and maximized over the blocks."""
    return max(float(np.max(np.abs(g - w)) / np.max(np.abs(w))) for g, w in zip(got, want))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    seed=strategies.integers(0, 2**16),
    topology=strategies.sampled_from(network.TOPOLOGIES),
    num_nodes=strategies.integers(2, 8),
    max_dim=strategies.integers(1, 4),
)
def test_unit_scale_instances(seed, topology, num_nodes, max_dim):
    net = network.generate_random(seed, num_nodes, topology, dim_range=(1, max_dim))
    res = engine.run(net, engine.ScheduleConfig(max_iterations=500, tol_frobenius=1e-13))
    assert res.converged and res.mean_converged

    truth = oracle.marginals(net)
    means = [truth[i][0] for i in net.ids]
    scale = max(float(np.max(np.abs(m))) for m in means)
    gap = max(float(np.max(np.abs(res.beliefs[i].mean - m))) for i, m in zip(net.ids, means))
    assert gap <= 1e-8 * scale

    if oracle.factor_graph_is_tree(net):
        rep = oracle.compare(net, res.beliefs)
        assert rep.max_mean_error <= 1e-8 and rep.max_cov_error <= 1e-8

    op = analysis.build_stacked(net)
    blocks = analysis.random_state_blocks(np.random.default_rng(seed), op.block_dims)
    state = engine.MessageState(0, {e: engine.EdgeMessage(e, b, np.zeros(b.shape[0]))
                                    for e, b in zip(op.edge_order, blocks)})
    sweep = engine.combined_update(net, state)
    stacked = analysis.apply_stacked_operator(op, blocks)
    assert worst_relative_gap([sweep.messages[e].info for e in op.edge_order], stacked) <= 1e-12
