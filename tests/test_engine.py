import numpy as np
import pytest

from gabp import analysis, engine, network
from gabp.cones import NumericalError
from gabp.engine import MessageState, ScheduleConfig
from gabp.network import DirectedEdge

GOLDEN_FIXED_POINT = (np.sqrt(5.0) - 1.0) / 2.0


def run_two_node(**kw):
    cfg = ScheduleConfig(max_iterations=kw.pop("max_iterations", 200),
                         tol_frobenius=kw.pop("tol_frobenius", 1e-13), **kw)
    return engine.run(network.two_node_symmetric(), cfg)


class TestInitialState:
    def test_zero(self):
        net = network.two_node_symmetric()
        st = engine.initial_state(net)
        assert st.iteration == 0
        assert len(st.messages) == 4
        assert all(np.all(m.info == 0.0) for m in st.messages.values())

    def test_identity_scaled(self):
        net = network.generate_random(1, 4, "er", dim_range=(2, 2))
        st = engine.initial_state(net, "identity", scale=3.5)
        for e in st.edges:
            assert np.array_equal(st.messages[e].info, 3.5 * np.eye(2))

    def test_edges_cover_factor_graph(self):
        net = network.generate_random(2, 5, "er")
        st = engine.initial_state(net)
        assert st.edges == net.directed_edges

    def test_stacked_layout(self):
        net = network.generate_random(3, 4, "er", dim_range=(1, 3))
        st = engine.initial_state(net, "identity")
        stacked = st.stacked()
        total = sum(net.var_dim(e.variable) for e in net.directed_edges)
        assert stacked.shape == (total, total)
        assert np.array_equal(stacked, np.eye(total))


class TestCheckInitState:
    def make(self, net, edit=None):
        st = engine.initial_state(net, "identity")
        msgs = dict(st.messages)
        if edit:
            edit(msgs)
        return MessageState(0, msgs)

    def test_accepts_valid(self):
        net = network.two_node_symmetric()
        out = engine.check_init_state(net, self.make(net))
        assert out.iteration == 0

    def test_missing_edge(self):
        net = network.two_node_symmetric()
        st = self.make(net, lambda m: m.pop(DirectedEdge(1, 2)))
        with pytest.raises(ValueError, match="missing"):
            engine.check_init_state(net, st)

    def test_wrong_shape(self):
        net = network.two_node_symmetric()

        def edit(m):
            e = DirectedEdge(1, 1)
            m[e] = engine.EdgeMessage(e, np.eye(2), np.zeros(2))

        with pytest.raises(ValueError, match="shape"):
            engine.check_init_state(net, self.make(net, edit))

    def test_not_psd(self):
        net = network.two_node_symmetric()

        def edit(m):
            e = DirectedEdge(1, 1)
            m[e] = engine.EdgeMessage(e, np.array([[-0.5]]), np.zeros(1))

        with pytest.raises(ValueError, match="positive semidefinite"):
            engine.check_init_state(net, self.make(net, edit))

    def test_psd_boundary_accepted(self):
        # Zero blocks are legal starts; the cone's boundary is included.
        net = network.two_node_symmetric()
        out = engine.check_init_state(net, engine.initial_state(net, "zero"))
        assert all(np.all(m.info == 0.0) for m in out.messages.values())


class TestScheduleConfig:
    def test_defaults(self):
        cfg = ScheduleConfig()
        assert cfg.max_iterations == 500 and cfg.init == "zero"

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_iterations": -1},
            {"tol_frobenius": 0.0},
            {"init": "ones"},
            {"init": 42},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            ScheduleConfig(**kw)


class TestSingleSweep:
    def test_first_sweep_from_zero_golden(self):
        # With zero incoming info the stage-1 message carries the prior
        # alone (info 1), so S = R + A 1 A = 2 and the outgoing info is
        # A S^{-1} A = 1/2 on every edge.
        net = network.two_node_symmetric()
        st1 = engine.combined_update(net, engine.initial_state(net))
        assert st1.iteration == 1
        for e in st1.edges:
            assert st1.messages[e].info[0, 0] == pytest.approx(0.5, abs=1e-15)

    def test_second_sweep_golden(self):
        # c' = (1 + c) / (2 + c) applied to 1/2 gives 3/5.
        net = network.two_node_symmetric()
        st2 = engine.combined_update(net, engine.combined_update(net, engine.initial_state(net)))
        for e in st2.edges:
            assert st2.messages[e].info[0, 0] == pytest.approx(0.6, abs=1e-14)

    def test_var_to_factor_prior_plus_messages(self):
        net = network.two_node_symmetric()
        st1 = engine.combined_update(net, engine.initial_state(net))
        # Message 2 -> f_1 excludes f_1's own output, leaving the prior
        # info 1 plus the info 1/2 arriving from f_2.
        msg = engine.var_to_factor(net, st1, 2, 1)
        assert msg.info[0, 0] == pytest.approx(1.5, abs=1e-14)
        assert msg.cov[0, 0] == pytest.approx(2.0 / 3.0, abs=1e-14)

    def test_var_to_factor_rejects_non_adjacent(self):
        net = network.two_node_chain()
        with pytest.raises(ValueError, match="does not feed"):
            engine.var_to_factor(net, engine.initial_state(net), 1, 2)

    def test_factor_to_var_rejects_missing_stage1(self):
        net = network.two_node_symmetric()
        with pytest.raises(ValueError, match="missing stage-1"):
            engine.factor_to_var(net, {}, 1, 1)

    def test_factor_to_var_rejects_out_of_scope(self):
        net = network.two_node_chain()
        with pytest.raises(ValueError, match="scope"):
            engine.factor_to_var(net, {}, 2, 1)


class TestGoldenConvergence:
    def test_fixed_point_value(self):
        res = run_two_node()
        assert res.converged
        for e in res.state.edges:
            assert res.state.messages[e].info[0, 0] == pytest.approx(
                GOLDEN_FIXED_POINT, abs=1e-12
            )

    def test_scalar_map_fixed_point_identity(self):
        # The limit satisfies c = (1 + c) / (2 + c) to machine precision.
        res = run_two_node()
        c = res.state.messages[DirectedEdge(1, 2)].info[0, 0]
        assert c == pytest.approx((1 + c) / (2 + c), abs=1e-14)

    def test_belief_variance(self):
        res = run_two_node()
        assert res.beliefs[1].cov[0, 0] == pytest.approx(1 / np.sqrt(5), abs=1e-12)

    def test_belief_mean_matches_centralized(self):
        y = (0.7, 0.1)
        net = network.two_node_symmetric(y=y)
        res = engine.run(net, ScheduleConfig(max_iterations=300, tol_frobenius=1e-14))
        want = (y[0] + y[1]) / 5.0
        # The mean recursion trails the info recursion by a constant
        # factor, so at info tolerance 1e-14 the means carry a few 1e-9.
        assert res.beliefs[1].mean[0] == pytest.approx(want, abs=1e-8)
        assert res.beliefs[2].mean[0] == pytest.approx(want, abs=1e-8)

    def test_iteration_count_reasonable(self):
        res = run_two_node(tol_frobenius=1e-10)
        assert res.converged and res.iterations <= 80


class TestTreeConvergence:
    def test_chain_exact_beliefs(self):
        # Hand inversion of the 2x2 joint precision [[2,1],[1,3]]:
        # P_1 = 3/5, mu_1 = (2 y_1 - y_2)/5, P_2 = 2/5, mu_2 = (y_1 + 2 y_2)/5.
        y = (0.3, -0.2)
        net = network.two_node_chain(y=y)
        res = engine.run(net, ScheduleConfig(max_iterations=50, tol_frobenius=1e-13))
        assert res.converged
        assert res.beliefs[1].cov[0, 0] == pytest.approx(0.6, abs=1e-12)
        assert res.beliefs[2].cov[0, 0] == pytest.approx(0.4, abs=1e-12)
        assert res.beliefs[1].mean[0] == pytest.approx((2 * y[0] - y[1]) / 5, abs=1e-12)
        assert res.beliefs[2].mean[0] == pytest.approx((y[0] + 2 * y[1]) / 5, abs=1e-12)

    def test_tree_settles_fast(self):
        net = network.generate_random(4, 9, "tree")
        res = engine.run(net, ScheduleConfig(max_iterations=200, tol_frobenius=1e-13))
        # Message infos settle once information has crossed the diameter.
        assert res.converged and res.iterations <= 2 * net.num_nodes + 2


class TestRunBehavior:
    def test_zero_budget_returns_init(self):
        net = network.two_node_symmetric()
        res = engine.run(net, ScheduleConfig(max_iterations=0))
        assert not res.converged
        assert res.iterations == 0
        assert len(res.trace) == 1
        assert np.isnan(res.trace.records[0].frobenius_delta)

    def test_trace_shape(self):
        res = run_two_node()
        assert len(res.trace) == res.iterations + 1
        assert res.trace.records[0].iteration == 0
        assert res.trace.records[-1].iteration == res.iterations
        assert res.trace.edge_order == network.two_node_symmetric().directed_edges
        assert len(res.trace.info_blocks[0]) == 4

    def test_deltas_recorded(self):
        # From zero init every edge info moves 0 -> 1/2, and the delta is
        # the max over edges, so the first recorded value is exactly 1/2.
        res = run_two_node()
        assert res.trace.records[1].frobenius_delta == pytest.approx(0.5, abs=1e-12)
        assert res.trace.records[-1].frobenius_delta <= 1e-13

    def test_beliefs_for_all_nodes(self):
        net = network.generate_random(6, 6, "er")
        res = engine.run(net, ScheduleConfig(max_iterations=2000, tol_frobenius=1e-12))
        assert res.converged
        assert sorted(res.beliefs) == list(net.ids)
        for i in net.ids:
            assert res.beliefs[i].cov.shape == (net.var_dim(i),) * 2

    def test_explicit_init_runs(self):
        net = network.two_node_symmetric()
        st = engine.initial_state(net, "identity", scale=7.0)
        res = engine.run(net, ScheduleConfig(init=st, max_iterations=200,
                                             tol_frobenius=1e-13))
        assert res.converged

    def test_raises_on_indefinite_prior(self):
        bad = network.GaussianNetwork(
            [
                network.NodeSpec(1, 1, np.array([[-1.0]]), np.eye(1), [0.0], {1: np.eye(1)}),
            ],
            [],
        )
        with pytest.raises(NumericalError, match="prior"):
            engine.run(bad, ScheduleConfig(max_iterations=2))


class TestInitIndependence:
    def test_same_fixed_point_from_three_starts(self):
        net = network.generate_random(30, 6, "er")
        finals = []
        for init, scale in (("zero", 1.0), ("identity", 5.0), ("identity", 0.01)):
            res = engine.run(
                net,
                ScheduleConfig(
                    max_iterations=3000, tol_frobenius=1e-12, init=init, init_scale=scale
                ),
            )
            assert res.converged
            finals.append(res.state.stacked())
        for other in finals[1:]:
            assert np.linalg.norm(other - finals[0], "fro") <= 1e-9

    def test_random_psd_start(self):
        net = network.generate_random(31, 5, "er")
        rng = np.random.default_rng(0)
        dims = [net.var_dim(e.variable) for e in net.directed_edges]
        blocks = analysis.random_state_blocks(rng, dims)
        msgs = {
            e: engine.EdgeMessage(e, b, np.zeros(b.shape[0]))
            for e, b in zip(net.directed_edges, blocks)
        }
        res_a = engine.run(
            net,
            ScheduleConfig(init=MessageState(0, msgs), max_iterations=3000,
                           tol_frobenius=1e-12),
        )
        res_b = engine.run(net, ScheduleConfig(max_iterations=3000, tol_frobenius=1e-12))
        assert res_a.converged and res_b.converged
        diff = np.linalg.norm(res_a.state.stacked() - res_b.state.stacked(), "fro")
        assert diff <= 1e-9


class TestDeterminism:
    def test_bitwise_repeatable(self):
        net = network.generate_random(33, 7, "er")
        r1 = engine.run(net, ScheduleConfig(max_iterations=40, tol_frobenius=1e-15))
        r2 = engine.run(net, ScheduleConfig(max_iterations=40, tol_frobenius=1e-15))
        assert r1.iterations == r2.iterations
        for e in r1.state.edges:
            assert np.array_equal(r1.state.messages[e].info, r2.state.messages[e].info)
            assert np.array_equal(r1.state.messages[e].mean, r2.state.messages[e].mean)


class TestObservationIndependence:
    def test_info_trajectory_ignores_y(self):
        net = network.generate_random(35, 5, "er")
        rng = np.random.default_rng(99)
        shifted = net.with_obs(
            {i: net.node(i).obs + rng.standard_normal(net.obs_dim(i)) for i in net.ids}
        )
        cfg = ScheduleConfig(max_iterations=30, tol_frobenius=1e-15)
        r1 = engine.run(net, cfg)
        r2 = engine.run(shifted, cfg)
        for snap1, snap2 in zip(r1.trace.info_blocks, r2.trace.info_blocks):
            for b1, b2 in zip(snap1, snap2):
                assert np.array_equal(b1, b2)
        # ... while the means do move.
        assert any(
            not np.array_equal(r1.state.messages[e].mean, r2.state.messages[e].mean)
            for e in r1.state.edges
        )


class TestPositivity:
    def test_message_infos_stay_pd_after_first_sweep(self):
        # Existence in Gaussian form: every outgoing info block is PD
        # once a full sweep has mixed the priors in.
        for seed in (40, 41, 42):
            net = network.generate_random(seed, 6, "er")
            res = engine.run(net, ScheduleConfig(max_iterations=300, tol_frobenius=1e-12))
            for snapshot in res.trace.info_blocks[1:]:
                for block in snapshot:
                    w = np.linalg.eigvalsh(block)
                    assert w[0] > 1e-12 * max(1.0, w[-1])

    def test_beliefs_pd(self):
        net = network.generate_random(43, 6, "er")
        res = engine.run(net, ScheduleConfig(max_iterations=500, tol_frobenius=1e-12))
        for b in res.beliefs.values():
            assert np.linalg.eigvalsh(b.cov)[0] > 0
