import collections
import dataclasses
import functools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from gabp import analysis, cones, engine, network, oracle
from gabp.cones import NumericalError
from gabp.engine import MessageState, ScheduleConfig
from gabp.network import DirectedEdge
from conftest import two_node_chain

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

    def test_unknown_init(self):
        with pytest.raises(ValueError, match="^unknown init 'ones'$"):
            engine.initial_state(network.two_node_symmetric(), "ones")

    def test_stacked_layout(self):
        net = network.generate_random(3, 4, "er", dim_range=(1, 3))
        st = engine.initial_state(net, "identity")
        blocks = st.info_blocks()
        dims = [net.var_dim(e.variable) for e in net.directed_edges]
        assert st.block_dims() == dims
        assert all(np.array_equal(b, np.eye(d)) for b, d in zip(blocks, dims, strict=True))


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

    def test_wrong_mean_length(self):
        net = network.two_node_symmetric()

        def edit(m):
            e = DirectedEdge(1, 2)
            m[e] = engine.EdgeMessage(e, np.eye(1), np.zeros(2))

        message = r"^init mean for edge \(1, 2\) has length 2, expected 1$"
        with pytest.raises(ValueError, match=message):
            engine.check_init_state(net, self.make(net, edit))

    def test_not_psd(self):
        net = network.two_node_symmetric()

        def edit(m):
            e = DirectedEdge(1, 1)
            m[e] = engine.EdgeMessage(e, np.array([[-0.5]]), np.zeros(1))

        with pytest.raises(ValueError, match="positive semidefinite"):
            engine.check_init_state(net, self.make(net, edit))

    def test_symmetry_is_relative_to_the_block(self):
        # A 10 % asymmetry is not rounding, however small the entries are.
        net = network.generate_random(4, 4, "er", dim_range=(2, 2))
        e = net.directed_edges[0]

        def edit(m, info):
            m[e] = engine.EdgeMessage(e, np.array(info), np.zeros(2))

        with pytest.raises(ValueError, match="not symmetric"):
            engine.check_init_state(
                net, self.make(net, lambda m: edit(m, [[1e-12, 1e-13], [0.0, 1e-12]]))
            )
        # Asymmetry at rounding level of the block's own size still passes.
        near = [[1e-12, 1e-13], [1e-13 * (1 + 1e-15), 1e-12]]
        out = engine.check_init_state(net, self.make(net, lambda m: edit(m, near)))
        assert np.array_equal(out.messages[e].info, out.messages[e].info.T)

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
            {"max_iterations": float("nan")},
            {"tol_frobenius": 0.0},
            {"tol_frobenius": float("nan")},
            {"init": "ones"},
            {"init": 42},
            {"init": "identity", "init_scale": -1.0},
            {"init": "identity", "init_scale": float("nan")},
            {"init": "identity", "init_scale": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError, match="|".join(kw)):
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

    def test_var_to_factor_projections(self):
        # The projections are the kernel's products of the message's own
        # covariance and mean, cut to the factor's p observation rows of its
        # size group's padded arrays; the message's arrays are read-only.
        net = network.generate_random(5, 6, "er", er_prob=0.6, dim_range=(1, 3))
        state = engine.combined_update(net, engine.initial_state(net))
        for n in net.ids:
            for j in net.factor_scope(n):
                msg = engine.var_to_factor(net, state, j, n)
                a = net.node(n).coeff[j]
                assert msg.proj_cov.shape == (net.obs_dim(n),) * 2
                assert close([msg.proj_cov], [a @ msg.cov @ a.T], 1e-14)
                assert close([msg.proj_mean], [a @ msg.mean], 1e-14)
                for x in (msg.info, msg.mean, msg.cov, msg.proj_cov, msg.proj_mean):
                    assert not x.flags.writeable

    def test_products_shared_across_targets_bitwise(self):
        # Each variable's totals T_j = W_j^{-1} + sum_k C_kj and r_j = sum_k
        # C_kj m_kj are summed once per state in ascending factor order.  Every
        # stage-1 message takes its own info out of T_j, bitwise; its
        # covariance is the kernel's batched Cholesky inverse, within 1e-14
        # of cones.inv_pd.  Every belief inverts T_j whole, in one batch for
        # all variables, within 1e-15 of cones.inv_pd.  The direct
        # leave-one-out sums agree to rounding.
        net = network.generate_random(8, 8, "er", dim_range=(1, 4))
        state = engine.initial_state(net)
        for _ in range(3):
            state = engine.combined_update(net, state)
        def sums(j, skip=None):
            info = net.prior_info(j).copy()
            rhs = np.zeros(net.var_dim(j))
            for k in net.var_factors(j):
                if k != skip:
                    info += state.messages[(k, j)].info
                    rhs += state.messages[(k, j)].info @ state.messages[(k, j)].mean
            return info, rhs

        for j in net.ids:
            total, r = sums(j)
            for n in net.var_factors(j):
                own = state.messages[(n, j)]
                info = total - own.info
                cov = cones.inv_pd(info)
                msg = engine.var_to_factor(net, state, j, n)
                assert np.array_equal(msg.info, info)
                assert np.array_equal(msg.cov, msg.cov.T) and close([msg.cov], [cov], 1e-14)
                assert close([msg.mean], [cov @ (r - own.info @ own.mean)], 1e-14)
                direct_info, direct_rhs = sums(j, skip=n)
                direct_cov = cones.inv_pd(direct_info)
                for got, want in ((msg.info, direct_info), (msg.cov, direct_cov),
                                  (msg.mean, direct_cov @ direct_rhs)):
                    assert close([got], [want], 1e-14)
            cov = cones.inv_pd(total)
            belief = engine.compute_belief(net, state, j)
            assert close([belief.cov], [cov], 1e-15) and close([belief.mean], [cov @ r], 1e-14)

    def test_var_to_factor_fields_are_lazy_read_only_views(self):
        # A message holds the state's stage-1 stacks: every field is a view
        # of them that cannot be written, and the message takes no new
        # attribute value.
        net = network.generate_random(5, 6, "er", er_prob=0.6, dim_range=(1, 3))
        state = engine.combined_update(net, engine.initial_state(net))
        stage1 = state._cached(engine._plan(net), "stage1", engine._stage1)
        for n, j in net.directed_edges:
            msg = engine.var_to_factor(net, state, j, n)
            for field in stage1._fields:
                view = getattr(msg, field)
                assert np.shares_memory(view, getattr(stage1, field))
                assert not view.flags.writeable
            for name in (*stage1._fields, *msg._fields, "other"):
                with pytest.raises(AttributeError):
                    setattr(msg, name, 0)

    def test_sweep_reads_no_stage1_view(self, monkeypatch):
        # A sweep's stage 2 reads the batched stage-1 arrays, never a
        # message's fields: with every field raising, it gives the same state.
        net = network.generate_random(5, 6, "er", er_prob=0.6, dim_range=(1, 3))
        state = engine.combined_update(net, engine.initial_state(net))
        want = engine.combined_update(net, state)

        def unread(msg):
            raise AssertionError("a sweep read a stage-1 view")

        for field in engine._Stage1._fields:
            monkeypatch.setattr(engine.VarToFactorMessage, field, property(unread))
        got = engine.combined_update(net, MessageState(state.iteration, state.messages))
        for e in net.directed_edges:
            assert np.array_equal(got.messages[e].info, want.messages[e].info)
            assert np.array_equal(got.messages[e].mean, want.messages[e].mean)

    def test_belief_error_names_its_variable_and_spares_the_others(self):
        # One variable's T_j is not PD, so the batched belief solve fails:
        # that variable raises what cones.inv_pd raises on its T_j, and
        # every other variable still gets inv_pd's covariance.
        net = network.generate_random(4, 6, "ring", dim_range=(1, 3))
        msgs = dict(engine.initial_state(net).messages)
        bad = net.ids[2]
        edge = DirectedEdge(net.var_factors(bad)[0], bad)
        msgs[edge] = engine.EdgeMessage(edge, -2.0 * net.prior_info(bad), msgs[edge].mean)
        state = MessageState(0, msgs)
        for j in net.ids:
            if j != bad:
                belief = engine.compute_belief(net, state, j)
                assert close([belief.cov], [cones.inv_pd(net.prior_info(j))], 1e-15)
        with pytest.raises(NumericalError) as want:
            cones.inv_pd(-net.prior_info(bad), context=f"belief information for variable {bad}")
        with pytest.raises(NumericalError, match=f"^belief information for variable {bad} "
                           "is not positive definite") as got:
            engine.compute_belief(net, state, bad)
        assert str(got.value) == str(want.value)

    def test_var_to_factor_rejects_non_adjacent(self):
        net = two_node_chain()
        with pytest.raises(ValueError, match="does not feed"):
            engine.var_to_factor(net, engine.initial_state(net), 1, 2)

    def test_factor_to_var_rejects_missing_stage1(self):
        net = network.two_node_symmetric()
        with pytest.raises(ValueError, match="missing stage-1"):
            engine.factor_to_var(net, {}, 1, 1)

    def test_factor_to_var_rejects_out_of_scope(self):
        net = two_node_chain()
        with pytest.raises(ValueError, match="scope"):
            engine.factor_to_var(net, {}, 2, 1)

    def test_swept_factor_to_var_rejects_out_of_scope(self, monkeypatch):
        # A sweep's inbox for factor 2 takes the plan's lookup, and it
        # rejects variable 1 with the plain-dict path's text.
        net = two_node_chain()
        inboxes, real = {}, engine.factor_to_var
        monkeypatch.setattr(engine, "factor_to_var", lambda net, inbox, n, i: (
            inboxes.setdefault(n, inbox), real(net, inbox, n, i))[1])
        engine.combined_update(net, engine.initial_state(net))
        assert isinstance(inboxes[2], engine._Swept)
        with pytest.raises(ValueError) as plain:
            real(net, {}, 2, 1)
        with pytest.raises(ValueError) as got:
            real(net, inboxes[2], 2, 1)
        assert str(got.value) == str(plain.value) == "variable 1 is not in factor 2's scope"


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
        net = two_node_chain(y=y)
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


class TestNonFinite:
    def test_overflowing_innovation_covariance_is_located(self):
        net = network.generate_random(2, 9, "grid", grid_shape=(3, 3), coeff_scale=1e160)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match=r"factor 1 innovation covariance "
                               r"for edge \(1, 1\) has non-finite entries"):
                engine.run(net, ScheduleConfig(max_iterations=5))

    @pytest.mark.parametrize("rho", [0.0, 0.9])
    def test_overflowing_message_is_located(self, rho):
        # S = R is finite, but A^T R^{-1} A overflows: to inf, or, with
        # terms of both signs, to NaN.
        noise = np.array([[1.0, rho], [rho, 1.0]])
        node = network.NodeSpec(1, 1, np.eye(1), noise, [0.5, 0.5], {1: [[1e308], [5e307]]})
        big = network.GaussianNetwork([node], [])
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError,
                               match=r"message on edge \(1, 1\) has non-finite entries"):
                engine.run(big, ScheduleConfig(max_iterations=5))

    def test_nan_delta_is_not_read_as_zero(self):
        # A NaN entry in any block of a flat info row or mean vector, the
        # block with the largest norm or not, makes the delta NaN.
        sizes = np.array([1, 4, 9, 4])
        for k in range(len(sizes)):
            flat = np.full(int(sizes.sum()), 1e3)
            flat[np.cumsum(sizes)[k] - 1] = np.nan
            assert np.isnan(engine._max_block_norm(flat, sizes))

    def test_deltas_of_huge_finite_means_stay_finite(self):
        # Means near 1e308 differ by finite amounts whose squares overflow.
        net = network.two_node_symmetric(y=(1e308, 1e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = engine.run(net, ScheduleConfig(tol_frobenius=0.2))
        deltas = [(r.frobenius_delta, r.mean_delta) for r in res.trace.records[1:]]
        assert np.all(np.isfinite(deltas))
        assert max(dm for _, dm in deltas) > 1e290

    def test_scaled_deltas_equal_the_unscaled_formula(self):
        net = network.generate_random(1, 16, "grid", grid_shape=(4, 4))
        res = engine.run(net, ScheduleConfig(tol_frobenius=1e-10))
        sizes = np.array(res.trace.block_dims) ** 2
        snaps = [np.concatenate(b, axis=None) for b in res.trace.info_blocks]
        for rec, new, old in zip(res.trace.records[1:], snaps[1:], snaps):
            d = new - old
            want = float(np.sqrt(np.max(np.add.reduceat(d * d, np.cumsum(sizes) - sizes))))
            assert rec.frobenius_delta == want
        rng = np.random.default_rng(3)
        dims = rng.integers(1, 4, size=40)
        for scale in (1e-150, 1e-8, 1.0, 3e5, 1e150):
            flat = rng.standard_normal(int(dims.sum())) * scale
            want = float(np.sqrt(np.max(np.add.reduceat(flat * flat, np.cumsum(dims) - dims))))
            assert engine._max_block_norm(flat, dims) == want


def frobenius_gap(xs, ys):
    """Frobenius norm of the difference of two block diagonal states."""
    return np.sqrt(sum(np.sum((x - y) ** 2) for x, y in zip(xs, ys, strict=True)))


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
            finals.append(res.state.info_blocks())
        for other in finals[1:]:
            assert frobenius_gap(other, finals[0]) <= 1e-9

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
        diff = frobenius_gap(res_a.state.info_blocks(), res_b.state.info_blocks())
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


def reference_run(net, cfg):
    """The run loop without the frozen-gain tail: full ``combined_update``
    sweeps until both deltas pass, deep-copying every snapshot."""
    state = engine.initial_state(net, cfg.init, cfg.init_scale)
    snapshots = [[b.copy() for b in state.info_blocks()]]
    converged = mean_converged = False
    for _ in range(cfg.max_iterations):
        new = engine.combined_update(net, state)
        df = max(np.linalg.norm(new.messages[e].info - state.messages[e].info) for e in new.edges)
        dm = max(np.linalg.norm(new.messages[e].mean - state.messages[e].mean) for e in new.edges)
        snapshots.append([b.copy() for b in new.info_blocks()])
        state = new
        converged = converged or df <= cfg.tol_frobenius
        if converged and dm <= cfg.tol_frobenius:
            mean_converged = True
            break
    beliefs = {i: engine.compute_belief(net, state, i) for i in net.ids}
    return state, beliefs, snapshots, converged, mean_converged


def close(got, want, rtol):
    """Every entry of the blocks ``got`` within ``rtol`` times the largest
    entry of ``want``."""
    scale = max(np.max(np.abs(w)) for w in want)
    return all(np.max(np.abs(g - w)) <= rtol * scale for g, w in zip(got, want))


EQUIVALENCE_CASES = [
    (topology, dims, init)
    for topology in ("ring", "star", "tree", "er", "grid")
    for dims in ((1, 1), (1, 4), (2, 3), (4, 4))
    for init in ("zero", "identity")
]


class TestFrozenGainTail:
    @pytest.mark.parametrize("topology,dims,init", EQUIVALENCE_CASES)
    def test_matches_full_sweeps(self, topology, dims, init):
        net = network.generate_random(50 + dims[1], 9, topology, dim_range=dims, er_prob=0.4)
        cfg = ScheduleConfig(max_iterations=500, tol_frobenius=1e-10, init=init)
        res = engine.run(net, cfg)
        state, beliefs, _, converged, mean_converged = reference_run(net, cfg)
        assert res.iterations == state.iteration
        assert (res.converged, res.mean_converged) == (converged, mean_converged) == (True, True)
        for field in ("mean", "cov"):
            assert close([getattr(res.beliefs[i], field) for i in net.ids],
                         [getattr(beliefs[i], field) for i in net.ids], 1e-12)
        for e in state.edges:
            assert close([res.state.messages[e].info], [state.messages[e].info], 1e-11)

    def test_trace_matches_deep_copied_trajectory(self):
        net = network.generate_random(60, 10, "er", dim_range=(1, 3))
        cfg = ScheduleConfig(max_iterations=500, tol_frobenius=1e-10)
        res = engine.run(net, cfg)
        _, _, snapshots, _, _ = reference_run(net, cfg)
        frozen = next(r.iteration for r in res.trace.records[1:]
                      if r.frobenius_delta <= cfg.tol_frobenius)
        assert frozen < res.iterations
        assert len(res.trace.info) == frozen + 1
        assert len(res.trace.info_blocks) == len(snapshots)
        for k, (got, want) in enumerate(zip(res.trace.info_blocks, snapshots)):
            held = snapshots[min(k, frozen)]
            assert all(np.array_equal(g, h) for g, h in zip(got, held))
            assert close(got, want, 1e-11)
        bounds = analysis.bounds_ul(analysis.build_stacked(net))
        analysis.annotate_trace(res.trace, bounds, res.state.info_blocks())
        for rec in res.trace.records[frozen:]:
            assert rec.dist_frobenius == 0.0 and rec.part_distance <= 1e-14
            if rec.iteration > frozen:
                assert rec.frobenius_delta == 0.0
                assert res.trace.rows[rec.iteration] == res.trace.rows[-1] == frozen

    def test_info_blocks_are_each_states_blocks(self):
        net = network.generate_random(60, 10, "er", dim_range=(1, 3))
        res = engine.run(net, ScheduleConfig(max_iterations=500, tol_frobenius=1e-10))
        frozen = len(res.trace.info) - 1
        assert frozen < res.iterations
        states = [engine.initial_state(net)]
        for _ in range(frozen):
            states.append(engine.combined_update(net, states[-1]))
        states += [res.state] * (res.iterations - frozen)
        for got, state in zip(res.trace.info_blocks, states, strict=True):
            want = state.info_blocks()
            assert [g.shape for g in got] == [w.shape for w in want]
            assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want, strict=True))

    def test_trace_info_is_read_only(self):
        res = engine.run(network.generate_random(60, 10, "er", dim_range=(1, 3)))
        assert res.trace.info.ndim == 2 and res.trace.info.dtype == float
        with pytest.raises(ValueError, match="read-only"):
            res.trace.info[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            res.trace.info_blocks[-1][0][0, 0] = 1.0

    def test_state_deltas_match_per_edge_norms(self):
        net = network.generate_random(62, 8, "er", dim_range=(1, 4))
        old = engine.initial_state(net, "identity")
        new = engine.combined_update(net, old)
        want = [
            max(np.linalg.norm(new.messages[e].info - old.messages[e].info) for e in new.edges),
            max(np.linalg.norm(new.messages[e].mean - old.messages[e].mean) for e in new.edges),
        ]
        rec = engine.run(net, ScheduleConfig(max_iterations=1, init="identity")).trace.records[1]
        assert [rec.frobenius_delta, rec.mean_delta] == pytest.approx(want, rel=1e-14)

    def test_mean_map_is_one_sweep_of_the_means(self):
        net = network.generate_random(61, 7, "grid", dim_range=(1, 3))
        state = engine.initial_state(net, "identity")
        for _ in range(3):
            state = engine.combined_update(net, state)
        step = engine.mean_map(net, state)
        means = np.concatenate([state.messages[e].mean for e in state.edges])
        swept = engine.combined_update(net, state)
        want = [swept.messages[e].mean for e in state.edges]
        got = np.split(step(means), np.cumsum(state.block_dims())[:-1])
        assert close(got, want, 1e-13)

    def test_overflowing_tail_mean_is_located(self, monkeypatch):
        # Two scalar nodes observing x_n - x_other: the message means grow
        # 1.2e308, 1.6e308, ... towards a limit beyond the largest float.
        # The infos pass tol 0.2 at sweep 2, so sweep 3 is a tail step.
        nodes = [
            network.NodeSpec(i, 1, np.eye(1), np.eye(1), [1.2e308], {i: [[1.0]], 3 - i: [[-1.0]]})
            for i in (1, 2)
        ]
        net = network.GaussianNetwork(nodes, [(1, 2)])
        sweeps = []
        full_sweep = engine.combined_update
        monkeypatch.setattr(engine, "combined_update",
                            lambda *a: sweeps.append(1) or full_sweep(*a))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError,
                               match=r"message on edge \(1, 1\) has non-finite entries"):
                engine.run(net, ScheduleConfig(max_iterations=10, tol_frobenius=0.2))
        assert len(sweeps) == 2

    @settings(max_examples=30, deadline=None, derandomize=True, database=None)
    @given(
        seed=strategies.integers(0, 10_000),
        topology=strategies.sampled_from(["ring", "star", "tree", "er", "grid", "complete"]),
        num_nodes=strategies.integers(2, 8),
        max_dim=strategies.integers(1, 3),
    )
    def test_means_match_oracle(self, seed, topology, num_nodes, max_dim):
        if topology == "grid":
            num_nodes = 2 * (num_nodes // 2)
        net = network.generate_random(seed, num_nodes, topology, dim_range=(1, max_dim))
        res = engine.run(net, ScheduleConfig(max_iterations=2000, tol_frobenius=1e-12))
        assert res.converged and res.mean_converged
        truth = oracle.marginals(net)
        assert close([res.beliefs[i].mean for i in net.ids], [truth[i][0] for i in net.ids], 1e-8)


def direct_sweep(net, state):
    """One synchronous sweep with every leave-one-out sum taken directly,
    O(deg) terms per edge: the reference for the engine's totals."""
    cov, mean = {}, {}
    for n in net.ids:
        for j in net.factor_scope(n):
            info, rhs = net.prior_info(j).copy(), np.zeros(net.var_dim(j))
            for k in net.var_factors(j):
                if k != n:
                    info += state.messages[(k, j)].info
                    rhs += state.messages[(k, j)].info @ state.messages[(k, j)].mean
            cov[(n, j)] = np.linalg.inv(info)
            mean[(n, j)] = cov[(n, j)] @ rhs
    out = {}
    for n, i in net.directed_edges:
        node = net.node(n)
        s, resid = node.noise_cov.copy(), node.obs.copy()
        for j in net.factor_scope(n):
            if j != i:
                s += node.coeff[j] @ cov[(n, j)] @ node.coeff[j].T
                resid -= node.coeff[j] @ mean[(n, j)]
        s_inv_a = np.linalg.solve(s, node.coeff[i])
        info = s_inv_a.T @ node.coeff[i]
        out[(n, i)] = info, np.linalg.solve(info, s_inv_a.T @ resid)
    return out


def amplified(seed, scale=1e4):
    """The er instance with the coefficients and observations of nodes 1 and
    2 scaled by ``scale``: their messages are scale**2 times the rest."""
    net = network.generate_random(seed, 10, "er", er_prob=0.4)
    specs = [net.node(i) for i in net.ids]
    specs = [dataclasses.replace(s, coeff={j: scale * a for j, a in s.coeff.items()},
                                 obs=scale * s.obs) if s.id in (1, 2) else s for s in specs]
    return network.GaussianNetwork(specs, net.edges)


class TestLeaveOneOutTotals:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        seed=strategies.integers(0, 10_000),
        topology=strategies.sampled_from(["er", "grid", "tree"]),
        num_nodes=strategies.integers(2, 9),
        max_dim=strategies.integers(1, 4),
    )
    def test_sweep_matches_direct_sums(self, seed, topology, num_nodes, max_dim):
        if topology == "grid":
            num_nodes = 2 * (num_nodes // 2)
        net = network.generate_random(seed, num_nodes, topology, dim_range=(1, max_dim),
                                      er_prob=0.5)
        rng = np.random.default_rng(seed)
        dims = [net.var_dim(e.variable) for e in net.directed_edges]
        blocks = analysis.random_state_blocks(rng, dims)
        state = MessageState(0, {
            e: engine.EdgeMessage(e, b, rng.standard_normal(b.shape[0]))
            for e, b in zip(net.directed_edges, blocks)
        })
        got = engine.combined_update(net, state)
        want = direct_sweep(net, state)
        for e in net.directed_edges:
            assert close([got.messages[e].info], [want[e][0]], 1e-12)
        assert close([got.messages[e].mean for e in net.directed_edges],
                     [want[e][1] for e in net.directed_edges], 1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_amplified_messages_keep_the_fixed_point(self, seed):
        # Taking a 1e8-times-larger message out of its variable's or factor's
        # total cancels most of it.
        # A run may also stop early on an exact fixed point: both deltas 0.0.
        net = amplified(seed)
        res = engine.run(net, ScheduleConfig(max_iterations=80, tol_frobenius=1e-300))
        assert res.iterations == 80 or (res.converged and res.mean_converged
                                        and res.trace.records[-1].frobenius_delta == 0.0)
        star, _, _ = analysis.find_fixed_point(analysis.build_stacked(net))
        for got, want in zip(res.state.info_blocks(), star, strict=True):
            assert close([got], [want], 1e-7)

    @pytest.mark.parametrize("scale", [1e4, 1e5])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_bounds_judge_each_edge_by_its_own_scale(self, seed, scale):
        # The bound blocks span scale**2 in size: against one tolerance for
        # the whole operator, the smallest L blocks look indefinite.
        b = analysis.bounds_ul(analysis.build_stacked(amplified(seed, scale)))
        assert cones._pd_flags(b.l_blocks).all() and cones._geq_flags(b.u_blocks, b.l_blocks).all()

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fixed_point_search_stops_at_the_rounding_floor(self, seed):
        # The relative test never passes here: F's iterates wander at about
        # 1e-9 relative.  The part-metric increments stop falling instead.
        op = analysis.build_stacked(amplified(seed))
        star, iterations, converged = analysis.find_fixed_point(op)
        assert iterations <= 20 and not converged
        c = analysis.apply_stacked_operator(op, [np.zeros((d, d)) for d in op.block_dims])
        for _ in range(300):
            c = analysis.apply_stacked_operator(op, c)
        for got, want in zip(star, c, strict=True):
            assert close([got], [want], 1e-8)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_padded_size_groups_match_direct_sums(self, seed):
        # Factors with different observation dimensions share a size group,
        # padded to its largest p; a plain dict runs the kernel on one edge,
        # unpadded.  Both match the direct sums.
        net = network.generate_random(seed, 9, "er", dim_range=(1, 3), er_prob=0.5)
        obs_dims = {}
        for n, i in net.directed_edges:
            obs_dims.setdefault(net.var_dim(i), set()).add(net.obs_dim(n))
        assert all(len(p) > 1 for p in obs_dims.values()) and len(obs_dims) == 3
        rng = np.random.default_rng(seed)
        dims = [net.var_dim(e.variable) for e in net.directed_edges]
        blocks = analysis.random_state_blocks(rng, dims)
        state = MessageState(0, {
            e: engine.EdgeMessage(e, b, rng.standard_normal(b.shape[0]))
            for e, b in zip(net.directed_edges, blocks)
        })
        want = direct_sweep(net, state)
        swept = engine.combined_update(net, state)
        alone = {}
        for n, i in net.directed_edges:
            inbox = {j: engine.var_to_factor(net, state, j, n)
                     for j in net.factor_scope(n) if j != i}
            alone[(n, i)] = engine.factor_to_var(net, inbox, n, i)
        for got in (swept.messages, alone):
            for e in net.directed_edges:
                assert close([got[e].info], [want[e][0]], 1e-12)
            assert close([got[e].mean for e in net.directed_edges],
                         [want[e][1] for e in net.directed_edges], 1e-12)


def two_size_groups(zero=()):
    """Nodes 1 (dim 2, p = 3) and 2 (dim 1, p = 2), each observing both:
    edges (1, 1) and (2, 1) have size 2, (1, 2) and (2, 2) size 1, and the
    kernel pads all four to size 2 and p = 3 in one batch.  ``zero`` lists
    coefficients set to 0."""
    rng = np.random.default_rng(0)
    coeff = {1: {1: rng.standard_normal((3, 2)), 2: rng.standard_normal((3, 1))},
             2: {1: rng.standard_normal((2, 2)), 2: rng.standard_normal((2, 1))}}
    for n, j in zero:
        coeff[n][j] = np.zeros_like(coeff[n][j])
    nodes = [network.NodeSpec(1, 2, np.eye(2), np.eye(3), np.zeros(3), coeff[1]),
             network.NodeSpec(2, 1, np.eye(1), np.eye(2), np.zeros(2), coeff[2])]
    return network.GaussianNetwork(nodes, [(1, 2)])


class TestBatchedKernel:
    def test_stage1_names_the_first_edge_across_size_groups(self):
        # Negative messages into factor 2 make the stage-1 infos of edges
        # (1, 1), size 2, and (1, 2), size 1, indefinite.
        net = two_size_groups()
        msgs = dict(engine.initial_state(net, "identity").messages)
        for e in net.directed_edges:
            if e.factor == 2:
                msgs[e] = engine.EdgeMessage(e, -10.0 * msgs[e].info, msgs[e].mean)
        with pytest.raises(NumericalError, match=r"^variable 1 -> factor 1 information is not "
                           "positive definite"):
            engine.combined_update(net, MessageState(0, msgs))

    def test_stage2_names_the_first_edge_across_size_groups(self):
        # Zero coefficients make the message infos of edges (1, 1), size 2,
        # and (2, 2), size 1, singular.
        net = two_size_groups(zero=[(1, 1), (2, 2)])
        with pytest.raises(NumericalError, match=r"^factor 1 -> variable 1 message information "
                           r"\(A block nearly rank deficient\?\) is not positive definite"):
            engine.combined_update(net, engine.initial_state(net))

    def test_padding_never_leaks_into_a_located_error(self):
        # A size-1 edge fails inside a batch padded to size 2: the error is
        # the one its unpadded block raises, k and condition estimate too.
        net = two_size_groups()
        msgs = dict(engine.initial_state(net, "identity").messages)
        msgs[(2, 2)] = engine.EdgeMessage((2, 2), np.array([[-10.0]]), np.zeros(1))
        info = net.prior_info(2) + msgs[(2, 2)].info  # edge (1, 2)'s stage-1 information
        with pytest.raises(NumericalError) as want:
            cones.inv_pd(info, context="variable 2 -> factor 1 information")
        with pytest.raises(NumericalError) as got:
            engine.combined_update(net, MessageState(0, msgs))
        assert str(got.value) == str(want.value) and want.value.condition == 1.0

        net = two_size_groups(zero=[(2, 2)])
        with pytest.raises(NumericalError) as want:
            cones.cho_factor_pd(np.zeros((1, 1)), context="factor 2 -> variable 2 message "
                                "information (A block nearly rank deficient?)")
        with pytest.raises(NumericalError) as got:
            engine.combined_update(net, engine.initial_state(net))
        assert str(got.value) == str(want.value)

    def test_sweep_factorizes_in_three_batches_not_per_edge(self, monkeypatch):
        # A sweep makes no per-matrix factorization, and three batched
        # solves (stage-1 inverse, S, message info) on 217 edges as on 672.
        calls = collections.Counter()
        for name in ("cho_factor_pd", "_cholesky", "_forward_blocks"):
            monkeypatch.setattr(cones, name, functools.partial(
                lambda fn, name, *a, **kw: calls.update([name]) or fn(*a, **kw),
                getattr(cones, name), name))
        counts = []
        for side in (7, 12):
            net = network.generate_random(1, side * side, "grid", grid_shape=(side, side))
            state = engine.combined_update(net, engine.initial_state(net))  # builds the plan
            calls.clear()
            engine.combined_update(net, state)
            counts.append((len(net.directed_edges), {net.var_dim(j) for j in net.ids}, dict(calls)))
        assert [c[0] for c in counts] == [217, 672] and counts[0][1] == counts[1][1] == {1, 2, 3}
        assert counts[0][2] == counts[1][2] == {"_forward_blocks": 3}
