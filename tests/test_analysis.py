import csv

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from gabp import analysis, cones, engine, network
from gabp.engine import ScheduleConfig

GOLDEN_C = (np.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def golden_op():
    return analysis.build_stacked(network.two_node_symmetric())


@pytest.fixture(scope="module")
def golden_run():
    net = network.two_node_symmetric()
    res = engine.run(net, ScheduleConfig(max_iterations=300, tol_frobenius=1e-14))
    assert res.converged
    return res


def dense_f(op, c):
    """Reference F(C): the Kronecker form with dense global solves."""
    mid = op.omega
    if op.phi:
        replicated = scipy.sparse.kron(
            scipy.sparse.identity(op.phi, format="csr"),
            scipy.sparse.csr_matrix(c),
            format="csr",
        )
        inner = op.psi + (op.k @ replicated @ op.k.T).toarray()
        mid = op.omega + op.h @ scipy.linalg.solve(inner, op.h.T, assume_a="pos")
    return op.a.T @ scipy.linalg.solve(mid, op.a, assume_a="pos")


def dense_u(op):
    """Reference U = A^T Omega^{-1} A with one dense global solve."""
    return op.a.T @ scipy.linalg.solve(op.omega, op.a, assume_a="pos")


def oracle_instances():
    return [
        network.generate_random(64, 7, "er", dim_range=(1, 3)),
        network.generate_random(65, 9, "grid", dim_range=(1, 3), grid_shape=(3, 3)),
        network.generate_random(66, 6, "star", dim_range=(1, 3)),
        network.generate_random(67, 5, "er", dim_range=(3, 3)),
    ]


def engine_one_sweep(net, blocks):
    """Reference path: set the per-edge infos and do one engine sweep."""
    msgs = {
        e: engine.EdgeMessage(e, b, np.zeros(b.shape[0]))
        for e, b in zip(net.directed_edges, blocks)
    }
    out = engine.combined_update(net, engine.MessageState(0, msgs))
    return [out.messages[e].info for e in net.directed_edges]


class TestBuildStacked:
    def test_golden_layout(self, golden_op):
        op = golden_op
        assert op.phi == 4
        assert op.dim_c == 4
        assert op.dim_obs == 4      # four edges, scalar observation each
        assert op.dim_inner == 4    # one interfering scalar per edge
        assert op.block_dims == (1, 1, 1, 1)
        assert len(op.pair_order) == 4

    def test_star_replica_count(self):
        # Hub observes everyone (|B|=3), leaves observe self + hub (|B|=2):
        # phi = 3*2 + 2*1 + 2*1 = 10.
        net = network.generate_random(5, 3, "star")
        assert analysis.build_stacked(net).phi == 10

    def test_matrices_block_structure(self, golden_op):
        op = golden_op
        assert np.array_equal(op.omega, np.eye(4))
        assert np.array_equal(op.psi, np.eye(4))
        # All unit coefficients: A is exactly the identity on this instance.
        assert np.array_equal(op.a, np.eye(4))
        assert np.array_equal(op.h, np.eye(4))

    def test_k_shape_and_content(self, golden_op):
        k = golden_op.k.toarray()
        assert k.shape == (4, 16)
        assert np.all((k == 0.0) | (k == 1.0))
        # One selected source block per slot on this instance.
        assert k.sum() == 4

    def test_selection_identity(self):
        # Xi_{n,j} C Xi_{n,j}^T must equal the sum of C's (k, j) blocks
        # over the other factors k feeding j, for block diagonal C.
        rng = np.random.default_rng(8)
        for seed in (50, 51):
            net = network.generate_random(seed, 6, "er", dim_range=(1, 3))
            op = analysis.build_stacked(net)
            blocks = analysis.random_state_blocks(rng, op.block_dims)
            c = op.stack(blocks)
            by_edge = dict(zip(op.edge_order, blocks))
            for (n, j), sel in op.xi.items():
                got = np.asarray(sel @ c @ sel.T)
                want = sum(
                    by_edge[network.DirectedEdge(k, j)]
                    for k in net.var_factors(j)
                    if k != n
                )
                assert np.allclose(got, want, atol=1e-13, rtol=0)

    def test_k_routes_selections_into_replicas(self):
        net = network.generate_random(52, 5, "er", dim_range=(1, 2))
        op = analysis.build_stacked(net)
        rng = np.random.default_rng(9)
        c = op.stack(analysis.random_state_blocks(rng, op.block_dims))
        import scipy.sparse

        kron = scipy.sparse.kron(scipy.sparse.identity(op.phi), scipy.sparse.csr_matrix(c))
        gathered = (op.k @ kron @ op.k.T).toarray()
        off = 0
        for (e, j) in op.pair_order:
            sel = op.xi[(e.factor, j)]
            d = sel.shape[0]
            want = np.asarray(sel @ c @ sel.T)
            # two sparse accumulation orders, so exactness up to roundoff
            assert np.allclose(
                gathered[off : off + d, off : off + d], want, atol=1e-13, rtol=0
            )
            off += d
        # nothing off the pair diagonal
        mask = np.ones_like(gathered, dtype=bool)
        off = 0
        for (e, j) in op.pair_order:
            d = net.var_dim(j)
            mask[off : off + d, off : off + d] = False
            off += d
        assert np.all(gathered[mask] == 0.0)


class TestApplyOperator:
    def test_golden_scalar_map(self, golden_op):
        # Every block obeys c -> (1 + c)/(2 + c).
        for c0 in (0.0, 0.3, 1.0, 10.0):
            out = analysis.apply_stacked_operator(golden_op, c0 * np.eye(4))
            want = (1 + c0) / (2 + c0)
            assert np.allclose(np.diag(out), want, atol=1e-14)
            assert np.allclose(out, np.diag(np.diag(out)), atol=1e-15)

    def test_matches_engine_sweep(self):
        rng = np.random.default_rng(10)
        for seed in (60, 61, 62):
            net = network.generate_random(seed, 7, "er", dim_range=(1, 3))
            op = analysis.build_stacked(net)
            blocks = analysis.random_state_blocks(rng, op.block_dims)
            want = engine_one_sweep(net, blocks)
            got = op.split(analysis.apply_stacked_operator(op, op.stack(blocks)))
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12 * max(1.0, np.max(np.abs(w)))

    def test_output_exactly_block_diagonal(self):
        net = network.generate_random(63, 6, "er", dim_range=(2, 3))
        op = analysis.build_stacked(net)
        rng = np.random.default_rng(11)
        out = analysis.apply_stacked_operator(
            op, op.stack(analysis.random_state_blocks(rng, op.block_dims))
        )
        mask = np.ones_like(out, dtype=bool)
        off = 0
        for d in op.block_dims:
            mask[off : off + d, off : off + d] = False
            off += d
        assert np.all(out[mask] == 0.0)

    def test_rejects_wrong_shape(self, golden_op):
        with pytest.raises(ValueError, match="shape"):
            analysis.apply_stacked_operator(golden_op, np.eye(5))

    def test_rejects_off_block_content(self, golden_op):
        c = np.eye(4)
        c[0, 3] = c[3, 0] = 0.2
        with pytest.raises(ValueError, match="block diagonal"):
            analysis.apply_stacked_operator(golden_op, c)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for net in oracle_instances():
            op = analysis.build_stacked(net)
            for _ in range(3):
                blocks = analysis.random_state_blocks(rng, op.block_dims)
                # one zero block and one rank-one block of size >= 2
                blocks[0] = np.zeros_like(blocks[0])
                k = next(k for k, d in enumerate(op.block_dims) if d >= 2 and k > 0)
                g = rng.standard_normal(op.block_dims[k])
                blocks[k] = np.outer(g, g)
                c = op.stack(blocks)
                want = dense_f(op, c)
                got = analysis.apply_stacked_operator(op, c)
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_names_failing_inner_block(self):
        net = network.generate_random(68, 6, "er", dim_range=(1, 2))
        op = analysis.build_stacked(net)
        # the key of the last pair; Psi is read at the key's first slot
        e, j = op.pair_order[-1]
        t = next(t for t, (f, i) in enumerate(op.pair_order) if (f.factor, i) == (e.factor, j))
        start = sum(net.var_dim(i) for _, i in op.pair_order[:t])
        span = slice(start, start + net.var_dim(j))
        op.psi[span, span] = -np.eye(net.var_dim(j))
        with pytest.raises(
            cones.NumericalError, match=rf"factor {e.factor} / variable {j} inner matrix"
        ):
            analysis.apply_stacked_operator(op, np.zeros((op.dim_c, op.dim_c)))

    def test_rejects_non_finite_input(self, golden_op):
        c = np.eye(4)
        c[1, 1] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            analysis.apply_stacked_operator(golden_op, c)

    def test_stack_split_round_trip(self, golden_op):
        blocks = [np.array([[float(k)]]) for k in range(1, 5)]
        back = golden_op.split(golden_op.stack(blocks))
        for b, r in zip(blocks, back):
            assert np.array_equal(b, r)


class TestBounds:
    def test_golden_values(self, golden_op):
        b = analysis.bounds_ul(golden_op)
        assert np.allclose(b.u, np.eye(4), atol=1e-14)
        assert np.allclose(b.l, 0.5 * np.eye(4), atol=1e-14)

    def test_l_is_f_of_zero(self):
        net = network.generate_random(70, 6, "er")
        op = analysis.build_stacked(net)
        b = analysis.bounds_ul(op)
        f0 = analysis.apply_stacked_operator(op, np.zeros((op.dim_c, op.dim_c)))
        assert np.array_equal(b.l, f0)

    def test_order_holds_on_random_instances(self):
        for seed in (71, 72, 73):
            net = network.generate_random(seed, 8, "er", dim_range=(1, 3))
            b = analysis.bounds_ul(analysis.build_stacked(net))
            assert cones.loewner_geq(b.u, b.l)
            assert cones.is_pd(b.l)

    def test_matches_dense_oracle(self):
        for net in oracle_instances():
            op = analysis.build_stacked(net)
            b = analysis.bounds_ul(op)
            want_u = dense_u(op)
            want_l = dense_f(op, np.zeros((op.dim_c, op.dim_c)))
            assert np.max(np.abs(b.u - want_u)) <= 1e-12 * np.max(np.abs(want_u))
            assert np.max(np.abs(b.l - want_l)) <= 1e-12 * np.max(np.abs(want_l))
            for got, want in zip(b.u_blocks, op.split(want_u)):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want_u))

    def test_names_edge_with_indefinite_noise(self):
        net = network.generate_random(74, 6, "er", dim_range=(1, 2))
        op = analysis.build_stacked(net)
        k = 3
        e = op.edge_order[k]
        row = sum(net.obs_dim(f.factor) for f in op.edge_order[:k])
        m = net.obs_dim(e.factor)
        bad = np.eye(m)
        bad[-1, -1] = -1.0
        op.omega[row : row + m, row : row + m] = bad
        with pytest.raises(
            cones.NumericalError, match=rf"edge \({e.factor}, {e.variable}\) middle matrix"
        ):
            analysis.bounds_ul(op)

    def test_fixed_point_inside(self, golden_op, golden_run):
        b = analysis.bounds_ul(golden_op)
        star = golden_run.state.stacked()
        assert cones.loewner_geq(star, b.l, tol=1e-9)
        assert cones.loewner_geq(b.u, star, tol=1e-9)


class TestFindFixedPoint:
    def test_matches_engine(self, golden_op, golden_run):
        c, iters, ok = analysis.find_fixed_point(golden_op, tol=1e-14)
        assert ok
        assert np.max(np.abs(c - golden_run.state.stacked())) <= 1e-12
        assert np.allclose(np.diag(c), GOLDEN_C, atol=1e-12)

    def test_budget_exhaustion_reported(self, golden_op):
        c, iters, ok = analysis.find_fixed_point(golden_op, tol=1e-16, max_iterations=3)
        assert not ok and iters == 3


class TestPropertyHarness:
    def test_monotone_hand_values(self, golden_op):
        # F(0) = 1/2 and F(I) = 2/3 per block, so the monotone gap is 1/6.
        f0 = analysis.apply_stacked_operator(golden_op, np.zeros((4, 4)))
        f1 = analysis.apply_stacked_operator(golden_op, np.eye(4))
        assert np.allclose(np.diag(f1 - f0), 1.0 / 6.0, atol=1e-14)

    def test_scaling_hand_value(self, golden_op):
        # 2 F(I) - F(2I) = 4/3 - 3/4 = 7/12 per block.
        margin = analysis.scaling_margins(golden_op, np.eye(4), 2.0)
        assert margin == pytest.approx(7.0 / 12.0, abs=1e-12)

    def test_clean_on_golden(self, golden_op):
        rep = analysis.property_harness(golden_op, trials=50, seed=1)
        assert rep.failures == []
        assert rep.monotone_checks == 50
        assert rep.scaling_checks == 50
        assert rep.bounds_checks == 100
        assert rep.worst_monotone_margin >= -1e-9
        assert rep.worst_scaling_margin > 0.0
        assert rep.worst_bounds_margin >= -1e-9

    def test_clean_on_random_instances(self):
        for seed in (80, 81):
            net = network.generate_random(seed, 6, "er", dim_range=(1, 3))
            rep = analysis.property_harness(
                analysis.build_stacked(net), trials=25, seed=seed
            )
            assert rep.failures == []

    def test_trial_seeds_reproducible(self, golden_op):
        a = analysis.property_harness(golden_op, trials=10, seed=7)
        b = analysis.property_harness(golden_op, trials=10, seed=7)
        assert a.worst_monotone_margin == b.worst_monotone_margin
        assert a.worst_scaling_margin == b.worst_scaling_margin


class TestSandwich:
    def test_golden_envelopes(self, golden_op, golden_run):
        rep = analysis.sandwich_sequences(
            golden_op, golden_run.state.stacked(), alpha=2.0, target=1e-6
        )
        assert rep.failures == []
        assert rep.upper_monotone and rep.lower_monotone
        assert rep.contains_fixed_point and rep.reached_target
        assert rep.upper_distances[0] == pytest.approx(np.log(2.0), abs=1e-9)
        # distances fall monotonically as sequences close in
        assert all(
            b <= a + 1e-12
            for a, b in zip(rep.upper_distances, rep.upper_distances[1:])
        )

    def test_random_instance(self):
        net = network.generate_random(90, 6, "er")
        op = analysis.build_stacked(net)
        c, _, ok = analysis.find_fixed_point(op, tol=1e-13)
        assert ok
        rep = analysis.sandwich_sequences(op, c, alpha=2.0, target=1e-6)
        assert rep.failures == []

    def test_alpha_must_exceed_one(self, golden_op):
        with pytest.raises(ValueError, match="alpha"):
            analysis.sandwich_sequences(golden_op, np.eye(4), alpha=1.0)


class TestAnnotateTrace:
    def test_golden_annotations(self, golden_op, golden_run):
        bounds = analysis.bounds_ul(golden_op)
        trace = golden_run.trace
        analysis.annotate_trace(trace, bounds, golden_run.state.info_blocks())
        first, rest = trace.records[0], trace.records[1:]
        # zero init: not PD at iteration 0, so no part distance there
        assert first.part_distance is None and first.in_bounds is None
        for rec in rest:
            assert rec.in_bounds is True
            assert rec.part_distance is not None
            assert rec.norm_bound_ok is True
        dists = [r.part_distance for r in rest]
        assert all(b < a + 1e-15 for a, b in zip(dists, dists[1:]))
        assert trace.records[-1].dist_frobenius <= 1e-12

    def test_identity_init_has_distance_at_zero(self, golden_op):
        net = network.two_node_symmetric()
        res = engine.run(
            net,
            ScheduleConfig(max_iterations=300, tol_frobenius=1e-14,
                           init="identity", init_scale=5.0),
        )
        analysis.annotate_trace(
            res.trace, analysis.bounds_ul(golden_op), res.state.info_blocks()
        )
        want = np.log(5.0 / GOLDEN_C)
        assert res.trace.records[0].part_distance == pytest.approx(want, abs=1e-9)

    def test_rejects_mismatched_fixed_point(self, golden_run):
        bounds = analysis.bounds_ul(analysis.build_stacked(network.two_node_symmetric()))
        with pytest.raises(ValueError, match="layout"):
            analysis.annotate_trace(golden_run.trace, bounds, [np.eye(2)] * 2)


class TestRateAnalysis:
    def test_synthetic_geometric_sequence(self):
        rep = analysis.rate_analysis([0.5**l for l in range(31)])
        assert rep.c_estimate == pytest.approx(0.5, abs=1e-9)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
        assert rep.window == list(range(1, 31))
        assert rep.strictly_decreasing and not rep.degenerate

    def test_synthetic_with_epsilon_cut(self):
        seq = [0.5**l for l in range(31)]
        rep = analysis.rate_analysis(seq, epsilon=0.5**10)
        assert rep.window == list(range(1, 10))
        assert rep.c_estimate == pytest.approx(0.5, abs=1e-9)

    def test_golden_rate_near_scalar_derivative(self, golden_op, golden_run):
        # The scalar map's slope at the fixed point is 1/(2 + c*)^2.
        analysis.annotate_trace(
            golden_run.trace,
            analysis.bounds_ul(golden_op),
            golden_run.state.info_blocks(),
        )
        rep = analysis.rate_analysis(golden_run.trace)
        want = 1.0 / (2.0 + GOLDEN_C) ** 2
        assert rep.c_estimate == pytest.approx(want, abs=5e-3)
        assert rep.r_squared >= 0.999
        assert rep.strictly_decreasing
        assert rep.window[0] >= 2
        assert rep.norm_bound_all is True
        assert rep.worst_norm_slack >= -1e-9

    def test_degenerate_window(self):
        rep = analysis.rate_analysis([1.0, 0.5])
        assert rep.degenerate and rep.c_estimate is None

    def test_all_inside_epsilon_ball_degenerates(self):
        rep = analysis.rate_analysis([1e-12] * 8, epsilon=1e-9)
        assert rep.degenerate

    def test_unannotated_trace_rejected(self):
        net = network.two_node_symmetric()
        res = engine.run(net, ScheduleConfig(max_iterations=5))
        with pytest.raises(ValueError, match="annotate"):
            analysis.rate_analysis(res.trace)


class TestTraceCsv:
    def test_golden_csv(self, golden_op, golden_run, tmp_path):
        analysis.annotate_trace(
            golden_run.trace,
            analysis.bounds_ul(golden_op),
            golden_run.state.info_blocks(),
        )
        path = tmp_path / "trace.csv"
        analysis.write_trace_csv(golden_run.trace, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "iteration", "frobenius_delta", "part_distance", "in_bounds", "norm_bound_ok",
        ]
        assert len(rows) == len(golden_run.trace.records) + 1
        # iteration 0: no delta, no part distance (zero init), blank flags
        assert rows[1] == ["0", "", "", "", ""]
        assert rows[2][3] == "true" and rows[2][4] == "true"
        assert float(rows[2][1]) == pytest.approx(0.5, abs=1e-12)

    def test_unannotated_trace_leaves_cone_columns_empty(self, tmp_path):
        net = network.two_node_symmetric()
        res = engine.run(net, ScheduleConfig(max_iterations=3))
        path = tmp_path / "t.csv"
        analysis.write_trace_csv(res.trace, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        for row in rows[1:]:
            assert row[2] == "" and row[3] == "" and row[4] == ""
