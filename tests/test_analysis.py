import csv
import dataclasses
import re
import types

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


def dense_operator(net):
    """Reference A, Omega, H, Psi, K and Xi of the Kronecker form, built
    from the network in the operator's layout: C's blocks in edge order,
    one row block of A, Omega and H per edge, one column block of H and one
    block of Psi per (edge, interfering variable) pair.

    Xi[(n, j)] selects, from a block diagonal C, the sum of the blocks of
    all factors k != n feeding j; K stacks one Xi per pair, each shifted
    into its own replica of C."""
    edges = list(net.directed_edges)
    pairs = [(e, j) for e in edges for j in net.factor_scope(e.factor) if j != e.variable]
    col = np.cumsum([0] + [net.var_dim(e.variable) for e in edges])
    row = np.cumsum([0] + [net.obs_dim(e.factor) for e in edges])
    inner = np.cumsum([0] + [net.var_dim(j) for _, j in pairs])
    a = np.zeros((row[-1], col[-1]))
    omega = np.zeros((row[-1], row[-1]))
    h = np.zeros((row[-1], inner[-1]))
    psi = np.zeros((inner[-1], inner[-1]))
    for x, e in enumerate(edges):
        node = net.node(e.factor)
        a[row[x] : row[x + 1], col[x] : col[x + 1]] = node.coeff[e.variable]
        omega[row[x] : row[x + 1], row[x] : row[x + 1]] = node.noise_cov
    for t, (e, j) in enumerate(pairs):
        x = edges.index(e)
        span = slice(inner[t], inner[t + 1])
        h[row[x] : row[x + 1], span] = net.node(e.factor).coeff[j]
        psi[span, span] = net.prior_info(j)
    xi = {}
    for e, j in pairs:
        d = net.var_dim(j)
        sel = np.zeros((d, col[-1]))
        for f in net.var_factors(j):
            if f != e.factor:
                start = col[edges.index(network.DirectedEdge(f, j))]
                sel[:, start : start + d] = np.eye(d)
        xi[(e.factor, j)] = scipy.sparse.csr_matrix(sel)
    if pairs:
        k = scipy.sparse.block_diag([xi[(e.factor, j)] for e, j in pairs], format="csr")
    else:
        k = scipy.sparse.csr_matrix((0, 0))
    return types.SimpleNamespace(
        a=a, omega=omega, h=h, psi=psi, k=k, xi=xi, phi=len(pairs), pairs=pairs
    )


def stack(blocks):
    """The dense stacked C of a block list: block diagonal, in edge order."""
    return scipy.linalg.block_diag(*blocks)


def split(c, dims):
    """The diagonal blocks of a dense stacked C, of the given sizes."""
    at = np.cumsum([0, *dims])
    return [c[a:b, a:b] for a, b in zip(at[:-1], at[1:])]


def padded(op, blocks):
    """A block list as the padded (E, D, D) stack, zero past each block."""
    big = max(op.block_dims)
    x = np.zeros((len(blocks), big, big))
    for y, b in zip(x, blocks):
        y[: len(b), : len(b)] = b
    return x


def zeros(op):
    return [np.zeros((d, d)) for d in op.block_dims]


def dense_f(ref, c):
    """Reference F(C): the Kronecker form with dense global solves."""
    mid = ref.omega
    if ref.phi:
        replicated = scipy.sparse.kron(
            scipy.sparse.identity(ref.phi, format="csr"),
            scipy.sparse.csr_matrix(c),
            format="csr",
        )
        inner = ref.psi + (ref.k @ replicated @ ref.k.T).toarray()
        mid = ref.omega + ref.h @ scipy.linalg.solve(inner, ref.h.T, assume_a="pos")
    return ref.a.T @ scipy.linalg.solve(mid, ref.a, assume_a="pos")


def dense_u(ref):
    """Reference U = A^T Omega^{-1} A with one dense global solve."""
    return ref.a.T @ scipy.linalg.solve(ref.omega, ref.a, assume_a="pos")


def tamper(op, layer, label, block):
    """Overwrite the base block labelled ``label`` of a layer ("inner" or
    "middle") in the leading corner of its row of the padded base stack."""
    store = op.psi if layer == "inner" else op.omega
    k = getattr(op, layer)[1].index(label)
    store[k, : len(block), : len(block)] = block


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


def padded_instances():
    """Var dims 1-4, so both layers mix block sizes inside padded batches."""
    return [
        network.generate_random(64, 8, "er", dim_range=(1, 4)),
        network.generate_random(94, 8, "er", dim_range=(1, 4)),
        network.generate_random(95, 9, "grid", dim_range=(1, 4), grid_shape=(3, 3)),
    ]


def padded_items(op, layer):
    """(label, size, padded size) of the rows whose B block a layer ("inner"
    or "middle") pads."""
    big_p = (op.psi if layer == "inner" else op.omega).shape[1]
    return [(label, p, big_p) for p, label in zip(*getattr(op, layer)) if p < big_p]


def part_metric_pencil(x, y):
    """Per-block reference: one scipy symmetric definite pencil solve."""
    w = scipy.linalg.eigh(y, x, eigvals_only=True)
    return max(float(np.log(max(w[-1], 1.0 / w[0]))), 0.0)


def snapshot_figures(blocks, star, bounds):
    """Reference cone figures of one info snapshot, block by block:
    Frobenius and part distance to the fixed point, [L, U] margin and
    norm-domination slack (None without a part distance)."""
    diff = [b - s for b, s in zip(blocks, star)]
    dist = np.sqrt(sum(float(np.sum(d * d)) for d in diff))
    comparable = all(
        min(np.linalg.eigvalsh(b)[0], np.linalg.eigvalsh(s)[0])
        > cones.REL_TOL * max(np.abs(b).max(), np.abs(s).max())
        for b, s in zip(blocks, star)
    )
    part = max(part_metric_pencil(b, s) for b, s in zip(blocks, star)) if comparable else None
    margin = min(
        min(np.linalg.eigvalsh(b - lo)[0], np.linalg.eigvalsh(up - b)[0])
        for b, lo, up in zip(blocks, bounds.l_blocks, bounds.u_blocks)
    )
    slack = None
    if part is not None:
        factor = 2.0 * np.exp(part) - np.exp(-part) - 1.0
        spec = lambda bs: max(np.abs(np.linalg.eigvalsh(b)).max() for b in bs)  # noqa: E731
        fro = lambda bs: np.sqrt(sum(float(np.sum(b * b)) for b in bs))  # noqa: E731
        slack = min(
            factor * min(spec(blocks), spec(star)) - spec(diff),
            factor * min(fro(blocks), fro(star)) - dist,
        )
    return dist, part, margin, slack


def close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestBuildStacked:
    def test_golden_layout(self, golden_op):
        op = golden_op
        assert op.phi == 4
        assert op.dim_c == 4
        assert op.block_dims == (1, 1, 1, 1)
        assert all(x.shape == (4, 1, 1) for x in (op.a, op.omega, op.h, op.psi))
        # Keys (1, 2), (1, 1), (2, 2), (2, 1); each sums the one C block of the
        # other factor, and each edge's middle block the T of its one key.
        assert op.c_sources.tolist() == [[3], [2], [1], [0]]
        assert op.t_sources.tolist() == [[0], [1], [2], [3]]
        assert len(op.pair_order) == 4

    def test_star_replica_count(self):
        # Hub observes everyone (|B|=3), leaves observe self + hub (|B|=2):
        # phi = 3*2 + 2*1 + 2*1 = 10.
        net = network.generate_random(5, 3, "star")
        assert analysis.build_stacked(net).phi == 10

    def test_matrices_block_structure(self, golden_op):
        ref = dense_operator(network.two_node_symmetric())
        assert np.array_equal(ref.omega, np.eye(4))
        assert np.array_equal(ref.psi, np.eye(4))
        # All unit coefficients: A is exactly the identity on this instance.
        assert np.array_equal(ref.a, np.eye(4))
        assert np.array_equal(ref.h, np.eye(4))
        # The operator keeps only the blocks: four 1 x 1 blocks per store.
        for store in (golden_op.a, golden_op.omega, golden_op.h, golden_op.psi):
            assert np.array_equal(store, np.ones((4, 1, 1)))

    def test_stores_hold_only_the_blocks(self):
        # F reads A_ni and R_n per edge and H_nj^T and W_j^{-1} per
        # (factor, variable) key, each in the leading corner of its row of a
        # padded stack: zero past it, identity on a base's diagonal.  No
        # dense matrix may come back.
        nets = [
            network.generate_random(1, 30, "er", er_prob=0.2),
            network.generate_random(1, 16, "grid", grid_shape=(4, 4)),
        ]
        for net in nets:
            op = analysis.build_stacked(net)
            # One row per key, keys sorted by (d_j, p_n).
            keys = sorted(dict.fromkeys((e.factor, j) for e, j in op.pair_order),
                          key=lambda k: (net.var_dim(k[1]), net.obs_dim(k[0])))
            big_d = max(op.block_dims)
            big_p = max(net.obs_dim(e.factor) for e in op.edge_order)
            rows = [
                (op.a, [net.node(e.factor).coeff[e.variable] for e in op.edge_order], False),
                (op.omega, [net.node(e.factor).noise_cov for e in op.edge_order], True),
                (op.h, [net.node(n).coeff[j].T for n, j in keys], False),
                (op.psi, [net.prior_info(j) for _, j in keys], True),
            ]
            for store, blocks, base in rows:
                want = np.zeros(store.shape)
                for x, b in zip(want, blocks, strict=True):
                    if base:
                        x[:] = np.eye(len(x))
                    x[: b.shape[0], : b.shape[1]] = b
                assert np.array_equal(store, want)
            assert [x.shape[1:] for x, _, _ in rows] == [
                (big_p, big_d), (big_p, big_p), (big_d, big_p), (big_d, big_d)
            ]
        names = {f.name for f in dataclasses.fields(analysis.StackedOperator)}
        assert not names & {"k", "xi"}

    def test_k_shape_and_content(self):
        k = dense_operator(network.two_node_symmetric()).k.toarray()
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
            c = stack(blocks)
            by_edge = dict(zip(op.edge_order, blocks))
            for (n, j), sel in dense_operator(net).xi.items():
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
        c = stack(analysis.random_state_blocks(rng, op.block_dims))
        ref = dense_operator(net)
        assert ref.pairs == list(op.pair_order)
        kron = scipy.sparse.kron(scipy.sparse.identity(ref.phi), scipy.sparse.csr_matrix(c))
        gathered = (ref.k @ kron @ ref.k.T).toarray()
        off = 0
        for (e, j) in op.pair_order:
            sel = ref.xi[(e.factor, j)]
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
            out = analysis.apply_stacked_operator(golden_op, [c0 * np.eye(1)] * 4)
            want = (1 + c0) / (2 + c0)
            assert [b.shape for b in out] == [(1, 1)] * 4
            assert np.allclose(np.ravel(out), want, atol=1e-14)

    def test_matches_engine_sweep(self):
        rng = np.random.default_rng(10)
        for seed in (60, 61, 62):
            net = network.generate_random(seed, 7, "er", dim_range=(1, 3))
            op = analysis.build_stacked(net)
            blocks = analysis.random_state_blocks(rng, op.block_dims)
            want = engine_one_sweep(net, blocks)
            got = analysis.apply_stacked_operator(op, blocks)
            for g, w in zip(got, want):
                assert np.max(np.abs(g - w)) <= 1e-12 * max(1.0, np.max(np.abs(w)))

    def test_rejects_wrong_shape(self, golden_op):
        with pytest.raises(ValueError, match="layout"):
            analysis.apply_stacked_operator(golden_op, [np.eye(2)] + [np.eye(1)] * 3)

    def test_rejects_off_block_content(self, golden_op):
        # A dense stacked C is not read as a list of rows, with or without
        # off block-diagonal content; the error names both accepted forms.
        net = network.generate_random(63, 6, "er", dim_range=(1, 3))
        op = analysis.build_stacked(net)
        dense = stack(analysis.random_state_blocks(np.random.default_rng(11), op.block_dims))
        off_block = np.eye(4)
        off_block[0, 3] = off_block[3, 0] = 0.2
        for o, c in ((op, dense), (golden_op, np.eye(4)), (golden_op, off_block)):
            assert c.shape == (o.dim_c, o.dim_c)
            with pytest.raises(ValueError, match=r"block list in edge order or a padded stack"):
                analysis.apply_stacked_operator(o, c)
            with pytest.raises(ValueError, match="block list"):
                analysis.scaling_margins(o, c, 2.0)
            with pytest.raises(ValueError, match="block list"):
                analysis.sandwich_sequences(o, c)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(12)
        for net in oracle_instances():
            op = analysis.build_stacked(net)
            ref = dense_operator(net)
            for _ in range(3):
                blocks = analysis.random_state_blocks(rng, op.block_dims)
                # one zero block and one rank-one block of size >= 2
                blocks[0] = np.zeros_like(blocks[0])
                k = next(k for k, d in enumerate(op.block_dims) if d >= 2 and k > 0)
                g = rng.standard_normal(op.block_dims[k])
                blocks[k] = np.outer(g, g)
                want = dense_f(ref, stack(blocks))
                got = stack(analysis.apply_stacked_operator(op, blocks))
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_block_list_in_block_list_out(self):
        # The same F(C) bit for bit, whether C comes padded or as blocks.
        net = network.generate_random(64, 7, "er", dim_range=(1, 3))
        op = analysis.build_stacked(net)
        rng = np.random.default_rng(13)
        blocks = analysis.random_state_blocks(rng, op.block_dims)
        got = analysis.apply_stacked_operator(op, blocks)
        assert isinstance(got, list)
        assert [b.shape for b in got] == [(d, d) for d in op.block_dims]
        padded_out = analysis.apply_stacked_operator(op, padded(op, blocks))
        assert np.array_equal(padded(op, got), padded_out)
        assert analysis.scaling_margins(op, blocks, 3.0) == analysis.scaling_margins(
            op, padded(op, blocks), 3.0
        )

    def test_padded_batches_match_dense_oracle(self, monkeypatch):
        rng = np.random.default_rng(14)
        for net in padded_instances():
            op = analysis.build_stacked(net)
            assert padded_items(op, "inner") and padded_items(op, "middle")
            # One padded batch per layer: a row per (n, j) key, then per edge.
            batches = []
            real = cones._forward_blocks
            with monkeypatch.context() as m:
                m.setattr(cones, "_forward_blocks",
                          lambda b, *a: batches.append(b.shape) or real(b, *a))
                analysis.apply_stacked_operator(op, zeros(op))
            assert batches == [op.psi.shape, op.omega.shape]
            ref = dense_operator(net)
            for _ in range(3):
                blocks = analysis.random_state_blocks(rng, op.block_dims)
                want = dense_f(ref, stack(blocks))
                got = stack(analysis.apply_stacked_operator(op, blocks))
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
            f0 = stack(analysis.apply_stacked_operator(op, zeros(op)))
            want = dense_f(ref, np.zeros((op.dim_c, op.dim_c)))
            assert np.max(np.abs(f0 - want)) <= 1e-12 * np.max(np.abs(want))

    def test_padded_in_padded_out(self):
        # The padded stack holds C's blocks in edge order, zero past each
        # block's size, and gives the same F(C) bit for bit as a block list,
        # padded the same way.  Grouped arrays, a short stack and content
        # in the padding are not the layout.
        net = network.generate_random(94, 8, "er", dim_range=(1, 4))
        op = analysis.build_stacked(net)
        blocks = analysis.random_state_blocks(np.random.default_rng(15), op.block_dims)
        got = analysis.apply_stacked_operator(op, padded(op, blocks))
        want = analysis.apply_stacked_operator(op, blocks)
        assert got.shape == (len(op.block_dims), 4, 4)
        assert np.array_equal(got, padded(op, want))
        grouped = {d: np.stack([b for b in blocks if len(b) == d]) for d in set(op.block_dims)}
        leaky = padded(op, blocks)
        leaky[op.block_dims.index(1), 1, 1] = 1.0
        for c in (grouped, padded(op, blocks)[1:], leaky):
            with pytest.raises(ValueError, match="layout"):
                analysis.apply_stacked_operator(op, c)

    def test_output_padding_is_exactly_zero(self):
        rng = np.random.default_rng(16)
        for net in padded_instances():
            op = analysis.build_stacked(net)
            for blocks in (zeros(op), analysis.random_state_blocks(rng, op.block_dims)):
                out = analysis.apply_stacked_operator(op, padded(op, blocks))
                for x, d in zip(out, op.block_dims, strict=True):
                    assert not x[d:].any() and not x[:, d:].any()

    @pytest.mark.parametrize("layer", ["inner", "middle"])
    def test_padding_never_leaks_into_a_located_error(self, layer):
        # A 1 x 1 base block that is not PD, in a layer padded to 3 or 4,
        # raises exactly the error of cones.cho_factor_pd on that block with
        # its label, condition estimate included: a factorization at the
        # padded size would report the padding's condition.
        # Node 1 (dim 1) is alone; nodes 2 (dim 3) and 3 (dim 1) observe both.
        coeff = {2: np.eye(4, 3), 3: np.eye(4, 1)}
        net = network.GaussianNetwork([
            network.NodeSpec(1, 1, np.eye(1), np.eye(1), [0.0], {1: np.eye(1)}),
            network.NodeSpec(2, 3, np.eye(3), np.eye(4), np.zeros(4), coeff),
            network.NodeSpec(3, 1, np.eye(1), np.eye(4), np.zeros(4), coeff),
        ], [(2, 3)])
        op = analysis.build_stacked(net)
        label, big = {"inner": ("factor 2 / variable 3 inner matrix", 3),
                      "middle": ("edge (1, 1) middle matrix", 4)}[layer]
        assert (label, 1, big) in padded_items(op, layer)
        bad = -1e-3 * np.eye(1)
        tamper(op, layer, label, bad)
        with pytest.raises(cones.NumericalError) as want:
            cones.cho_factor_pd(bad, context=label)
        with pytest.raises(cones.NumericalError) as got:
            if layer == "inner":
                analysis.apply_stacked_operator(op, zeros(op))
            else:
                analysis.bounds_ul(op)
        assert type(got.value) is cones.NumericalError
        assert str(got.value) == str(want.value)
        assert got.value.condition == want.value.condition == 1.0

    def test_names_non_pd_block_inside_padded_batch(self):
        # An indefinite block that its batch pads is still named by its own
        # slot, in either layer, while every other block stays PD.
        net = network.generate_random(94, 8, "er", dim_range=(1, 4))
        for layer, run in (("inner", "apply"), ("middle", "bounds")):
            op = analysis.build_stacked(net)
            label, p, big_p = padded_items(op, layer)[-1]
            bad = np.eye(p)
            bad[-1, -1] = -1.0
            tamper(op, layer, label, bad)
            with pytest.raises(cones.NumericalError, match=re.escape(label)):
                if run == "apply":
                    analysis.apply_stacked_operator(op, zeros(op))
                else:
                    analysis.bounds_ul(op)

    def test_rejects_mismatched_blocks(self, golden_op):
        with pytest.raises(ValueError, match="layout"):
            analysis.apply_stacked_operator(golden_op, [np.eye(1)] * 3)
        with pytest.raises(ValueError, match="non-finite"):
            analysis.apply_stacked_operator(golden_op, [np.eye(1)] * 3 + [np.full((1, 1), np.inf)])

    def test_names_failing_inner_block(self):
        net = network.generate_random(68, 6, "er", dim_range=(1, 2))
        op = analysis.build_stacked(net)
        # W_j^{-1} of the last pair's (factor, variable) key
        e, j = op.pair_order[-1]
        label = f"factor {e.factor} / variable {j} inner matrix"
        tamper(op, "inner", label, -np.eye(net.var_dim(j)))
        with pytest.raises(cones.NumericalError, match=label):
            analysis.apply_stacked_operator(op, zeros(op))

    def test_rejects_non_finite_input(self, golden_op):
        c = [np.eye(1)] * 4
        c[1] = np.full((1, 1), np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            analysis.apply_stacked_operator(golden_op, c)
        with pytest.raises(ValueError, match="non-finite"):
            analysis.apply_stacked_operator(golden_op, padded(golden_op, c))


class TestBounds:
    def test_golden_values(self, golden_op):
        b = analysis.bounds_ul(golden_op)
        assert [x.shape for x in b.u_blocks + b.l_blocks] == [(1, 1)] * 8
        assert np.allclose(np.ravel(b.u_blocks), 1.0, atol=1e-14)
        assert np.allclose(np.ravel(b.l_blocks), 0.5, atol=1e-14)

    def test_l_is_f_of_zero(self):
        net = network.generate_random(70, 6, "er")
        op = analysis.build_stacked(net)
        b = analysis.bounds_ul(op)
        f0 = analysis.apply_stacked_operator(op, [np.zeros((d, d)) for d in op.block_dims])
        assert all(np.array_equal(x, y) for x, y in zip(b.l_blocks, f0, strict=True))

    def test_order_holds_on_random_instances(self):
        for seed in (71, 72, 73):
            net = network.generate_random(seed, 8, "er", dim_range=(1, 3))
            b = analysis.bounds_ul(analysis.build_stacked(net))
            assert cones._geq_flags(b.u_blocks, b.l_blocks).all()
            assert cones._pd_flags(b.l_blocks).all()

    def test_matches_dense_oracle(self):
        for net in oracle_instances():
            op = analysis.build_stacked(net)
            ref = dense_operator(net)
            b = analysis.bounds_ul(op)
            want_u = dense_u(ref)
            want_l = dense_f(ref, np.zeros((op.dim_c, op.dim_c)))
            for got, want in zip(b.u_blocks, split(want_u, op.block_dims), strict=True):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want_u))
            for got, want in zip(b.l_blocks, split(want_l, op.block_dims), strict=True):
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want_l))

    def test_names_edge_with_indefinite_noise(self):
        net = network.generate_random(74, 6, "er", dim_range=(1, 2))
        op = analysis.build_stacked(net)
        e = op.edge_order[3]
        bad = np.eye(net.obs_dim(e.factor))
        bad[-1, -1] = -1.0
        tamper(op, "middle", f"edge ({e.factor}, {e.variable}) middle matrix", bad)
        with pytest.raises(
            cones.NumericalError, match=rf"edge \({e.factor}, {e.variable}\) middle matrix"
        ):
            analysis.bounds_ul(op)

    def test_names_edge_with_singular_lower_bound(self):
        # A[1][1] = 0 is rank deficient, which validate would reject; the
        # operator is built from the unvalidated network.
        one = np.eye(1)
        net = network.GaussianNetwork([
            network.NodeSpec(1, 1, one, one, [0.3], {1: 0 * one, 2: one}),
            network.NodeSpec(2, 1, one, one, [-0.2], {1: one, 2: one}),
        ], [(1, 2)])
        with pytest.raises(cones.NumericalError,
                           match=r"lower bound on edge \(1, 1\) is not positive definite"):
            analysis.bounds_ul(analysis.build_stacked(net))

    def test_one_node_bounds_coincide(self):
        # phi = 0: no (factor, variable) key, so the middle block is R_n
        # alone for every C and U = L = A^T R^{-1} A.
        net = network.generate_random(1, 1, "er")
        op = analysis.build_stacked(net)
        assert op.phi == 0 and op.psi.shape[0] == op.c_sources.size == op.t_sources.size == 0
        [e] = op.edge_order
        node = net.node(e.factor)
        want = node.coeff[e.variable].T @ np.linalg.solve(node.noise_cov, node.coeff[e.variable])
        b = analysis.bounds_ul(op)
        for got in b.u_blocks + b.l_blocks:
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_computed_once_per_operator(self):
        op = analysis.build_stacked(network.generate_random(75, 6, "er", dim_range=(1, 3)))
        first = analysis.bounds_ul(op)
        assert analysis.bounds_ul(op) is first
        assert not any(b.flags.writeable for b in first.u_blocks + first.l_blocks)
        # A new operator computes its own bounds, equal bit for bit.
        again = analysis.bounds_ul(analysis.build_stacked(
            network.generate_random(75, 6, "er", dim_range=(1, 3))
        ))
        assert again is not first
        for x, y in zip(again.u_blocks + again.l_blocks, first.u_blocks + first.l_blocks):
            assert np.array_equal(x, y)

    def test_fixed_point_inside(self, golden_op, golden_run):
        b = analysis.bounds_ul(golden_op)
        for s, u, l in zip(golden_run.state.info_blocks(), b.u_blocks, b.l_blocks, strict=True):
            assert cones.min_eigenvalue_blocks([s - l]) >= -1e-9
            assert cones.min_eigenvalue_blocks([u - s]) >= -1e-9


class TestFindFixedPoint:
    def test_matches_engine(self, golden_op, golden_run):
        c, iters, ok = analysis.find_fixed_point(golden_op, tol=1e-14)
        assert ok
        assert isinstance(c, list) and [b.shape for b in c] == [(1, 1)] * 4
        for b, want in zip(c, golden_run.state.info_blocks(), strict=True):
            assert np.max(np.abs(b - want)) <= 1e-12
        assert np.allclose(np.ravel(c), GOLDEN_C, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e5, 1e-4])
    def test_stops_relative_to_the_iterate(self, scale):
        # An absolute tolerance stalls at large coefficients (the increment
        # cannot fall below the rounding of a 1e11 iterate) and stops early
        # at small ones; the relative test converges at both.
        net = network.generate_random(3, 16, "grid", grid_shape=(4, 4), coeff_scale=scale)
        op = analysis.build_stacked(net)
        c, iters, ok = analysis.find_fixed_point(op, max_iterations=200)
        assert ok and iters < 200
        residual = stack(analysis.apply_stacked_operator(op, c)) - stack(c)
        assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(stack(c))

    def test_power_of_two_rescaling_changes_nothing(self):
        # x -> x / s with s a power of two scales every iterate by s^2
        # exactly, so a scale-free stop takes the same steps, and the
        # relative tolerances of validate and bounds_ul give the same verdict.
        net = network.generate_random(91, 8, "er", dim_range=(1, 3))
        runs = []
        for s in (2.0**-20, 1.0, 2.0**20):
            nodes = [
                dataclasses.replace(
                    net.node(i), prior_cov=net.node(i).prior_cov / s**2,
                    coeff={j: a * s for j, a in net.node(i).coeff.items()},
                )
                for i in net.ids
            ]
            scaled = network.GaussianNetwork(nodes, net.edges)
            assert network.validate(scaled) == []
            op = analysis.build_stacked(scaled)
            c, iters, ok = analysis.find_fixed_point(op)
            assert ok
            runs.append((s, c, iters, analysis.bounds_ul(op)))
        for s, c, iters, bounds in runs:
            assert iters == runs[1][2]
            assert all(np.array_equal(x, s**2 * y) for x, y in zip(c, runs[1][1], strict=True))
            for field in ("u_blocks", "l_blocks"):
                got, want = getattr(bounds, field), getattr(runs[1][3], field)
                assert all(np.array_equal(x, s**2 * y) for x, y in zip(got, want, strict=True))

    def test_budget_exhaustion_reported(self, golden_op):
        c, iters, ok = analysis.find_fixed_point(golden_op, tol=1e-16, max_iterations=3)
        assert not ok and iters == 3


class TestPropertyHarness:
    def test_monotone_hand_values(self, golden_op):
        # F(0) = 1/2 and F(I) = 2/3 per block, so the monotone gap is 1/6.
        f0 = analysis.apply_stacked_operator(golden_op, zeros(golden_op))
        f1 = analysis.apply_stacked_operator(golden_op, [np.eye(1)] * 4)
        assert np.allclose(np.ravel(f1) - np.ravel(f0), 1.0 / 6.0, atol=1e-14)

    def test_scaling_hand_value(self, golden_op):
        # 2 F(I) - F(2I) = 4/3 - 3/4 = 7/12 per block.
        margin = analysis.scaling_margins(golden_op, [np.eye(1)] * 4, 2.0)
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

    @pytest.mark.parametrize("trials", [-1, float("nan")])
    def test_trials_must_be_non_negative(self, golden_op, trials):
        with pytest.raises(ValueError, match=re.escape(f"trials must be >= 0, got {trials!r}")):
            analysis.property_harness(golden_op, trials=trials)


def checked_state_blocks(rng, dims, allow_singular=True):
    """Reference for ``random_state_blocks``: the same draws, each block
    passed through the checked ``cones.symmetrize``."""
    blocks = []
    for d in dims:
        if allow_singular and rng.random() < 0.15:
            blocks.append(np.zeros((d, d)))
            continue
        rank = int(rng.integers(1, d + 1)) if allow_singular else d
        g = rng.standard_normal((d, rank))
        b = g @ g.T
        if not allow_singular:
            b = b + (0.1 + rng.random()) * np.eye(d)
        blocks.append(cones.symmetrize(b))
    return blocks


class TestRandomStateBlocks:
    @pytest.mark.parametrize("allow_singular", [True, False])
    def test_bitwise_equal_to_checked_reference(self, allow_singular):
        dims = [1, 2, 3, 4, 5, 8, 13] * 20
        got_rng, want_rng = np.random.default_rng(21), np.random.default_rng(21)
        for _ in range(3):
            got = analysis.random_state_blocks(got_rng, dims, allow_singular)
            want = checked_state_blocks(want_rng, dims, allow_singular)
            assert [b.tobytes() for b in got] == [b.tobytes() for b in want]
            assert all(np.array_equal(b, b.T) for b in got)
        # The generators stay in step: the draw sequence is unchanged.
        assert got_rng.random() == want_rng.random()


class TestSandwich:
    def test_golden_envelopes(self, golden_op, golden_run):
        rep = analysis.sandwich_sequences(
            golden_op, golden_run.state.info_blocks(), alpha=2.0, target=1e-6
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
        same = analysis.sandwich_sequences(op, padded(op, c), alpha=2.0, target=1e-6)
        assert same.upper_distances == rep.upper_distances
        assert same.lower_distances == rep.lower_distances

    def test_alpha_must_exceed_one(self, golden_op):
        with pytest.raises(ValueError, match="alpha"):
            analysis.sandwich_sequences(golden_op, [np.eye(1)] * 4, alpha=1.0)


    @pytest.mark.parametrize("target", [-1e-6, float("nan")])
    def test_target_must_be_non_negative(self, golden_op, target):
        with pytest.raises(ValueError, match=re.escape(f"target must be >= 0, got {target!r}")):
            analysis.sandwich_sequences(golden_op, [np.eye(1)] * 4, target=target)


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

    def test_held_snapshot_annotated_once(self, monkeypatch):
        # The mean-only tail repeats one held info row; it is evaluated once
        # and its figures equal those of a trace with one row per record,
        # stored in reverse order so that each record must follow its row.
        net = network.generate_random(1, 16, "grid", grid_shape=(4, 4))
        res = engine.run(net, ScheduleConfig(tol_frobenius=1e-13))
        distinct = len(set(res.trace.rows))
        assert distinct == len(res.trace.info) < len(res.trace.records)
        bounds = analysis.bounds_ul(analysis.build_stacked(net))
        copied = dataclasses.replace(
            res.trace,
            records=[dataclasses.replace(r) for r in res.trace.records],
            info=res.trace.info[list(res.trace.rows)][::-1],
            rows=tuple(range(len(res.trace.records)))[::-1],
        )
        analysis.annotate_trace(copied, bounds, res.state.info_blocks())
        stacked = []
        real = analysis._trace_figures
        monkeypatch.setattr(
            analysis, "_trace_figures", lambda info, *a: stacked.append(len(info)) or real(info, *a)
        )
        analysis.annotate_trace(res.trace, bounds, res.state.info_blocks())
        assert stacked == [distinct]
        assert res.trace.records == copied.records

    @pytest.mark.parametrize("case", ["zero", "identity", "tail", "singular"])
    def test_matches_per_snapshot_oracle(self, case):
        # zero: row 0 has no part distance; tail: records share one held
        # row; singular: one block of one row is singular, so that row
        # alone has no part distance.
        if case == "tail":
            net = network.generate_random(1, 16, "grid", grid_shape=(4, 4))
            config = ScheduleConfig(tol_frobenius=1e-13)
        else:
            net = network.generate_random(92, 8, "er", dim_range=(1, 4))
            init = "zero" if case == "zero" else "identity"
            config = ScheduleConfig(tol_frobenius=1e-12, init=init, init_scale=3.0)
        res = engine.run(net, config)
        trace = res.trace
        if case == "tail":
            assert len(set(trace.rows)) < len(trace.records)
        if case == "singular":
            info = trace.info.copy()
            k = next(k for k, d in enumerate(trace.block_dims) if d >= 2)
            d, at = trace.block_dims[k], sum(d * d for d in trace.block_dims[:k])
            info[trace.rows[4], at:at + d * d] = np.diag([1.0] * (d - 1) + [0.0]).ravel()
            trace = dataclasses.replace(trace, info=info)
        bounds = analysis.bounds_ul(analysis.build_stacked(net))
        star = res.state.info_blocks()
        analysis.annotate_trace(trace, bounds, star)
        parts = []
        for rec, blocks in zip(trace.records, trace.info_blocks):
            dist, part, margin, slack = snapshot_figures(blocks, star, bounds)
            assert close(rec.dist_frobenius, dist)
            assert (rec.part_distance is None) == (part is None)
            parts.append(part)
            if part is not None:
                assert close(rec.part_distance, part)
                assert close(rec.norm_slack, slack)
                assert rec.norm_bound_ok is bool(slack >= -analysis.ORDER_TOL)
            if rec.iteration >= 1:
                assert rec.in_bounds is bool(margin >= -analysis.ORDER_TOL)
            else:
                assert rec.in_bounds is None
        missing = [k for k, part in enumerate(parts) if part is None]
        assert missing == {"identity": [], "singular": [4]}.get(case, [0])

    def test_rejects_mismatched_fixed_point(self, golden_run):
        bounds = analysis.bounds_ul(analysis.build_stacked(network.two_node_symmetric()))
        with pytest.raises(ValueError, match="layout"):
            analysis.annotate_trace(golden_run.trace, bounds, [np.eye(2)] * 2)


    def test_rejects_non_finite_trace_row(self, golden_run):
        bounds = analysis.bounds_ul(analysis.build_stacked(network.two_node_symmetric()))
        info = golden_run.trace.info.copy()
        info[-1, 0] = np.inf
        trace = dataclasses.replace(golden_run.trace, records=[], info=info)
        with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
            analysis.annotate_trace(trace, bounds, golden_run.state.info_blocks())


def annotated_trace(part, frobenius=None, star=1.0):
    """A trace as ``annotate_trace`` leaves it: part-metric and Frobenius
    distances to the fixed point per iteration (iteration 0 first; the
    Frobenius ones default to the part ones) and a 1x1 fixed point
    ``[[star]]``."""
    frobenius = part if frobenius is None else frobenius
    records = [engine.TraceRecord(t, np.nan, np.nan, dist_frobenius=f, part_distance=p)
               for t, (p, f) in enumerate(zip(part, frobenius, strict=True))]
    return engine.ConvergenceTrace((), (1,), records, np.zeros((0, 1)), (),
                                   fixed_point_blocks=[np.array([[star]])])


class TestRateAnalysis:
    # The window starts at iteration 2, and epsilon (by default 1e-8 times
    # the fixed point's Frobenius norm) bounds the Frobenius distance.
    def test_synthetic_geometric_sequence(self):
        rep = analysis.rate_analysis(annotated_trace([0.5**l for l in range(31)]))
        assert rep.epsilon == 1e-8
        assert rep.c_estimate == pytest.approx(0.5, abs=1e-9)
        assert rep.r_squared == pytest.approx(1.0, abs=1e-12)
        assert rep.window == list(range(2, 27))  # 0.5**27 < 1e-8 < 0.5**26
        assert rep.strictly_decreasing and not rep.degenerate

    def test_synthetic_with_epsilon_cut(self):
        part = [0.5**l for l in range(31)]
        trace = annotated_trace(part, frobenius=[2.0 * x for x in part])
        rep = analysis.rate_analysis(trace, epsilon=0.5**10)
        assert rep.window == list(range(2, 11))
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
        rep = analysis.rate_analysis(annotated_trace([1.0, 0.5, 0.25]))
        assert rep.window == [2]
        assert rep.degenerate and rep.c_estimate is None

    def test_all_inside_epsilon_ball_degenerates(self):
        rep = analysis.rate_analysis(annotated_trace([1e-12] * 8), epsilon=1e-9)
        assert rep.window == []
        assert rep.degenerate

    def test_unannotated_trace_rejected(self):
        net = network.two_node_symmetric()
        res = engine.run(net, ScheduleConfig(max_iterations=5))
        with pytest.raises(ValueError, match="annotate"):
            analysis.rate_analysis(res.trace)

    @pytest.mark.parametrize("epsilon", [-1e-9, float("nan")])
    def test_epsilon_must_be_non_negative(self, epsilon):
        with pytest.raises(ValueError, match=re.escape(f"epsilon must be >= 0, got {epsilon!r}")):
            analysis.rate_analysis(annotated_trace([1.0, 0.5, 0.25]), epsilon=epsilon)

    def test_raw_sequence_rejected(self):
        with pytest.raises(ValueError, match="annotate"):
            analysis.rate_analysis([0.5**l for l in range(8)])


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
