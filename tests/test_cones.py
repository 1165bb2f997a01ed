import dataclasses
import re

import numpy as np
import pytest
import scipy.linalg

from gabp import analysis, cones, engine, network


def random_spd(rng, n, lo=0.5, hi=2.0):
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = rng.uniform(lo, hi, size=n)
    return cones.symmetrize(q @ np.diag(lam) @ q.T)


def scaling_feasible(a, x, y, tol):
    """a*X >= Y and a*Y >= X, the defining feasibility of the metric."""
    ok_xy = scipy.linalg.eigvalsh(a * x - y)[0] >= -tol
    ok_yx = scipy.linalg.eigvalsh(a * y - x)[0] >= -tol
    return ok_xy and ok_yx


def part_metric_grid_scan(x, y, hi, points):
    """Brute-force reference: log of the first feasible scaling on a
    log-spaced grid.  Grid-accurate only, which is the point: it shares
    no code with the eigensolve implementation."""
    tol = 1e-12 * (1.0 + max(np.abs(x).max(), np.abs(y).max()))
    for a in np.exp(np.linspace(0.0, np.log(hi), points)):
        if scaling_feasible(a, x, y, tol):
            return np.log(a)
    raise AssertionError("grid scan found no feasible scaling")


def part_metric_bisection(x, y):
    """Independent reference via bisection on the scaling factor.

    Feasibility is monotone in a (if a works, any larger a works), so
    bisection pins the infimum without touching the pencil eigenvalue
    shortcut the implementation uses.
    """
    tol = 1e-13 * (1.0 + max(np.abs(x).max(), np.abs(y).max()))
    lo, hi = 1.0, 1.0
    while not scaling_feasible(hi, x, y, tol):
        hi *= 2.0
        assert hi < 1e12, "runaway bisection bracket"
    if hi == 1.0:
        return 0.0
    lo = hi / 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if scaling_feasible(mid, x, y, tol):
            hi = mid
        else:
            lo = mid
    return np.log(hi)


def part_metric_pencil(x, y):
    """Per-block reference: one scipy symmetric definite pencil solve."""
    w = scipy.linalg.eigh(y, x, eigvals_only=True)
    return max(float(np.log(max(w[-1], 1.0 / w[0]))), 0.0)


def min_eigenvalue(x):
    """Per-matrix reference: smallest eigenvalue of the symmetric part."""
    x = np.asarray(x, dtype=float)
    return float(scipy.linalg.eigvalsh((x + x.T) / 2.0)[0]) if x.size else np.inf


def default_tolerance(*mats):
    """Per-matrix reference: REL_TOL times the largest entry of the arguments."""
    return cones.REL_TOL * max(float(np.abs(m).max(initial=0.0)) for m in mats)


def comparable_per_block(xs, ys):
    """Per-block reference of the part metric's domain: both blocks of
    every pair have smallest eigenvalue above default_tolerance(x, y)."""
    return all(
        min(min_eigenvalue(x), min_eigenvalue(y)) > default_tolerance(x, y)
        for x, y in zip(xs, ys)
    )


def part_metric_pair(x, y):
    """d_T of one block pair, through the batched implementation."""
    return cones.part_metric_blocks([x], [y])


def pd(x):
    """X > 0 for one block, through the batched implementation."""
    return bool(cones._pd_flags([x])[0])


def geq(x, y=None):
    """X >= Y (X >= 0 without y) for one block, through the batched implementation."""
    return bool(cones._geq_flags([x], [np.zeros_like(x) if y is None else y])[0])


class TestSymmetrize:
    def test_returns_symmetric_part(self):
        a = np.array([[1.0, 2.0], [0.0, 3.0]])
        s = cones.symmetrize(a)
        assert np.array_equal(s, s.T)
        assert np.allclose(s, [[1.0, 1.0], [1.0, 3.0]])

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            cones.symmetrize(np.zeros((2, 3)))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            cones.symmetrize(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestOrderPredicates:
    def test_identity_is_pd(self):
        assert pd(np.eye(3))
        assert geq(np.eye(3))

    def test_zero_is_psd_not_pd(self):
        z = np.zeros((2, 2))
        assert geq(z)
        assert not pd(z)

    def test_rank_one_boundary(self):
        v = np.array([1.0, -2.0])
        x = np.outer(v, v)
        assert geq(x)
        assert not pd(x)

    def test_indefinite(self):
        x = np.diag([1.0, -1e-6])
        assert not geq(x)

    def test_loewner_order(self):
        assert geq(2 * np.eye(2), np.eye(2))
        assert not geq(np.eye(2), 2 * np.eye(2))
        # Incomparable pair: neither direction holds.
        x = np.diag([2.0, 0.5])
        y = np.diag([1.0, 1.0])
        assert not geq(x, y)
        assert not geq(y, x)

    def test_tolerance_absorbs_roundoff(self):
        x = np.eye(2) - 1e-13 * np.eye(2)
        assert geq(x, np.eye(2))

    def test_flags_match_per_block_reference(self):
        # Mixed sizes, so each flag has to land back at its block's position.
        rng = np.random.default_rng(37)
        for _ in range(10):
            dims = rng.integers(1, 5, size=30)
            xs = [random_spd(rng, d) - rng.uniform(0, 1) * np.eye(d) for d in dims]
            ys = [random_spd(rng, d) * rng.uniform(0.2, 2) for d in dims]
            want_pd = [min_eigenvalue(x) > default_tolerance(x) for x in xs]
            want_geq = [min_eigenvalue(x - y) >= -default_tolerance(x, y) for x, y in zip(xs, ys)]
            assert cones._pd_flags(xs).tolist() == want_pd
            assert cones._geq_flags(xs, ys).tolist() == want_geq
            zeros = [np.zeros_like(x) for x in xs]
            assert cones._geq_flags(xs, zeros).tolist() == [
                min_eigenvalue(x) >= -default_tolerance(x) for x in xs]


class TestPartMetric:
    def test_known_diagonal_pair(self):
        # X = diag(1, 4), Y = diag(2, 1): the pencil eigenvalues are
        # {2, 1/4}, so the optimal scaling is max(2, 4) = 4.
        x = np.diag([1.0, 4.0])
        y = np.diag([2.0, 1.0])
        d = part_metric_pair(x, y)
        assert d == pytest.approx(np.log(4.0), abs=1e-12)

    def test_matches_grid_scan_oracle(self):
        x = np.diag([1.0, 4.0])
        y = np.diag([2.0, 1.0])
        ref = part_metric_grid_scan(x, y, hi=16.0, points=40_001)
        assert part_metric_pair(x, y) == pytest.approx(ref, abs=2e-3)

    def test_matches_bisection_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            ref = part_metric_bisection(x, y)
            assert part_metric_pair(x, y) == pytest.approx(ref, abs=1e-9)

    def test_scalar_case(self):
        d = part_metric_pair(np.array([[2.0]]), np.array([[0.5]]))
        assert d == pytest.approx(np.log(4.0), abs=1e-12)

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(3)
        x = random_spd(rng, 4)
        assert part_metric_pair(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            assert part_metric_pair(x, y) == pytest.approx(
                part_metric_pair(y, x), abs=1e-10
            )

    def test_scaling_shift(self):
        # d(aX, X) = log a exactly, for a >= 1.
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            a = np.exp(rng.uniform(0.0, 3.0))
            assert part_metric_pair(a * x, x) == pytest.approx(np.log(a), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            z = random_spd(rng, n)
            dxz = part_metric_pair(x, z)
            dxy = part_metric_pair(x, y)
            dyz = part_metric_pair(y, z)
            assert dxz <= dxy + dyz + 1e-9

    def test_invariance_under_congruence(self):
        # d(M X M^T, M Y M^T) = d(X, Y) for invertible M, including a tiny
        # power-of-two multiple of I, which the relative tolerance admits.
        rng = np.random.default_rng(19)
        for _ in range(50):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            m = rng.standard_normal((n, n)) + 3 * np.eye(n)
            d0 = part_metric_pair(x, y)
            d1 = part_metric_pair(
                cones.symmetrize(m @ x @ m.T), cones.symmetrize(m @ y @ m.T)
            )
            assert d1 == pytest.approx(d0, abs=1e-8)
            assert part_metric_pair(2.0**-40 * x, 2.0**-40 * y) == pytest.approx(d0, rel=1e-12)

    def test_sandwich_tightness(self):
        # exp(d)*X >= Y >= exp(-d)*X holds, and fails once d is shrunk.
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            d = part_metric_pair(x, y)
            tol = 1e-8 * (1.0 + max(np.abs(x).max(), np.abs(y).max()))
            assert cones.min_eigenvalue_blocks([np.exp(d) * x - y]) >= -tol
            assert cones.min_eigenvalue_blocks([y - np.exp(-d) * x]) >= -tol
            if d > 1e-6:
                shrunk = d * (1.0 - 1e-6) - 1e-12
                up = cones.min_eigenvalue_blocks([np.exp(shrunk) * x - y]) >= 0.0
                dn = cones.min_eigenvalue_blocks([y - np.exp(-shrunk) * x]) >= 0.0
                assert not (up and dn)

    def test_rejects_singular_argument(self):
        with pytest.raises(cones.NotComparableError):
            part_metric_pair(np.diag([1.0, 0.0]), np.eye(2))
        with pytest.raises(cones.NotComparableError):
            part_metric_pair(np.eye(2), np.diag([1.0, 0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            part_metric_pair(np.eye(2), np.eye(3))


class TestPartMetricBlocks:
    def test_max_over_blocks(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            dims = rng.integers(1, 4, size=rng.integers(1, 5))
            xs = [random_spd(rng, d) for d in dims]
            ys = [random_spd(rng, d) for d in dims]
            per_block = [part_metric_pencil(x, y) for x, y in zip(xs, ys)]
            got = cones.part_metric_blocks(xs, ys)
            assert got == pytest.approx(max(per_block), abs=1e-12)

    def test_agrees_with_dense_assembly(self):
        rng = np.random.default_rng(31)
        dims = [2, 1, 3]
        xs = [random_spd(rng, d) for d in dims]
        ys = [random_spd(rng, d) for d in dims]
        dense = part_metric_pair(scipy.linalg.block_diag(*xs), scipy.linalg.block_diag(*ys))
        assert cones.part_metric_blocks(xs, ys) == pytest.approx(dense, abs=1e-10)

    def test_block_count_mismatch(self):
        with pytest.raises(ValueError):
            cones.part_metric_blocks([np.eye(2)], [np.eye(2), np.eye(1)])

    def test_empty_blocks_add_nothing(self):
        x, y = np.diag([1.0, 2.0]), np.diag([2.0, 1.0])
        empty = np.zeros((0, 0))
        assert cones.part_metric_blocks([empty], [empty]) == 0.0
        alone = cones.part_metric_blocks([x], [y])
        assert cones.part_metric_blocks([empty, x], [empty, y]) == alone

    def test_grouped_arguments_with_different_sizes(self):
        with pytest.raises(ValueError, match="^grouped arguments have different block sizes$"):
            cones.part_metric_blocks({1: np.ones((2, 1, 1))}, {2: np.ones((2, 2, 2))})

    def test_batched_matches_per_block_on_many_blocks(self):
        # Many blocks per size, so every size group is a real batch.
        rng = np.random.default_rng(30)
        for _ in range(10):
            dims = rng.integers(1, 5, size=40)
            xs = [random_spd(rng, d) for d in dims]
            ys = [random_spd(rng, d) * np.exp(rng.uniform(-3, 3)) for d in dims]
            want = max(part_metric_pencil(x, y) for x, y in zip(xs, ys))
            assert cones.part_metric_blocks(xs, ys) == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize(
        "bad",
        [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.diag([1.0, -0.5])],
        ids=["zero", "singular", "indefinite"],
    )
    @pytest.mark.parametrize("side", [0, 1])
    def test_not_comparable_cases_match_per_block(self, bad, side):
        rng = np.random.default_rng(32)
        xs = [random_spd(rng, d) for d in (2, 1, 2, 3)]
        ys = [random_spd(rng, d) for d in (2, 1, 2, 3)]
        (xs, ys)[side][2] = bad
        assert not comparable_per_block(xs, ys)
        with pytest.raises(cones.NotComparableError):
            part_metric_pair(xs[2], ys[2])
        with pytest.raises(cones.NotComparableError):
            cones.part_metric_blocks(xs, ys)

    def test_tolerance_edge_matches_per_block(self):
        # A block whose smallest eigenvalue sits just above or at the
        # default tolerance (1e-10 here: REL_TOL times the pair's largest
        # entry, with no absolute floor) is judged as the per-block test
        # judges it.
        for low, ok in ((3e-10, True), (1e-10, False)):
            xs = [np.eye(2), np.diag([1.0, low])]
            ys = [np.eye(2), np.eye(2)]
            assert comparable_per_block(xs, ys) is ok
            if ok:
                want = part_metric_pencil(xs[1], ys[1])
                assert cones.part_metric_blocks(xs, ys) == pytest.approx(want, rel=1e-12)
            else:
                with pytest.raises(cones.NotComparableError):
                    cones.part_metric_blocks(xs, ys)


class TestMinEigenvalueBlocks:
    def test_matches_per_block(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            dims = rng.integers(1, 5, size=30)
            blocks = [random_spd(rng, d) - rng.uniform(0, 3) * np.eye(d) for d in dims]
            want = min(min_eigenvalue(b) for b in blocks)
            assert cones.min_eigenvalue_blocks(blocks) == pytest.approx(want, abs=1e-12)
            every = np.sort(cones.eigvalsh_blocks(blocks))
            per_block = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
            assert np.allclose(every, per_block, rtol=0, atol=1e-12)

    def test_symmetrizes_like_min_eigenvalue(self):
        x = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert cones.min_eigenvalue_blocks([x]) == pytest.approx(min_eigenvalue(x), abs=1e-15)

    def test_empty_and_non_finite(self):
        assert cones.min_eigenvalue_blocks([]) == np.inf
        with pytest.raises(ValueError):
            cones.min_eigenvalue_blocks([np.eye(2), np.full((2, 2), np.nan)])


class TestSolvers:
    def test_solve_matches_numpy(self):
        rng = np.random.default_rng(41)
        for _ in range(25):
            n = rng.integers(1, 6)
            x = random_spd(rng, n)
            b = rng.standard_normal(n)
            assert np.allclose(cones.solve_pd(x, b), np.linalg.solve(x, b), atol=1e-10)

    def test_inv_is_symmetric_inverse(self):
        rng = np.random.default_rng(43)
        x = random_spd(rng, 5)
        xi = cones.inv_pd(x)
        assert np.array_equal(xi, xi.T)
        assert np.allclose(x @ xi, np.eye(5), atol=1e-10)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, bad):
        x = np.eye(2)
        x[1, 0] = x[0, 1] = bad
        with pytest.raises(ValueError):
            cones.cho_factor_pd(x)
        with pytest.raises(ValueError):
            cones.solve_pd(x, np.ones(2))
        with pytest.raises(ValueError):
            cones.inv_pd(x)

    def test_matches_scipy_and_numpy_cholesky(self):
        # The factor is numpy's, to the bit; the solves are substitutions
        # of their own, so they match scipy's LAPACK solves to rounding.
        # Sizes past 64 take the substitution's split into halves.
        rng = np.random.default_rng(47)
        for n in [*range(1, 40), 65, 130]:
            x = random_spd(rng, n, lo=1e-3, hi=1e3)
            b = rng.standard_normal((n, 3))
            ref = scipy.linalg.cho_factor(x, lower=True)
            assert np.array_equal(cones.cho_factor_pd(x), np.linalg.cholesky(x))
            inv = scipy.linalg.cho_solve(ref, np.eye(n))
            for got, want in [(cones.solve_pd(x, b), scipy.linalg.cho_solve(ref, b)),
                              (cones.solve_pd(x, b[:, 0]), scipy.linalg.cho_solve(ref, b[:, 0])),
                              (cones.inv_pd(x), (inv + inv.T) / 2.0)]:
                assert got.shape == want.shape
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_non_square_rejected(self, shape):
        x = np.ones(shape)
        with pytest.raises(ValueError):
            cones.cho_factor_pd(x)
        with pytest.raises(ValueError):
            cones.solve_pd(x, np.ones(2))
        with pytest.raises(ValueError):
            cones.inv_pd(x)

    @pytest.mark.parametrize("b, message", [
        (np.array([1.0, np.nan]), "right-hand side has non-finite entries"),
        (np.ones(3), "incompatible dimensions ((2, 2) and (3,))"),
        (np.ones((2, 2, 1)), "incompatible dimensions ((2, 2) and (2, 2, 1))"),
    ])
    def test_bad_right_hand_side(self, b, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cones.solve_pd(np.eye(2), b)

    def test_empty_right_hand_side(self):
        z = cones.solve_pd(np.eye(2), np.ones((2, 0)))
        assert z.shape == (2, 0)

    def test_singular_block_has_infinite_condition(self):
        with pytest.raises(cones.NumericalError) as err:
            cones.solve_pd(np.zeros((2, 2)), np.ones(2), context="block")
        assert str(err.value) == ("block is not positive definite: 1-th leading minor of "
                                  "the array is not positive definite (condition estimate inf)")
        assert err.value.condition == np.inf

    def test_condition_estimate_left_out_when_the_eigensolver_fails(self, monkeypatch):
        def reject(x):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(cones.np.linalg, "eigvalsh", reject)
        with pytest.raises(cones.NumericalError) as err:
            cones.solve_pd(-np.eye(2), np.ones(2), context="block")
        assert str(err.value) == ("block is not positive definite: 1-th leading minor of "
                                  "the array is not positive definite")
        assert err.value.condition is None

    def test_failure_carries_context_and_condition(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(cones.NumericalError) as err:
            cones.solve_pd(bad, np.ones(2), context="unit test matrix")
        assert "unit test matrix" in str(err.value)
        assert err.value.condition is not None


class TestForwardBlocks:
    """z = L^{-1} G per block of a padded stack, against scipy per block."""

    @staticmethod
    def padded_stack(rng, shapes, big_p, big_q):
        """B blocks padded with identity, garbage above the diagonal (only
        the lower triangle may be read); G blocks padded with zeros."""
        b = np.tile(np.eye(big_p), (len(shapes), 1, 1))
        above = np.triu_indices(big_p, 1)
        b[:, above[0], above[1]] = rng.standard_normal((len(shapes), 1))
        g = np.zeros((len(shapes), big_p, big_q))
        blocks = []
        for k, (p, q) in enumerate(shapes):
            bk, gk = random_spd(rng, p, lo=1e-2, hi=1e2), rng.standard_normal((p, q))
            b[k, :p, :p] = np.tril(bk) + np.triu(b[k, :p, :p], 1)
            g[k, :p, :q] = gk
            blocks.append((bk, gk))
        return b, g, blocks

    @pytest.mark.parametrize("shapes", [[(3, 2)] * 4, [(1, 1), (3, 2), (2, 3), (4, 1), (4, 4)]],
                             ids=["unpadded", "padded"])
    def test_matches_triangular_solve_per_block(self, shapes):
        rng = np.random.default_rng(59)
        big_p, big_q = max(p for p, _ in shapes), max(q for _, q in shapes)
        b, g, blocks = self.padded_stack(rng, shapes, big_p, big_q)
        labels = [f"block {k}" for k in range(len(shapes))]
        z = cones._forward_blocks(b, g, [p for p, _ in shapes], labels)
        for zk, (p, q), (bk, gk) in zip(z, shapes, blocks, strict=True):
            ref = scipy.linalg.solve_triangular(np.linalg.cholesky(bk), gk, lower=True)
            assert np.allclose(zk[:p, :q], ref, rtol=1e-12, atol=1e-12 * np.abs(ref).max())
            assert not zk[p:].any() and not zk[:, q:].any()

    def test_names_first_block_that_is_not_pd(self):
        rng = np.random.default_rng(61)
        shapes = [(2, 1), (3, 2), (1, 1), (3, 3)]
        b, g, _ = self.padded_stack(rng, shapes, 3, 3)
        b[1, 1, 1] = b[3, 0, 0] = -1.0
        with pytest.raises(cones.NumericalError, match=r"^edge \(3, 1\) middle matrix is not "
                           "positive definite: 2-th leading minor of the array is not positive "
                           r"definite \(condition estimate"):
            cones._forward_blocks(b, g, [p for p, _ in shapes],
                                  [f"edge ({k}, 1) middle matrix" for k in range(2, 6)])


class TestOneBoundary:
    """Every cone verdict flips at the same t = REL_TOL * max|x|, and
    rescaling by a power of two moves t with the block and changes none."""

    @staticmethod
    def verdicts(net, scale, margin, monkeypatch):
        """(validate: prior PD, check_init_state: PSD, bounds_ul: U >= L,
        part_metric_blocks: comparable) on 2x2 blocks of largest entry
        ``scale`` whose smallest eigenvalue sits at t * margin (PD tests) or
        -t / margin (>= tests): inside the cone for margin > 1."""
        t = cones.REL_TOL * scale
        pd_block = scale * np.diag([1.0, 0.0]) + np.diag([0.0, t * margin])

        node = dataclasses.replace(net.node(1), prior_cov=pd_block)
        nodes = [node if i == 1 else net.node(i) for i in net.ids]
        prior_ok = network.validate(network.GaussianNetwork(nodes, net.edges)) == []

        e = net.directed_edges[0]
        msgs = dict(engine.initial_state(net, "identity").messages)
        msgs[e] = engine.EdgeMessage(e, np.diag([scale, -t / margin]), np.zeros(2))
        try:
            engine.check_init_state(net, engine.MessageState(0, msgs))
            psd_ok = True
        except ValueError as exc:
            assert "not positive semidefinite" in str(exc)
            psd_ok = False

        # U >= L holds on every instance, so crafted bounds are fed through
        # F's middle layer: U_e - L_e = diag(0, -t / margin) on edge 0.
        op = analysis.build_stacked(net)
        u = np.tile(np.diag([scale, scale / 2]), (len(op.edge_order), 1, 1))
        low = u.copy()
        low[0, 1, 1] += t / margin
        outputs = iter([u, low])
        monkeypatch.setattr(analysis, "_middle", lambda op, t: next(outputs))
        try:
            analysis.bounds_ul(op)
            bounds_ok = True
        except cones.NumericalError as exc:
            assert "does not dominate" in str(exc)
            bounds_ok = False

        try:
            cones.part_metric_blocks([pd_block], [scale * np.eye(2)])
            comparable = True
        except cones.NotComparableError:
            comparable = False
        return prior_ok, psd_ok, bounds_ok, comparable

    @pytest.mark.parametrize("k", [-40, 0, 40])
    @pytest.mark.parametrize("inside", [True, False])
    def test_every_verdict_flips_at_the_same_tolerance(self, k, inside, monkeypatch):
        net = network.generate_random(4, 4, "er", dim_range=(2, 2))
        margin = 1.001 if inside else 0.999
        assert self.verdicts(net, 2.0**k, margin, monkeypatch) == (inside,) * 4
