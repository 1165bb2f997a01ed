import numpy as np
import pytest
import scipy.linalg

from gabp import cones


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


def comparable_per_block(xs, ys):
    """Per-block reference of the part metric's domain: both blocks of
    every pair have smallest eigenvalue above default_tolerance(x, y)."""
    return all(
        min(cones.min_eigenvalue(x), cones.min_eigenvalue(y)) > cones.default_tolerance(x, y)
        for x, y in zip(xs, ys)
    )


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
        assert cones.is_pd(np.eye(3))
        assert cones.is_psd(np.eye(3))

    def test_zero_is_psd_not_pd(self):
        z = np.zeros((2, 2))
        assert cones.is_psd(z)
        assert not cones.is_pd(z)

    def test_rank_one_boundary(self):
        v = np.array([1.0, -2.0])
        x = np.outer(v, v)
        assert cones.is_psd(x)
        assert not cones.is_pd(x)

    def test_indefinite(self):
        x = np.diag([1.0, -1e-6])
        assert not cones.is_psd(x)

    def test_loewner_order(self):
        assert cones.loewner_geq(2 * np.eye(2), np.eye(2))
        assert not cones.loewner_geq(np.eye(2), 2 * np.eye(2))
        # Incomparable pair: neither direction holds.
        x = np.diag([2.0, 0.5])
        y = np.diag([1.0, 1.0])
        assert not cones.loewner_geq(x, y)
        assert not cones.loewner_geq(y, x)

    def test_tolerance_absorbs_roundoff(self):
        x = np.eye(2) - 1e-13 * np.eye(2)
        assert cones.loewner_geq(x, np.eye(2))


class TestPartMetric:
    def test_known_diagonal_pair(self):
        # X = diag(1, 4), Y = diag(2, 1): the pencil eigenvalues are
        # {2, 1/4}, so the optimal scaling is max(2, 4) = 4.
        x = np.diag([1.0, 4.0])
        y = np.diag([2.0, 1.0])
        d = cones.part_metric(x, y)
        assert d == pytest.approx(np.log(4.0), abs=1e-12)

    def test_matches_grid_scan_oracle(self):
        x = np.diag([1.0, 4.0])
        y = np.diag([2.0, 1.0])
        ref = part_metric_grid_scan(x, y, hi=16.0, points=40_001)
        assert cones.part_metric(x, y) == pytest.approx(ref, abs=2e-3)

    def test_matches_bisection_on_random_pairs(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            ref = part_metric_bisection(x, y)
            assert cones.part_metric(x, y) == pytest.approx(ref, abs=1e-9)

    def test_scalar_case(self):
        d = cones.part_metric(np.array([[2.0]]), np.array([[0.5]]))
        assert d == pytest.approx(np.log(4.0), abs=1e-12)

    def test_identity_of_indiscernibles(self):
        rng = np.random.default_rng(3)
        x = random_spd(rng, 4)
        assert cones.part_metric(x, x) == pytest.approx(0.0, abs=1e-9)

    def test_symmetry(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            assert cones.part_metric(x, y) == pytest.approx(
                cones.part_metric(y, x), abs=1e-10
            )

    def test_scaling_shift(self):
        # d(aX, X) = log a exactly, for a >= 1.
        rng = np.random.default_rng(13)
        for _ in range(100):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            a = np.exp(rng.uniform(0.0, 3.0))
            assert cones.part_metric(a * x, x) == pytest.approx(np.log(a), abs=1e-9)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            z = random_spd(rng, n)
            dxz = cones.part_metric(x, z)
            dxy = cones.part_metric(x, y)
            dyz = cones.part_metric(y, z)
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
            d0 = cones.part_metric(x, y)
            d1 = cones.part_metric(
                cones.symmetrize(m @ x @ m.T), cones.symmetrize(m @ y @ m.T)
            )
            assert d1 == pytest.approx(d0, abs=1e-8)
            assert cones.part_metric(2.0**-40 * x, 2.0**-40 * y) == pytest.approx(d0, rel=1e-12)

    def test_sandwich_tightness(self):
        # exp(d)*X >= Y >= exp(-d)*X holds, and fails once d is shrunk.
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = rng.integers(1, 5)
            x = random_spd(rng, n)
            y = random_spd(rng, n)
            d = cones.part_metric(x, y)
            tol = 1e-8 * (1.0 + max(np.abs(x).max(), np.abs(y).max()))
            assert cones.loewner_geq(np.exp(d) * x, y, tol=tol)
            assert cones.loewner_geq(y, np.exp(-d) * x, tol=tol)
            if d > 1e-6:
                shrunk = d * (1.0 - 1e-6) - 1e-12
                up = cones.loewner_geq(np.exp(shrunk) * x, y, tol=0.0)
                dn = cones.loewner_geq(y, np.exp(-shrunk) * x, tol=0.0)
                assert not (up and dn)

    def test_rejects_singular_argument(self):
        with pytest.raises(cones.NotComparableError):
            cones.part_metric(np.diag([1.0, 0.0]), np.eye(2))
        with pytest.raises(cones.NotComparableError):
            cones.part_metric(np.eye(2), np.diag([1.0, 0.0]))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            cones.part_metric(np.eye(2), np.eye(3))


class TestPartMetricBlocks:
    def test_max_over_blocks(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            dims = rng.integers(1, 4, size=rng.integers(1, 5))
            xs = [random_spd(rng, d) for d in dims]
            ys = [random_spd(rng, d) for d in dims]
            per_block = [cones.part_metric(x, y) for x, y in zip(xs, ys)]
            got = cones.part_metric_blocks(xs, ys)
            assert got == pytest.approx(max(per_block), abs=1e-12)

    def test_agrees_with_dense_assembly(self):
        rng = np.random.default_rng(31)
        dims = [2, 1, 3]
        xs = [random_spd(rng, d) for d in dims]
        ys = [random_spd(rng, d) for d in dims]
        dense = cones.part_metric(scipy.linalg.block_diag(*xs), scipy.linalg.block_diag(*ys))
        assert cones.part_metric_blocks(xs, ys) == pytest.approx(dense, abs=1e-10)

    def test_block_count_mismatch(self):
        with pytest.raises(ValueError):
            cones.part_metric_blocks([np.eye(2)], [np.eye(2), np.eye(1)])

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
            cones.part_metric(xs[2], ys[2])
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
            want = min(cones.min_eigenvalue(b) for b in blocks)
            assert cones.min_eigenvalue_blocks(blocks) == pytest.approx(want, abs=1e-12)
            every = np.sort(cones.eigvalsh_blocks(blocks))
            per_block = np.sort(np.concatenate([np.linalg.eigvalsh(b) for b in blocks]))
            assert np.allclose(every, per_block, rtol=0, atol=1e-12)

    def test_symmetrizes_like_min_eigenvalue(self):
        x = np.array([[1.0, 2.0], [0.0, 1.0]])
        assert cones.min_eigenvalue_blocks([x]) == pytest.approx(
            cones.min_eigenvalue(x), abs=1e-15
        )

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

    def test_bitwise_equal_to_scipy(self):
        # Same LAPACK calls as scipy's checked wrappers, so the same bits.
        rng = np.random.default_rng(47)
        for n in range(1, 16):
            x = random_spd(rng, n, lo=1e-3, hi=1e3)
            b = rng.standard_normal((n, 3))
            ref = scipy.linalg.cho_factor(x, lower=True)
            c, lower = cones.cho_factor_pd(x)
            assert lower and np.array_equal(np.tril(c), np.tril(ref[0]))
            assert np.array_equal(cones.solve_pd(x, b), scipy.linalg.cho_solve(ref, b))
            assert np.array_equal(
                cones.solve_pd(x, b[:, 0]), scipy.linalg.cho_solve(ref, b[:, 0])
            )
            inv = scipy.linalg.cho_solve(ref, np.eye(n))
            assert np.array_equal(cones.inv_pd(x), (inv + inv.T) / 2.0)

    def test_unchecked_inverse_keeps_its_identity(self):
        # The unchecked inverse solves against one cached identity per size;
        # potrs must copy it, so repeated calls stay exact and independent.
        rng = np.random.default_rng(53)
        for n in (1, 3, 3, 6, 1):
            x = random_spd(rng, n)
            got = cones._inv_pd(x, "test matrix")
            assert np.array_equal(got, cones.inv_pd(x))
            assert np.array_equal(cones._eye(n), np.eye(n))
            assert not cones._eye(n).flags.writeable

    @pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 2)])
    def test_non_square_rejected(self, shape):
        x = np.ones(shape)
        with pytest.raises(ValueError):
            cones.cho_factor_pd(x)
        with pytest.raises(ValueError):
            cones.solve_pd(x, np.ones(2))
        with pytest.raises(ValueError):
            cones.inv_pd(x)

    def test_failure_carries_context_and_condition(self):
        bad = np.diag([1.0, -1.0])
        with pytest.raises(cones.NumericalError) as err:
            cones.solve_pd(bad, np.ones(2), context="unit test matrix")
        assert "unit test matrix" in str(err.value)
        assert err.value.condition is not None
