"""The stacked information-matrix operator and convergence diagnostics.

The engine updates message information matrices edge by edge.  Collect
every factor-to-variable info block into one block diagonal matrix C
(ascending edge order) and the whole information recursion becomes a
single self-map of the positive semidefinite cone:

    F(C) = A^T (Omega + H [Psi + K (I_phi kron C) K^T]^{-1} H^T)^{-1} A

built from four constant block matrices: A stacks the target coefficient
blocks, Omega the noise covariances, H the interfering coefficient
blocks, Psi the prior information of the interfering variables, and the
sparse selection matrix K routes, for each (factor n, interfering
variable j) slot, the info blocks of all other factors feeding j out of
its own replica of C.  Everything downstream (bounds, monotonicity,
contraction rate, sandwich sequences) is phrased in terms of F.

This module deliberately does not reuse the engine's message loop: it
assembles the global matrices and applies dense/sparse linear algebra, so
agreement between the two is a real cross-check, not a tautology.
"""

import csv
import dataclasses

import numpy as np
import scipy.linalg
import scipy.sparse

from . import cones
from .engine import ConvergenceTrace

__all__ = [
    "StackedOperator",
    "ConeBounds",
    "HarnessReport",
    "SandwichReport",
    "RateReport",
    "build_stacked",
    "apply_stacked_operator",
    "bounds_ul",
    "find_fixed_point",
    "random_state_blocks",
    "property_harness",
    "scaling_margins",
    "sandwich_sequences",
    "annotate_trace",
    "rate_analysis",
    "write_trace_csv",
]

ORDER_TOL = 1e-9


@dataclasses.dataclass(frozen=True)
class StackedOperator:
    """Constant matrices of the stacked update, plus index bookkeeping.

    Shapes (checked at construction):
      a     (dim_obs, dim_c)       block diagonal, A[n][i] per edge
      omega (dim_obs, dim_obs)     block diagonal, R_n per edge
      h     (dim_obs, dim_inner)   block diagonal, [A[n][j]]_j per edge
      psi   (dim_inner, dim_inner) block diagonal, W_j^{-1} per (edge, j)
      k     (dim_inner, phi*dim_c) sparse selection, one C replica per
                                   (edge, j) slot

    ``xi`` maps (factor n, variable j) to the selection matrix with
    xi @ C @ xi.T = sum over factors k != n feeding j of C's (k, j) block,
    for block diagonal C.  K's row blocks are exactly these selections
    shifted into their own replica, which is what makes the Kronecker form
    equal the per-edge recursion.
    """

    edge_order: tuple
    block_dims: tuple
    pair_order: tuple
    phi: int
    dim_c: int
    dim_obs: int
    dim_inner: int
    a: np.ndarray
    omega: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    k: scipy.sparse.csr_matrix
    xi: dict

    def __post_init__(self):
        if self.a.shape != (self.dim_obs, self.dim_c):
            raise ValueError(f"A has shape {self.a.shape}, expected {(self.dim_obs, self.dim_c)}")
        if self.omega.shape != (self.dim_obs, self.dim_obs):
            raise ValueError(f"Omega has shape {self.omega.shape}")
        if self.h.shape != (self.dim_obs, self.dim_inner):
            raise ValueError(f"H has shape {self.h.shape}")
        if self.psi.shape != (self.dim_inner, self.dim_inner):
            raise ValueError(f"Psi has shape {self.psi.shape}")
        if self.k.shape != (self.dim_inner, self.phi * self.dim_c):
            raise ValueError(f"K has shape {self.k.shape}")
        if self.phi != len(self.pair_order):
            raise ValueError(
                f"phi {self.phi} does not match the pair count {len(self.pair_order)}"
            )

    def split(self, c):
        """Cut a stacked matrix into per-edge blocks."""
        return cones.split_blocks(c, self.block_dims)

    def stack(self, blocks):
        """Assemble per-edge blocks into the stacked form."""
        blocks = list(blocks)
        if [b.shape[0] for b in blocks] != list(self.block_dims):
            raise ValueError("block dims do not match the operator layout")
        return cones.block_diag(blocks)


def build_stacked(net):
    """Assemble the stacked operator for a network.

    phi equals sum over factors of |B(f_n)| * (|B(f_n)| - 1): one replica
    of C for each ordered (target variable, interfering variable) pair of
    each factor.  The count is computed both from that formula and from
    the assembled pair list, and they must agree.
    """
    edges = net.directed_edges
    block_dims = tuple(net.var_dim(e.variable) for e in edges)
    col_spans = {}
    off = 0
    for e, d in zip(edges, block_dims):
        col_spans[e] = slice(off, off + d)
        off += d
    dim_c = off

    pairs = []
    for e in edges:
        for j in net.factor_scope(e.factor):
            if j != e.variable:
                pairs.append((e, j))
    phi_formula = sum(
        len(net.factor_scope(n)) * (len(net.factor_scope(n)) - 1) for n in net.ids
    )
    if len(pairs) != phi_formula:
        raise RuntimeError(
            f"pair count {len(pairs)} disagrees with the replica formula {phi_formula}"
        )
    phi = len(pairs)

    dim_obs = sum(net.obs_dim(e.factor) for e in edges)
    inner_spans = []
    off = 0
    for e, j in pairs:
        d = net.var_dim(j)
        inner_spans.append(slice(off, off + d))
        off += d
    dim_inner = off

    a = np.zeros((dim_obs, dim_c))
    omega = np.zeros((dim_obs, dim_obs))
    h = np.zeros((dim_obs, dim_inner))
    psi = np.zeros((dim_inner, dim_inner))

    row = 0
    pair_idx = 0
    for e in edges:
        node = net.node(e.factor)
        m = node.obs_dim
        rows = slice(row, row + m)
        a[rows, col_spans[e]] = node.coeff[e.variable]
        omega[rows, rows] = node.noise_cov
        for j in net.factor_scope(e.factor):
            if j == e.variable:
                continue
            span = inner_spans[pair_idx]
            h[rows, span] = node.coeff[j]
            psi[span, span] = net.prior_info(j)
            pair_idx += 1
        row += m

    xi = {}
    k_rows = []
    k_cols = []
    for t, (e, j) in enumerate(pairs):
        key = (e.factor, j)
        if key not in xi:
            xi[key] = _selection_matrix(net, col_spans, dim_c, e.factor, j)
        sel = xi[key].tocoo()
        k_rows.append(sel.row + inner_spans[t].start)
        k_cols.append(sel.col + t * dim_c)
    if pairs:
        rows_all = np.concatenate(k_rows)
        cols_all = np.concatenate(k_cols)
        data = np.ones(rows_all.shape[0])
    else:
        rows_all = np.zeros(0, dtype=int)
        cols_all = np.zeros(0, dtype=int)
        data = np.zeros(0)
    k = scipy.sparse.coo_matrix(
        (data, (rows_all, cols_all)), shape=(dim_inner, phi * dim_c)
    ).tocsr()

    return StackedOperator(
        edge_order=tuple(edges),
        block_dims=block_dims,
        pair_order=tuple(pairs),
        phi=phi,
        dim_c=dim_c,
        dim_obs=dim_obs,
        dim_inner=dim_inner,
        a=a,
        omega=omega,
        h=h,
        psi=psi,
        k=k,
        xi=xi,
    )


def _selection_matrix(net, col_spans, dim_c, n, j):
    """Xi_{n,j}: (dim of x_j) x dim_c, with an identity block over the
    column span of every edge (k, j) with k a factor of j other than n."""
    from .network import DirectedEdge

    d = net.var_dim(j)
    rows = []
    cols = []
    for k in net.var_factors(j):
        if k == n:
            continue
        span = col_spans[DirectedEdge(k, j)]
        rows.append(np.arange(d))
        cols.append(np.arange(span.start, span.stop))
    if rows:
        r = np.concatenate(rows)
        c = np.concatenate(cols)
    else:
        r = np.zeros(0, dtype=int)
        c = np.zeros(0, dtype=int)
    return scipy.sparse.coo_matrix(
        (np.ones(r.shape[0]), (r, c)), shape=(d, dim_c)
    ).tocsr()


def apply_stacked_operator(op, c):
    """Evaluate F(C) for a stacked (block diagonal, PSD) C.

    The domain is the set of block diagonal matrices in the operator's
    edge layout; off block-diagonal entries of ``c`` would silently change
    the meaning of the selection sums, so they are rejected.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (op.dim_c, op.dim_c):
        raise ValueError(f"C has shape {c.shape}, expected {(op.dim_c, op.dim_c)}")
    if not _is_block_diagonal(c, op.block_dims):
        raise ValueError("C must be block diagonal in the operator's edge layout")
    if op.phi:
        replicated = scipy.sparse.kron(
            scipy.sparse.identity(op.phi, format="csr"),
            scipy.sparse.csr_matrix(c),
            format="csr",
        )
        gathered = (op.k @ replicated @ op.k.T).toarray()
        inner = cones.symmetrize(op.psi + gathered)
        inner_factor = cones.cho_factor_pd(inner, context="stacked inner matrix")
        h_sol = scipy.linalg.cho_solve(inner_factor, op.h.T)
        mid = cones.symmetrize(op.omega + op.h @ h_sol)
    else:
        mid = op.omega.copy()
    a_sol = cones.solve_pd(mid, op.a, context="stacked middle matrix")
    return cones.symmetrize(op.a.T @ a_sol)


def _is_block_diagonal(c, dims, tol=0.0):
    mask = np.ones_like(c, dtype=bool)
    off = 0
    for d in dims:
        mask[off : off + d, off : off + d] = False
        off += d
    return bool(np.all(np.abs(c[mask]) <= tol)) if c.size else True


@dataclasses.dataclass(frozen=True)
class ConeBounds:
    """Loewner bounds of the operator's image: L <= F(C) <= U for all
    PSD C.  U ignores all interference (infinite prior confidence about
    the neighbors), L trusts only the priors (C = 0), so U >= L always."""

    u: np.ndarray
    l: np.ndarray
    u_blocks: list
    l_blocks: list


def bounds_ul(op):
    """Compute (U, L) and verify U >= L > 0.

    U = A^T Omega^{-1} A and L = F(0) = A^T (Omega + H Psi^{-1} H^T)^{-1} A.
    A violation of either order relation means the instance data broke an
    invariant (priors or noises not PD, A rank deficient), so it raises
    rather than returning garbage bounds.
    """
    u = cones.symmetrize(
        op.a.T @ cones.solve_pd(op.omega, op.a, context="stacked noise matrix")
    )
    l = apply_stacked_operator(op, np.zeros((op.dim_c, op.dim_c)))
    tol = cones.default_tolerance(u, l)
    if not cones.is_pd(l, tol=tol):
        raise cones.NumericalError(
            f"lower bound is not positive definite (min eig {cones.min_eigenvalue(l):.3e})"
        )
    if not cones.loewner_geq(u, l, tol=tol):
        raise cones.NumericalError("upper bound does not dominate the lower bound")
    return ConeBounds(u, l, op.split(u), op.split(l))


def find_fixed_point(op, tol=1e-13, max_iterations=20000):
    """Iterate F from L until the Frobenius increment drops below tol.

    Returns (c_star, iterations, converged).  Starting at L keeps every
    iterate inside [L, U] from the first step.
    """
    c = apply_stacked_operator(op, np.zeros((op.dim_c, op.dim_c)))
    for it in range(1, max_iterations + 1):
        nxt = apply_stacked_operator(op, c)
        delta = float(np.linalg.norm(nxt - c, ord="fro"))
        c = nxt
        if delta <= tol:
            return c, it, True
    return c, max_iterations, False


# ---------------------------------------------------------------------------
# property harness


@dataclasses.dataclass(frozen=True)
class HarnessReport:
    """Outcome of randomized order/scaling/bounds checks on F.

    ``failures`` holds one human-readable string per violated property
    instance; empty means every check passed.  Margins are smallest
    eigenvalues of the differences that the properties require to be PSD
    (or strictly PD for the scaling law), so "worst" close to zero from
    above is tight but fine, below -tolerance is a failure.
    """

    trials: int
    seed: int
    order_tol: float
    monotone_checks: int
    scaling_checks: int
    bounds_checks: int
    failures: list
    worst_monotone_margin: float
    worst_scaling_margin: float
    worst_bounds_margin: float


def random_state_blocks(rng, dims, allow_singular=True, scale=1.0):
    """Random blockwise PSD state in the operator layout.

    Blocks are Gram matrices G G^T with G of random inner dimension, so
    singular and even zero blocks occur when ``allow_singular``; these
    exercise the boundary of the cone where the order properties must
    still hold.
    """
    blocks = []
    for d in dims:
        if allow_singular and rng.random() < 0.15:
            blocks.append(np.zeros((d, d)))
            continue
        rank = int(rng.integers(1, d + 1)) if allow_singular else d
        g = rng.standard_normal((d, rank)) * scale
        b = g @ g.T
        if not allow_singular:
            b = b + (0.1 + rng.random()) * np.eye(d)
        blocks.append(cones.symmetrize(b))
    return blocks


def scaling_margins(op, c, alpha):
    """Blockwise min eigenvalue of alpha*F(C) - F(alpha*C).

    The scaling law says this is strictly positive for PSD C and
    alpha > 1 (subhomogeneity with slack, the source of contraction)."""
    fc = apply_stacked_operator(op, c)
    fac = apply_stacked_operator(op, alpha * c)
    diff_blocks = op.split(alpha * fc - fac)
    return min(cones.min_eigenvalue(b) for b in diff_blocks)


def property_harness(op, trials=100, seed=0, order_tol=ORDER_TOL):
    """Randomized verification of the operator's cone properties.

    Per trial t (seeded by (seed, t) so any failure replays in
    isolation):
      monotone: C1 <= C2 = C1 + PSD increment  =>  F(C1) <= F(C2)
      scaling:  PD C, alpha in (1, 10]         =>  alpha F(C) > F(alpha C)
      bounds:   PSD C                          =>  L <= F(C) <= U
    """
    bounds = bounds_ul(op)
    failures = []
    worst_mono = np.inf
    worst_scal = np.inf
    worst_bnds = np.inf
    mono = scal = bnds = 0
    for t in range(trials):
        rng = np.random.default_rng([seed, t])

        c1_blocks = random_state_blocks(rng, op.block_dims)
        inc_blocks = random_state_blocks(rng, op.block_dims)
        c1 = op.stack(c1_blocks)
        c2 = op.stack([a + b for a, b in zip(c1_blocks, inc_blocks)])
        f1 = apply_stacked_operator(op, c1)
        f2 = apply_stacked_operator(op, c2)
        margin = min(cones.min_eigenvalue(b) for b in op.split(f2 - f1))
        worst_mono = min(worst_mono, margin)
        mono += 1
        if margin < -order_tol:
            failures.append(f"trial {t}: monotonicity violated, margin {margin:.3e}")

        pd_blocks = random_state_blocks(rng, op.block_dims, allow_singular=False)
        alpha = 1.0 + 9.0 * float(rng.random())
        alpha = max(alpha, 1.0 + 1e-9)
        margin = scaling_margins(op, op.stack(pd_blocks), alpha)
        worst_scal = min(worst_scal, margin)
        scal += 1
        if margin <= 0.0:
            failures.append(
                f"trial {t}: scaling law not strict at alpha={alpha:.6f}, "
                f"margin {margin:.3e}"
            )

        for f, label in ((f1, "F(C1)"), (f2, "F(C2)")):
            lo = min(
                cones.min_eigenvalue(b) for b in op.split(f - bounds.l)
            )
            hi = min(
                cones.min_eigenvalue(b) for b in op.split(bounds.u - f)
            )
            margin = min(lo, hi)
            worst_bnds = min(worst_bnds, margin)
            bnds += 1
            if margin < -order_tol:
                failures.append(
                    f"trial {t}: {label} escaped [L, U], margin {margin:.3e}"
                )
    return HarnessReport(
        trials=trials,
        seed=seed,
        order_tol=order_tol,
        monotone_checks=mono,
        scaling_checks=scal,
        bounds_checks=bnds,
        failures=failures,
        worst_monotone_margin=float(worst_mono),
        worst_scaling_margin=float(worst_scal),
        worst_bounds_margin=float(worst_bnds),
    )


# ---------------------------------------------------------------------------
# sandwich sequences


@dataclasses.dataclass(frozen=True)
class SandwichReport:
    """Iterating F from alpha*C* (above) and from L (below).

    The upper sequence must decrease, the lower must increase, both must
    keep C* between them, and both part-metric distance sequences must
    fall below ``target``; any broken expectation lands in ``failures``.
    """

    alpha: float
    steps: int
    target: float
    upper_distances: list
    lower_distances: list
    upper_monotone: bool
    lower_monotone: bool
    contains_fixed_point: bool
    reached_target: bool
    failures: list


def sandwich_sequences(
    op, c_star, alpha=2.0, max_steps=500, target=1e-6, order_tol=ORDER_TOL
):
    """Run the two monotone envelope sequences around the fixed point.

    ``c_star`` is the stacked fixed point (dense or block list).  The
    upper sequence starts at alpha * C*, the lower at L = F(0); both are
    driven by F alone, so their behavior is a property of the operator,
    not of the engine run that produced ``c_star``.
    """
    if alpha <= 1.0:
        raise ValueError("alpha must exceed 1")
    if not isinstance(c_star, np.ndarray):
        c_star = op.stack(list(c_star))
    star_blocks = op.split(c_star)
    upper = alpha * c_star
    lower = bounds_ul(op).l
    upper_d = [cones.part_metric_blocks(op.split(upper), star_blocks)]
    lower_d = [cones.part_metric_blocks(op.split(lower), star_blocks)]
    failures = []
    upper_mono = True
    lower_mono = True
    contains = True
    steps = 0
    for step in range(1, max_steps + 1):
        new_upper = apply_stacked_operator(op, upper)
        new_lower = apply_stacked_operator(op, lower)
        m_up = min(cones.min_eigenvalue(b) for b in op.split(upper - new_upper))
        m_lo = min(cones.min_eigenvalue(b) for b in op.split(new_lower - lower))
        if m_up < -order_tol:
            upper_mono = False
            failures.append(f"step {step}: upper sequence increased, margin {m_up:.3e}")
        if m_lo < -order_tol:
            lower_mono = False
            failures.append(f"step {step}: lower sequence decreased, margin {m_lo:.3e}")
        upper, lower = new_upper, new_lower
        m_in_up = min(cones.min_eigenvalue(b) for b in op.split(upper - c_star))
        m_in_lo = min(cones.min_eigenvalue(b) for b in op.split(c_star - lower))
        if min(m_in_up, m_in_lo) < -order_tol:
            contains = False
            failures.append(
                f"step {step}: fixed point escaped the sandwich, "
                f"margins ({m_in_up:.3e}, {m_in_lo:.3e})"
            )
        upper_d.append(cones.part_metric_blocks(op.split(upper), star_blocks))
        lower_d.append(cones.part_metric_blocks(op.split(lower), star_blocks))
        steps = step
        if upper_d[-1] < target and lower_d[-1] < target:
            break
    reached = upper_d[-1] < target and lower_d[-1] < target
    if not reached:
        failures.append(
            f"distances ({upper_d[-1]:.3e}, {lower_d[-1]:.3e}) "
            f"did not reach {target:.1e} in {steps} steps"
        )
    return SandwichReport(
        alpha=alpha,
        steps=steps,
        target=target,
        upper_distances=upper_d,
        lower_distances=lower_d,
        upper_monotone=upper_mono,
        lower_monotone=lower_mono,
        contains_fixed_point=contains,
        reached_target=reached,
        failures=failures,
    )


# ---------------------------------------------------------------------------
# trace annotation and rate estimation


def annotate_trace(trace, bounds, fixed_point_blocks, order_tol=ORDER_TOL):
    """Fill the cone-geometry fields of an engine trace in place.

    Per iteration: Frobenius and part-metric distance to the fixed point,
    membership in [L, U] (expected from iteration 1 on, because F maps
    the whole PSD cone into that interval), and the norm-domination check

        ||C - C*|| <= (2 e^d - e^{-d} - 1) * min(||C||, ||C*||)

    for both the spectral and Frobenius norms, where d is the part
    distance.  Iterations where the state is not PD (a zero init) get
    None for the part-metric fields.
    """
    star = [np.asarray(b, dtype=float) for b in fixed_point_blocks]
    if [b.shape[0] for b in star] != list(trace.block_dims):
        raise ValueError("fixed point blocks do not match the trace layout")
    trace.fixed_point_blocks = star
    star_spec = max(_spectral_norm(b) for b in star)
    star_fro = np.sqrt(sum(float(np.sum(b * b)) for b in star))
    for idx, rec in enumerate(trace.records):
        blocks = trace.info_blocks[idx]
        diff = [b - s for b, s in zip(blocks, star)]
        rec.dist_frobenius = np.sqrt(sum(float(np.sum(d * d)) for d in diff))
        try:
            rec.part_distance = cones.part_metric_blocks(blocks, star)
        except cones.NotComparableError:
            rec.part_distance = None
        if rec.iteration >= 1:
            lo = min(
                cones.min_eigenvalue(b - l)
                for b, l in zip(blocks, bounds.l_blocks)
            )
            hi = min(
                cones.min_eigenvalue(u - b)
                for b, u in zip(blocks, bounds.u_blocks)
            )
            rec.in_bounds = bool(min(lo, hi) >= -order_tol)
        if rec.part_distance is not None:
            d = rec.part_distance
            factor = 2.0 * np.exp(d) - np.exp(-d) - 1.0
            cur_spec = max(_spectral_norm(b) for b in blocks)
            cur_fro = np.sqrt(sum(float(np.sum(b * b)) for b in blocks))
            diff_spec = max(_spectral_norm(b) for b in diff)
            slack_spec = factor * min(cur_spec, star_spec) - diff_spec
            slack_fro = factor * min(cur_fro, star_fro) - rec.dist_frobenius
            rec.norm_slack = float(min(slack_spec, slack_fro))
            rec.norm_bound_ok = bool(rec.norm_slack >= -order_tol)
    return trace


def _spectral_norm(b):
    if b.shape[0] == 0:
        return 0.0
    return float(np.max(np.abs(scipy.linalg.eigvalsh(b))))


@dataclasses.dataclass(frozen=True)
class RateReport:
    """Geometric rate fit of the part-metric distance sequence.

    ``window`` lists the iterations used: at least the second iteration
    onward, distance defined and positive, and the Frobenius distance to
    the fixed point still outside the ``epsilon`` exclusion ball (inside
    it, floating point noise dominates and the fit would be garbage).
    ``c_estimate`` is exp(slope) of the least squares line through
    (iteration, log distance); ``degenerate`` flags windows too short to
    fit.
    """

    c_estimate: float
    r_squared: float
    window: list
    epsilon: float
    strictly_decreasing: bool
    degenerate: bool
    note: str
    norm_bound_all: bool
    worst_norm_slack: float


def rate_analysis(trace_or_distances, epsilon=None):
    """Estimate the contraction factor from a trace or a raw sequence.

    Accepts an annotated ConvergenceTrace, or any sequence of part-metric
    distances indexed by iteration (iteration 0 first).  For traces,
    epsilon defaults to 1e-8 times the Frobenius norm of the fixed point.
    """
    norm_all = None
    worst_slack = float("nan")
    if isinstance(trace_or_distances, ConvergenceTrace):
        trace = trace_or_distances
        if trace.fixed_point_blocks is None:
            raise ValueError("trace is not annotated; call annotate_trace first")
        if epsilon is None:
            star_fro = np.sqrt(
                sum(float(np.sum(b * b)) for b in trace.fixed_point_blocks)
            )
            epsilon = 1e-8 * star_fro
        iters = []
        dists = []
        for rec in trace.records:
            if (
                rec.iteration >= 2
                and rec.part_distance is not None
                and rec.part_distance > 0.0
                and rec.dist_frobenius is not None
                and rec.dist_frobenius > epsilon
            ):
                iters.append(rec.iteration)
                dists.append(rec.part_distance)
        flags = [r.norm_bound_ok for r in trace.records if r.norm_bound_ok is not None]
        norm_all = bool(all(flags)) if flags else None
        slacks = [r.norm_slack for r in trace.records if r.norm_slack is not None]
        if slacks:
            worst_slack = float(min(slacks))
    else:
        seq = [float(v) for v in trace_or_distances]
        if epsilon is None:
            epsilon = 0.0
        iters = [l for l in range(1, len(seq)) if seq[l] > epsilon]
        dists = [seq[l] for l in iters]

    if len(iters) < 2:
        return RateReport(
            c_estimate=None,
            r_squared=None,
            window=list(iters),
            epsilon=float(epsilon),
            strictly_decreasing=True,
            degenerate=True,
            note="window has fewer than two usable iterations; no fit",
            norm_bound_all=norm_all,
            worst_norm_slack=worst_slack,
        )
    xs = np.asarray(iters, dtype=float)
    ys = np.log(np.asarray(dists, dtype=float))
    slope, intercept = np.polyfit(xs, ys, 1)
    fit = slope * xs + intercept
    ss_res = float(np.sum((ys - fit) ** 2))
    ss_tot = float(np.sum((ys - np.mean(ys)) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 0.0
    decreasing = all(
        dists[k + 1] < dists[k]
        for k in range(len(dists) - 1)
        if iters[k + 1] == iters[k] + 1
    )
    return RateReport(
        c_estimate=float(np.exp(slope)),
        r_squared=float(r_squared),
        window=list(iters),
        epsilon=float(epsilon),
        strictly_decreasing=bool(decreasing),
        degenerate=False,
        note="",
        norm_bound_all=norm_all,
        worst_norm_slack=worst_slack,
    )


def write_trace_csv(trace, path):
    """Write the per-iteration diagnostics as CSV.

    Columns: iteration, frobenius_delta, part_distance, in_bounds,
    norm_bound_ok.  Fields that are undefined at an iteration (the delta
    at iteration 0, part metrics of non-PD states, cone fields of an
    unannotated trace) are left empty.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["iteration", "frobenius_delta", "part_distance", "in_bounds", "norm_bound_ok"]
        )
        for rec in trace.records:
            writer.writerow(
                [
                    rec.iteration,
                    _csv_float(rec.frobenius_delta),
                    _csv_float(rec.part_distance),
                    _csv_bool(rec.in_bounds),
                    _csv_bool(rec.norm_bound_ok),
                ]
            )


def _csv_float(v):
    if v is None or (isinstance(v, float) and not np.isfinite(v)):
        return ""
    return repr(float(v))


def _csv_bool(v):
    if v is None:
        return ""
    return "true" if v else "false"
