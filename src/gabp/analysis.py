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

F is evaluated block by block with one batched Cholesky per block size:
T_nj = H_nj (Psi_j + Xi_nj C Xi_nj^T)^{-1} H_nj^T per (n, j), then
A_ni^T (R_n + sum_{j != i} T_nj)^{-1} A_ni per edge (n, i).  This does not
reuse the engine's message loop: the blocks come from the assembled
matrices above, so agreement between the two is a real cross-check.
"""

import collections
import csv
import dataclasses
import itertools

import numpy as np
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

# One batch of equally shaped blocks of a layer of F (see ``_stage``).
_Batch = collections.namedtuple("_Batch", "base operand route labels out")


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

    ``c_groups`` holds (edge positions, index arrays) of C's blocks per
    block size; ``inner`` (one block per (n, j), from psi and h.T) and
    ``middle`` (one per edge, from omega and a) are F's two layers.
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
    c_groups: list
    inner: list
    middle: list

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
        blocks = [np.asarray(b, dtype=float) for b in blocks]
        if [b.shape for b in blocks] != [(d, d) for d in self.block_dims]:
            raise ValueError("block dims do not match the operator layout")
        out = np.zeros((self.dim_c, self.dim_c))
        for pos, idx in self.c_groups:
            out[idx] = [blocks[k] for k in pos]
        return out


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
    row_starts = {}
    for e in edges:
        node = net.node(e.factor)
        m = node.obs_dim
        rows = slice(row, row + m)
        row_starts[e] = row
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

    # Xi_{n,j}: an identity block over the column span of every edge (f, j)
    # with f a factor of j other than n.
    xi = {}
    for e, j in pairs:
        n, d = e.factor, net.var_dim(j)
        if (n, j) not in xi:
            starts = np.array([col_spans[(f, j)].start for f in net.var_factors(j) if f != n], int)
            xi[(n, j)] = scipy.sparse.csr_matrix(
                (np.ones(starts.size * d),
                 (np.tile(np.arange(d), starts.size), np.add.outer(starts, np.arange(d)).ravel())),
                shape=(d, dim_c),
            )
    if pairs:
        k = scipy.sparse.block_diag([xi[(e.factor, j)] for e, j in pairs], format="csr")
    else:
        k = scipy.sparse.csr_matrix((0, 0))

    # Layer index data, sorted so that equal block shapes are contiguous.
    # Inner: one block per (n, j), read at its first slot and fed by the C
    # blocks that Xi_{n,j} selects.  Middle: one block per edge (n, i), fed
    # by the inner outputs T_nj of the factor's other variables.  Each
    # layer's input is flat, C blocks by size then edge, T blocks by key.
    c_groups = []
    c_flat = {}
    off = 0
    for d in sorted(set(block_dims)):
        pos = [x for x, dx in enumerate(block_dims) if dx == d]
        c_groups.append((pos, _block_index([(col_spans[edges[x]].start, d) * 2 for x in pos])))
        c_flat.update((edges[x], off + i * d * d) for i, x in enumerate(pos))
        off += len(pos) * d * d
    slot = {}
    for (e, j), span in zip(pairs, inner_spans):
        slot.setdefault((e.factor, j), (span.start, row_starts[e]))
    keys = sorted(slot, key=lambda q: (net.var_dim(q[1]), net.obs_dim(q[0])))
    t_sizes = [net.obs_dim(n) ** 2 for n, _ in keys]
    t_flat = dict(zip(keys, np.cumsum([0] + t_sizes)))
    inner = _stage(
        [(slot[q][0], net.var_dim(q[1]), slot[q][1], net.obs_dim(q[0])) for q in keys],
        [[c_flat[(f, j)] for f in net.var_factors(j) if f != n] for n, j in keys],
        off,
        [f"factor {n} / variable {j} inner matrix" for n, j in keys],
    )
    mid = sorted(edges, key=lambda e: (net.obs_dim(e.factor), net.var_dim(e.variable)))
    middle = _stage(
        [(row_starts[e], net.obs_dim(e.factor), col_spans[e].start, net.var_dim(e.variable))
         for e in mid],
        [[t_flat[(e.factor, j)] for j in net.factor_scope(e.factor) if j != e.variable]
         for e in mid],
        sum(t_sizes),
        [f"edge ({e.factor}, {e.variable}) middle matrix" for e in mid],
    )

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
        c_groups=c_groups,
        inner=inner,
        middle=middle,
    )


def _block_index(spans):
    """Index arrays that read equally shaped blocks, ``spans`` listing
    (row, p, col, q) per block, out of a matrix as one (count, p, q) array."""
    rows, _, cols, _ = np.array(spans).T
    _, p, _, q = spans[0]
    return rows[:, None, None] + np.arange(p)[:, None], cols[:, None, None] + np.arange(q)


def _stage(spans, sources, width, labels):
    """Batches of one layer of F: out_k = G_k^T B_k^{-1} G_k, with G_k the
    operand block at spans[k] = (row, p, col, q) and B_k the p x p base
    block at (row, row) plus the blocks of a flat input (``width`` long)
    at the offsets ``sources[k]``.  Each run of equal (p, q) is a batch;
    ``out`` places its outputs at (col, col), for the middle layer in C."""
    batches = []
    k = 0
    for (p, q), run in itertools.groupby(spans, key=lambda s: (s[1], s[3])):
        run = list(run)
        src = sources[k : k + len(run)]
        rows = [np.arange(i * p * p, (i + 1) * p * p) for i, ss in enumerate(src) for _ in ss]
        cols = [np.arange(s, s + p * p) for ss in src for s in ss]
        rows, cols = (np.concatenate(x + [np.zeros(0, dtype=int)]) for x in (rows, cols))
        route = scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), (len(run) * p * p, width))
        base = _block_index([(r, p) * 2 for r, p, _, _ in run])
        out = _block_index([(c, q) * 2 for _, _, c, q in run])
        batches.append(_Batch(base, _block_index(run), route, labels[k : k + len(run)], out))
        k += len(run)
    return batches


def _run_stage(batches, base, operand, src=None):
    """Evaluate one layer of F on its assembled matrices, adding the flat
    input ``src`` (if any) to the B blocks; returns one array per batch.
    A B block that is not positive definite raises NumericalError naming
    the first such block."""
    out = []
    for batch in batches:
        b = base[batch.base]
        if src is not None:
            b = b + (batch.route @ src).reshape(b.shape)
        b = (b + b.swapaxes(1, 2)) / 2.0
        try:
            chol = np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            for x, label in zip(b, batch.labels):
                cones.cho_factor_pd(x, context=label)
            raise
        z = np.linalg.solve(chol, operand[batch.operand])
        r = z.swapaxes(1, 2) @ z
        out.append((r + r.swapaxes(1, 2)) / 2.0)
    return out


def _flat(arrays):
    return np.concatenate([x.ravel() for x in arrays] + [np.zeros(0)])


def apply_stacked_operator(op, c):
    """Evaluate F(C) for a stacked (block diagonal, PSD) C.

    The domain is the set of block diagonal matrices in the operator's
    edge layout; off block-diagonal entries of ``c`` would silently change
    the meaning of the selection sums, so they are rejected.
    """
    c = np.asarray(c, dtype=float)
    if c.shape != (op.dim_c, op.dim_c):
        raise ValueError(f"C has shape {c.shape}, expected {(op.dim_c, op.dim_c)}")
    blocks = [c[idx] for _, idx in op.c_groups]
    if np.count_nonzero(c) != sum(np.count_nonzero(b) for b in blocks):
        raise ValueError("C must be block diagonal in the operator's edge layout")
    if not all(np.all(np.isfinite(b)) for b in blocks):
        raise ValueError("C has non-finite entries")
    t = _run_stage(op.inner, op.psi, op.h.T, _flat(blocks))
    return _scatter(op, _run_stage(op.middle, op.omega, op.a, _flat(t)))


def _scatter(op, out):
    c = np.zeros((op.dim_c, op.dim_c))
    for batch, x in zip(op.middle, out):
        c[batch.out] = x
    return c


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

    U = A^T Omega^{-1} A and L = F(0) = A^T (Omega + H Psi^{-1} H^T)^{-1} A,
    both per edge.  A violation of either order relation means the
    instance data broke an invariant (priors or noises not PD, A rank
    deficient), so it raises rather than returning garbage bounds.
    """
    u = _scatter(op, _run_stage(op.middle, op.omega, op.a))
    l = apply_stacked_operator(op, np.zeros((op.dim_c, op.dim_c)))
    u_blocks = op.split(u)
    l_blocks = op.split(l)
    tol = cones.default_tolerance(u, l)
    l_min = cones.min_eigenvalue_blocks(l_blocks)
    if not l_min > tol:
        raise cones.NumericalError(f"lower bound is not positive definite (min eig {l_min:.3e})")
    if cones.min_eigenvalue_blocks([x - y for x, y in zip(u_blocks, l_blocks)]) < -tol:
        raise cones.NumericalError("upper bound does not dominate the lower bound")
    return ConeBounds(u, l, u_blocks, l_blocks)


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
    return cones.min_eigenvalue_blocks(op.split(alpha * fc - fac))


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
        margin = cones.min_eigenvalue_blocks(op.split(f2 - f1))
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
            margin = min(
                cones.min_eigenvalue_blocks(op.split(f - bounds.l)),
                cones.min_eigenvalue_blocks(op.split(bounds.u - f)),
            )
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
        m_up = cones.min_eigenvalue_blocks(op.split(upper - new_upper))
        m_lo = cones.min_eigenvalue_blocks(op.split(new_lower - lower))
        if m_up < -order_tol:
            upper_mono = False
            failures.append(f"step {step}: upper sequence increased, margin {m_up:.3e}")
        if m_lo < -order_tol:
            lower_mono = False
            failures.append(f"step {step}: lower sequence decreased, margin {m_lo:.3e}")
        upper, lower = new_upper, new_lower
        m_in_up = cones.min_eigenvalue_blocks(op.split(upper - c_star))
        m_in_lo = cones.min_eigenvalue_blocks(op.split(c_star - lower))
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
    star_spec = _spectral_norm(star)
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
            lo = cones.min_eigenvalue_blocks([b - l for b, l in zip(blocks, bounds.l_blocks)])
            hi = cones.min_eigenvalue_blocks([u - b for b, u in zip(blocks, bounds.u_blocks)])
            rec.in_bounds = bool(min(lo, hi) >= -order_tol)
        if rec.part_distance is not None:
            d = rec.part_distance
            factor = 2.0 * np.exp(d) - np.exp(-d) - 1.0
            cur_spec = _spectral_norm(blocks)
            cur_fro = np.sqrt(sum(float(np.sum(b * b)) for b in blocks))
            diff_spec = _spectral_norm(diff)
            slack_spec = factor * min(cur_spec, star_spec) - diff_spec
            slack_fro = factor * min(cur_fro, star_fro) - rec.dist_frobenius
            rec.norm_slack = float(min(slack_spec, slack_fro))
            rec.norm_bound_ok = bool(rec.norm_slack >= -order_tol)
    return trace


def _spectral_norm(blocks):
    """Spectral norm of the direct sum of symmetric blocks."""
    return float(np.max(np.abs(cones.eigvalsh_blocks(blocks)), initial=0.0))


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
