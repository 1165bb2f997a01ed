"""The stacked information-matrix operator and convergence diagnostics.

The engine updates message information matrices edge by edge.  Collect
every factor-to-variable info block into one block diagonal matrix C
(ascending edge order) and the whole information recursion becomes a
single self-map of the positive semidefinite cone:

    F(C) = A^T (Omega + H [Psi + K (I_phi kron C) K^T]^{-1} H^T)^{-1} A

defined by four constant block diagonal matrices: A stacks the target
coefficient blocks, Omega the noise covariances, H the interfering
coefficient blocks, Psi the prior information of the interfering
variables, and the sparse selection matrix K routes, for each (factor n,
interfering variable j) slot, the info blocks of all other factors
feeding j out of its own replica of C.  Everything downstream (bounds,
monotonicity, contraction rate, sandwich sequences) is phrased in terms
of F.

F maps block diagonal C to block diagonal F(C), so it is evaluated block
by block with one batched Cholesky per block size:
T_nj = H_nj (Psi_j + Xi_nj C Xi_nj^T)^{-1} H_nj^T per (n, j), then
A_ni^T (R_n + sum_{j != i} T_nj)^{-1} A_ni per edge (n, i), where Xi_nj
C Xi_nj^T sums C's blocks of the other factors feeding j.  Only those
blocks are stored; the global matrices are never assembled.  C and F(C)
travel as block lists in edge order, or as the dense stacked matrix for
callers that pass one.  This does not reuse the engine's message loop:
the routing comes from this module's own scopes, so agreement between
the two is a real cross-check.
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
_Batch = collections.namedtuple("_Batch", "base operand shape route labels out")


@dataclasses.dataclass(frozen=True)
class StackedOperator:
    """The blocks of the stacked update, plus index bookkeeping.

    A, Omega, H, Psi and K (module docstring) define F; the operator
    stores only the blocks F reads, each field flat (1-D) in the order its
    layer reads them:
      a      A_ni per edge (n, i)                        middle operand
      omega  R_n per edge                                middle base
      h      H_nj^T per (factor n, variable j) key       inner operand
      psi    W_j^{-1} per (n, j) key                     inner base
    ``dim_obs`` and ``dim_inner`` are the sizes of the global Omega and
    Psi; ``phi`` counts K's replicas of C, one per entry of ``pair_order``.

    ``c_groups`` holds (edge positions, index arrays) of C's blocks per
    block size in the dense form; ``inner`` (one block per (n, j)) and
    ``middle`` (one per edge) are F's two layers, as batches that slice
    the stores above.
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
    c_groups: list
    inner: list
    middle: list

    def __post_init__(self):
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
    """Collect the blocks of the stacked operator for a network.

    phi equals sum over factors of |B(f_n)| * (|B(f_n)| - 1): one replica
    of C for each ordered (target variable, interfering variable) pair of
    each factor.  The count is computed both from that formula and from
    the pair list, and they must agree.
    """
    edges = net.directed_edges
    block_dims = tuple(net.var_dim(e.variable) for e in edges)
    pairs = [(e, j) for e in edges for j in net.factor_scope(e.factor) if j != e.variable]
    phi_formula = sum(
        len(net.factor_scope(n)) * (len(net.factor_scope(n)) - 1) for n in net.ids
    )
    if len(pairs) != phi_formula:
        raise RuntimeError(
            f"pair count {len(pairs)} disagrees with the replica formula {phi_formula}"
        )

    # C's blocks: index arrays into the dense form per block size, and
    # offsets into the flat form (blocks in edge order).
    starts = np.cumsum((0,) + block_dims)
    c_groups = []
    for d in sorted(set(block_dims)):
        pos = [x for x, dx in enumerate(block_dims) if dx == d]
        c_groups.append((pos, _block_index([(starts[x], d) * 2 for x in pos])))
    c_flat = np.cumsum((0,) + tuple(d * d for d in block_dims))
    c_at = dict(zip(edges, c_flat))

    # Inner: one block per (n, j), fed by the C blocks that Xi_{n,j}
    # selects (the other factors of j).  Middle: one block per edge (n, i),
    # fed by the inner outputs T_nj of the factor's other variables.  Each
    # layer is sorted so that equal block shapes are adjacent.
    keys = sorted(
        dict.fromkeys((e.factor, j) for e, j in pairs),
        key=lambda q: (net.var_dim(q[1]), net.obs_dim(q[0])),
    )
    inner, psi, h = _stage(
        [(net.prior_info(j), net.node(n).coeff[j].T) for n, j in keys],
        [[c_at[(f, j)] for f in net.var_factors(j) if f != n] for n, j in keys],
        c_flat[-1],
        [f"factor {n} / variable {j} inner matrix" for n, j in keys],
        range(len(keys)),
    )
    t_flat = np.cumsum([0] + [net.obs_dim(n) ** 2 for n, _ in keys])
    t_at = dict(zip(keys, t_flat))
    mid = sorted(range(len(edges)), key=lambda x: (net.obs_dim(edges[x].factor), block_dims[x]))
    mid_edges = [edges[x] for x in mid]
    middle, omega, a = _stage(
        [(net.node(e.factor).noise_cov, net.node(e.factor).coeff[e.variable]) for e in mid_edges],
        [[t_at[(e.factor, j)] for j in net.factor_scope(e.factor) if j != e.variable]
         for e in mid_edges],
        t_flat[-1],
        [f"edge ({e.factor}, {e.variable}) middle matrix" for e in mid_edges],
        mid,
    )

    return StackedOperator(
        edge_order=tuple(edges),
        block_dims=block_dims,
        pair_order=tuple(pairs),
        phi=len(pairs),
        dim_c=int(starts[-1]),
        dim_obs=sum(net.obs_dim(e.factor) for e in edges),
        dim_inner=sum(net.var_dim(j) for _, j in pairs),
        a=a,
        omega=omega,
        h=h,
        psi=psi,
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


def _stage(blocks, sources, width, labels, out):
    """One layer of F: out_k = G_k^T (B_k + S_k)^{-1} G_k for the (B_k, G_k)
    pairs in ``blocks``, p x p and p x q, where S_k sums the blocks of a
    flat input (``width`` long) at the offsets ``sources[k]``.  Equal
    (p, q) must be adjacent; each run is one batch, and ``out`` gives the
    position of each output.  Returns the batches and the flat base and
    operand stores, which the batches read by slice."""
    batches = []
    k = b0 = g0 = 0
    for (p, q), run in itertools.groupby(g.shape for _, g in blocks):
        n = len(list(run))
        src = sources[k : k + n]
        rows = [np.arange(i * p * p, (i + 1) * p * p) for i, ss in enumerate(src) for _ in ss]
        cols = [np.arange(s, s + p * p) for ss in src for s in ss]
        rows, cols = (np.concatenate(x + [np.zeros(0, dtype=int)]) for x in (rows, cols))
        route = scipy.sparse.csr_matrix((np.ones(rows.size), (rows, cols)), (n * p * p, width))
        batches.append(_Batch(
            slice(b0, b0 + n * p * p), slice(g0, g0 + n * p * q), (n, p, q), route,
            labels[k : k + n], out[k : k + n],
        ))
        k, b0, g0 = k + n, b0 + n * p * p, g0 + n * p * q
    return batches, _flat([b for b, _ in blocks]), _flat([g for _, g in blocks])


def _run_stage(batches, base, operand, src=None):
    """Evaluate one layer of F on its stores, adding the flat input
    ``src`` (if any) to the B blocks; returns one array per batch.  A B
    block that is not positive definite raises NumericalError naming the
    first such block."""
    out = []
    for batch in batches:
        n, p, q = batch.shape
        b = base[batch.base].reshape(n, p, p)
        if src is not None:
            b = b + (batch.route @ src).reshape(b.shape)
        b = (b + b.swapaxes(1, 2)) / 2.0
        try:
            chol = np.linalg.cholesky(b)
        except np.linalg.LinAlgError:
            for x, label in zip(b, batch.labels):
                cones.cho_factor_pd(x, context=label)
            raise
        z = np.linalg.solve(chol, operand[batch.operand].reshape(n, p, q))
        r = z.swapaxes(1, 2) @ z
        out.append((r + r.swapaxes(1, 2)) / 2.0)
    return out


def _middle(op, t=None):
    """The middle layer of F as blocks in edge order; without the inner
    outputs ``t`` (no interference) this is U."""
    blocks = [None] * len(op.edge_order)
    for batch, x in zip(op.middle, _run_stage(op.middle, op.omega, op.a, t)):
        for k, b in zip(batch.out, x):
            blocks[k] = b
    return blocks


def _flat(arrays):
    return np.concatenate([x.ravel() for x in arrays] + [np.zeros(0)])


def _as_blocks(op, c):
    """C's blocks in edge order, their flat concatenation, and whether C
    came as the dense stacked matrix.

    A dense C must have the operator's shape and be block diagonal in its
    edge layout: off block-diagonal entries would silently change the
    meaning of the selection sums, so they are rejected.  A block list
    must match ``block_dims``.  Either must be finite.
    """
    dense = isinstance(c, np.ndarray)
    if dense:
        if c.shape != (op.dim_c, op.dim_c):
            raise ValueError(f"C has shape {c.shape}, expected {(op.dim_c, op.dim_c)}")
        blocks = op.split(c)
        if np.count_nonzero(c) != sum(np.count_nonzero(b) for b in blocks):
            raise ValueError("C must be block diagonal in the operator's edge layout")
    else:
        blocks = [np.asarray(b, dtype=float) for b in c]
        if [b.shape for b in blocks] != [(d, d) for d in op.block_dims]:
            raise ValueError("C's blocks do not match the operator layout")
    flat = _flat(blocks)
    if not np.all(np.isfinite(flat)):
        raise ValueError("C has non-finite entries")
    return blocks, flat, dense


def apply_stacked_operator(op, c):
    """Evaluate F(C) for a stacked (block diagonal, PSD) C.

    ``c`` is either the dense stacked matrix or its blocks in edge order,
    and F(C) comes back in the same form.
    """
    _, flat, dense = _as_blocks(op, c)
    out = _middle(op, _flat(_run_stage(op.inner, op.psi, op.h, flat)))
    return op.stack(out) if dense else out


@dataclasses.dataclass(frozen=True)
class ConeBounds:
    """Loewner bounds of the operator's image: L <= F(C) <= U for all
    PSD C, as blocks in edge order.  U ignores all interference (infinite
    prior confidence about the neighbors), L trusts only the priors
    (C = 0), so U >= L always."""

    u_blocks: list
    l_blocks: list


def bounds_ul(op):
    """Compute (U, L) and verify U >= L > 0.

    U = A^T Omega^{-1} A and L = F(0) = A^T (Omega + H Psi^{-1} H^T)^{-1} A,
    both per edge.  A violation of either order relation means the
    instance data broke an invariant (priors or noises not PD, A rank
    deficient), so it raises rather than returning garbage bounds.
    """
    u_blocks = _middle(op)
    l_blocks = apply_stacked_operator(op, [np.zeros((d, d)) for d in op.block_dims])
    tol = cones.default_tolerance(_flat(u_blocks), _flat(l_blocks))
    l_min = cones.min_eigenvalue_blocks(l_blocks)
    if not l_min > tol:
        raise cones.NumericalError(f"lower bound is not positive definite (min eig {l_min:.3e})")
    if cones.min_eigenvalue_blocks([x - y for x, y in zip(u_blocks, l_blocks)]) < -tol:
        raise cones.NumericalError("upper bound does not dominate the lower bound")
    return ConeBounds(u_blocks, l_blocks)


def find_fixed_point(op, tol=1e-13, max_iterations=20000):
    """Iterate F from L until the Frobenius increment drops below tol.

    Returns (c_star, iterations, converged), c_star as the dense stacked
    matrix.  Starting at L keeps every iterate inside [L, U] from the
    first step.
    """
    c = apply_stacked_operator(op, [np.zeros((d, d)) for d in op.block_dims])
    for it in range(1, max_iterations + 1):
        nxt = apply_stacked_operator(op, c)
        delta = float(np.linalg.norm(_flat(nxt) - _flat(c)))
        c = nxt
        if delta <= tol:
            return op.stack(c), it, True
    return op.stack(c), max_iterations, False


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
    """Blockwise min eigenvalue of alpha*F(C) - F(alpha*C), for C dense
    or as blocks.

    The scaling law says this is strictly positive for PSD C and
    alpha > 1 (subhomogeneity with slack, the source of contraction)."""
    blocks, _, _ = _as_blocks(op, c)
    fc = apply_stacked_operator(op, blocks)
    fac = apply_stacked_operator(op, [alpha * b for b in blocks])
    return _margin([alpha * x for x in fc], fac)


def _margin(xs, ys):
    """Smallest eigenvalue of X - Y over the blocks: >= 0 iff X >= Y."""
    return cones.min_eigenvalue_blocks([x - y for x, y in zip(xs, ys)])


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
        f1 = apply_stacked_operator(op, c1_blocks)
        f2 = apply_stacked_operator(op, [a + b for a, b in zip(c1_blocks, inc_blocks)])
        margin = _margin(f2, f1)
        worst_mono = min(worst_mono, margin)
        mono += 1
        if margin < -order_tol:
            failures.append(f"trial {t}: monotonicity violated, margin {margin:.3e}")

        pd_blocks = random_state_blocks(rng, op.block_dims, allow_singular=False)
        alpha = 1.0 + 9.0 * float(rng.random())
        alpha = max(alpha, 1.0 + 1e-9)
        margin = scaling_margins(op, pd_blocks, alpha)
        worst_scal = min(worst_scal, margin)
        scal += 1
        if margin <= 0.0:
            failures.append(
                f"trial {t}: scaling law not strict at alpha={alpha:.6f}, "
                f"margin {margin:.3e}"
            )

        for f, label in ((f1, "F(C1)"), (f2, "F(C2)")):
            margin = min(_margin(f, bounds.l_blocks), _margin(bounds.u_blocks, f))
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
    star, _, _ = _as_blocks(op, c_star)
    upper = [alpha * b for b in star]
    lower = bounds_ul(op).l_blocks
    upper_d = [cones.part_metric_blocks(upper, star)]
    lower_d = [cones.part_metric_blocks(lower, star)]
    failures = []
    upper_mono = True
    lower_mono = True
    contains = True
    steps = 0
    for step in range(1, max_steps + 1):
        new_upper = apply_stacked_operator(op, upper)
        new_lower = apply_stacked_operator(op, lower)
        m_up = _margin(upper, new_upper)
        m_lo = _margin(new_lower, lower)
        if m_up < -order_tol:
            upper_mono = False
            failures.append(f"step {step}: upper sequence increased, margin {m_up:.3e}")
        if m_lo < -order_tol:
            lower_mono = False
            failures.append(f"step {step}: lower sequence decreased, margin {m_lo:.3e}")
        upper, lower = new_upper, new_lower
        m_in_up = _margin(upper, star)
        m_in_lo = _margin(star, lower)
        if min(m_in_up, m_in_lo) < -order_tol:
            contains = False
            failures.append(
                f"step {step}: fixed point escaped the sandwich, "
                f"margins ({m_in_up:.3e}, {m_in_lo:.3e})"
            )
        upper_d.append(cones.part_metric_blocks(upper, star))
        lower_d.append(cones.part_metric_blocks(lower, star))
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
    # Rows of the mean-only tail share one held info list: compute the
    # figures once per distinct list (the trace keeps every list alive, so
    # identities are not reused).
    figures = {}
    for rec, blocks in zip(trace.records, trace.info_blocks):
        key = (id(blocks), rec.iteration >= 1)
        if key not in figures:
            figures[key] = _snapshot_figures(blocks, star, star_spec, star_fro, bounds, key[1])
        rec.dist_frobenius, rec.part_distance, margin, slack = figures[key]
        if rec.iteration >= 1:
            rec.in_bounds = bool(margin >= -order_tol)
        if slack is not None:
            rec.norm_slack = slack
            rec.norm_bound_ok = bool(slack >= -order_tol)
    return trace


def _snapshot_figures(blocks, star, star_spec, star_fro, bounds, check_bounds):
    """Frobenius and part distance to the fixed point, [L, U] margin (if
    ``check_bounds``) and norm-domination slack of one info snapshot."""
    diff = [b - s for b, s in zip(blocks, star)]
    dist = np.sqrt(sum(float(np.sum(d * d)) for d in diff))
    try:
        part = cones.part_metric_blocks(blocks, star)
    except cones.NotComparableError:
        part = None
    margin = None
    if check_bounds:
        margin = min(_margin(blocks, bounds.l_blocks), _margin(bounds.u_blocks, blocks))
    slack = None
    if part is not None:
        factor = 2.0 * np.exp(part) - np.exp(-part) - 1.0
        cur_fro = np.sqrt(sum(float(np.sum(b * b)) for b in blocks))
        slack_spec = factor * min(_spectral_norm(blocks), star_spec) - _spectral_norm(diff)
        slack = float(min(slack_spec, factor * min(cur_fro, star_fro) - dist))
    return dist, part, margin, slack


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
