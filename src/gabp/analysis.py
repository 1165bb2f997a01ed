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
by block in two layers: T_nj = H_nj (Psi_j + Xi_nj C Xi_nj^T)^{-1}
H_nj^T per (n, j), then A_ni^T (R_n + sum_{j != i} T_nj)^{-1} A_ni per
edge (n, i), where Xi_nj C Xi_nj^T sums C's blocks of the other factors
feeding j.  Only those blocks are stored.  C and F(C) are one padded
(E, D, D) stack in edge order, zero past each block's size.  Padding B
with identity and G with zero rows and columns leaves G^T B^{-1} G
unchanged, so each layer is one padded batch: B is a base stack plus
whole input blocks, gathered by one fancy index per source column, and
one batched PD solve z = L^{-1} G in cones (B = L L^T) and z^T z give
the layer's output.  This module routes and pads, cones factorizes and
names failures.  The routing comes from this module's own scopes, not
the engine's message loop, so agreement between the two is a real
cross-check: this module imports only ``gabp.cones`` from the package.
``rate_analysis`` fits a trace that ``annotate_trace`` filled.
"""

import csv
import dataclasses
import functools

import numpy as np

from . import cones

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
SANDWICH_MAX_STEPS = 500


@dataclasses.dataclass(frozen=True)
class StackedOperator:
    """The blocks of the stacked update, plus index bookkeeping.

    A, Omega, H, Psi and K (module docstring) define F; the operator
    stores only the blocks F reads, each in the leading corner of its row
    of a padded stack, zero past it (identity on a base's diagonal).  With
    E edges, K (factor n, variable j) keys and D (P) the largest variable
    (observation) dimension:
      a      A_ni per edge (n, i)       (E, P, D)   middle operand
      omega  R_n per edge               (E, P, P)   middle base
      h      H_nj^T per key (n, j)      (K, D, P)   inner operand
      psi    W_j^{-1} per key           (K, D, D)   inner base
    ``c_sources`` (K, m) holds per key the ascending edge positions of the
    C blocks that Xi_nj sums, ``t_sources`` (E, m') per edge the key
    positions of the T_nj that it sums; E (K) fills a row: a zero block.
    ``inner`` and ``middle`` are each layer's (B sizes, failure labels).
    ``dim_c`` is the size of C, the sum of ``block_dims``; ``phi`` counts
    K's replicas of C, one per entry of ``pair_order``.  Both are derived.
    """

    edge_order: tuple
    block_dims: tuple
    pair_order: tuple
    a: np.ndarray
    omega: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    c_sources: np.ndarray
    t_sources: np.ndarray
    inner: tuple
    middle: tuple

    @property
    def phi(self):
        return len(self.pair_order)

    @property
    def dim_c(self):
        return sum(self.block_dims)

    @functools.cached_property
    def _padding(self):
        """True past each block's size in the (E, D, D) stack of C."""
        i, d = np.arange(self.a.shape[2]), np.array(self.block_dims)[:, None, None]
        return (i[:, None] >= d) | (i >= d)

    @functools.cached_property
    def _size_index(self):
        """Edge positions of C's blocks per size d, for the eigensolves."""
        dims = np.array(self.block_dims)
        return {d: np.flatnonzero(dims == d) for d in sorted(set(self.block_dims))}

    @functools.cached_property
    def _bounds(self):
        """(U, L), computed and checked once (see ``bounds_ul``) by
        ``cones._pd_flags`` (L > 0) and ``cones._geq_flags`` (U >= L)."""
        u = _middle(self, np.zeros((len(self.psi) + 1, *self.omega.shape[1:])))
        l = apply_stacked_operator(self, np.zeros(self._padding.shape))
        for x in (u, l):
            x.setflags(write=False)
        u_blocks, l_blocks = _split(self, u), _split(self, l)
        bad = np.flatnonzero(~cones._pd_flags(l_blocks))
        if bad.size:
            raise cones.NumericalError(
                f"lower bound on edge {tuple(self.edge_order[bad[0]])} is not positive "
                f"definite (min eig {cones.min_eigenvalue_blocks([l_blocks[bad[0]]]):.3e})"
            )
        bad = np.flatnonzero(~cones._geq_flags(u_blocks, l_blocks))
        if bad.size:
            raise cones.NumericalError(f"upper bound on edge {tuple(self.edge_order[bad[0]])} "
                                       "does not dominate the lower bound")
        return ConeBounds(tuple(u_blocks), tuple(l_blocks))


def build_stacked(net):
    """Collect the blocks of the stacked operator for a network.

    ``pair_order`` lists one replica of C for each ordered (target
    variable, interfering variable) pair of each factor, so phi is the sum
    over factors of |B(f_n)| * (|B(f_n)| - 1).
    """
    edges = net.directed_edges
    block_dims = tuple(net.var_dim(e.variable) for e in edges)
    pairs = [(e, j) for e in edges for j in net.factor_scope(e.factor) if j != e.variable]
    at = {e: x for x, e in enumerate(edges)}
    # Inner: one row per (n, j), fed by the C blocks that Xi_{n,j} selects
    # (the other factors of j).  Middle: one row per edge (n, i), fed by
    # the T_nj of the factor's other variables, summed in key order.  Keys
    # sorted by (d_j, p_n) set that order, and with it F's rounding.
    keys = sorted(dict.fromkeys((e.factor, j) for e, j in pairs),
                  key=lambda k: (net.var_dim(k[1]), net.obs_dim(k[0])))
    keys = {key: y for y, key in enumerate(keys)}
    big_d, big_p = max(block_dims), max(net.obs_dim(e.factor) for e in edges)
    return StackedOperator(
        edge_order=tuple(edges), block_dims=block_dims, pair_order=tuple(pairs),
        a=_padded([net.node(e.factor).coeff[e.variable] for e in edges], big_p, big_d),
        omega=_padded([net.node(e.factor).noise_cov for e in edges], big_p, big_p, base=True),
        h=_padded([net.node(n).coeff[j].T for n, j in keys], big_d, big_p),
        psi=_padded([net.prior_info(j) for _, j in keys], big_d, big_d, base=True),
        c_sources=_sources([[at[(f, j)] for f in net.var_factors(j) if f != n] for n, j in keys],
                           len(edges)),
        t_sources=_sources([[keys[(e.factor, j)] for j in net.factor_scope(e.factor)
                             if j != e.variable] for e in edges], len(keys)),
        inner=([net.var_dim(j) for _, j in keys],
               [f"factor {n} / variable {j} inner matrix" for n, j in keys]),
        middle=([net.obs_dim(e.factor) for e in edges],
                [f"edge ({e.factor}, {e.variable}) middle matrix" for e in edges]),
    )


def _padded(blocks, rows, cols, base=False):
    """Blocks in the leading corners of a zero (n, rows, cols) stack; a
    base is symmetrized and gets ones on the rest of the diagonal."""
    out = np.zeros((len(blocks), rows, cols))
    if base:
        out[:] = np.eye(rows)
    for x, b in zip(out, blocks):
        x[: b.shape[0], : b.shape[1]] = cones._sym(b) if base else b
    return out


def _sources(rows, fill):
    """Index rows, each sorted and filled up with ``fill`` to the longest."""
    out = np.full((len(rows), max(map(len, rows), default=0)), fill, dtype=np.intp)
    for x, r in zip(out, rows):
        x[: len(r)] = sorted(r)
    return out


def _layer(src, sources, base, operand, sizes, labels):
    """One layer of F: G_k^T (B_k + S_k)^{-1} G_k for every row k of the
    ``base`` and ``operand`` stacks, where S_k sums, in column order, the
    blocks of ``src`` that row k of ``sources`` lists, and B_k is added
    last.  ``src`` ends with a zero block, the fill of short rows, and so
    does the output.  A B block that is not PD raises NumericalError
    naming the first such row (``cones._forward_blocks``)."""
    b = src[sources[:, 0]] if sources.size else np.zeros(base.shape)
    for col in sources.T[1:]:
        b += src[col]
    b += base
    z = cones._forward_blocks(b, operand, sizes, labels)
    out = np.zeros((len(z) + 1, z.shape[2], z.shape[2]))
    np.matmul(z.swapaxes(1, 2), z, out=out[:-1])
    return out


def _middle(op, t):
    """F's middle layer on the inner outputs ``t``, which end with a zero
    block (U at t = 0)."""
    return cones._sym(_layer(t, op.t_sources, op.omega, op.a, *op.middle)[:-1])


_LAYOUT = (
    "C must be a block list in edge order or a padded stack in edge order, "
    "(E, D, D) and zero past each block's size, in the operator's layout"
)


def _stack(op, blocks):
    """A block list in edge order as the padded stack."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if [b.shape for b in blocks] != [(d, d) for d in op.block_dims]:
        raise ValueError(_LAYOUT)
    return _padded(blocks, *op._padding.shape[1:])


def _split(op, x):
    """The padded stack as a block list in edge order (views)."""
    return [y[:d, :d] for y, d in zip(x, op.block_dims)]


def _by_size(op, x):
    """The stack's blocks as ``{d: (E_d, d, d)}``, one eigensolve per size."""
    return {d: x[pos, :d, :d] for d, pos in op._size_index.items()}


def _as_stack(op, c):
    """C, a block list or the padded stack, as the padded stack,
    symmetrized.  Either form must match the layout and be finite; a dense
    stacked matrix is neither (iterated, it yields rows, not blocks)."""
    x = np.asarray(c, dtype=float) if isinstance(c, np.ndarray) and c.ndim == 3 else _stack(op, c)
    if x.shape != op._padding.shape or np.any(x[op._padding]):
        raise ValueError(_LAYOUT)
    if not np.all(np.isfinite(x)):
        raise ValueError("C has non-finite entries")
    return cones._sym(x)


def apply_stacked_operator(op, c):
    """Evaluate F(C) for a stacked (block diagonal, PSD) C.

    ``c`` is a block list in edge order or the padded (E, D, D) stack in
    edge order, zero past each block's size, and F(C) comes back in the
    same form.
    """
    x = _as_stack(op, c)
    out = _middle(op, _layer(np.concatenate([x, np.zeros_like(x[:1])]), op.c_sources, op.psi,
                             op.h, *op.inner))
    return out if isinstance(c, np.ndarray) and c.ndim == 3 else _split(op, out)


@dataclasses.dataclass(frozen=True)
class ConeBounds:
    """Loewner bounds of the operator's image: L <= F(C) <= U for all
    PSD C, as read-only blocks in edge order.  U ignores all interference
    (infinite prior confidence about the neighbors), L trusts only the
    priors (C = 0), so U >= L always."""

    u_blocks: tuple
    l_blocks: tuple


def bounds_ul(op):
    """Compute (U, L) and verify U >= L > 0, once per operator: later calls
    return the same bounds.

    U = A^T Omega^{-1} A and L = F(0) = A^T (Omega + H Psi^{-1} H^T)^{-1} A,
    both per edge.  A violation of either order relation means the
    instance data broke an invariant (priors or noises not PD, A rank
    deficient), so it raises NumericalError naming the first bad edge.
    Each edge is judged on its own scale, by the cone's one tolerance
    (``cones._tolerance``): L_e > 0 beyond it for L_e, U_e >= L_e within
    it for the pair (U_e, L_e).
    """
    return op._bounds


def find_fixed_point(op, tol=1e-13, max_iterations=20000):
    """Iterate F from L until ||C_{k+1} - C_k||_F <= tol * ||C_{k+1}||_F, a
    test that rescaling the instance does not change.  Returns (blocks,
    iterations, converged), the blocks of C* in edge order.  Starting at L
    keeps every iterate inside [L, U] from the first step.  F is
    non-expansive in the part metric (Lemmens & Nussbaum 2012), so a
    d_T(C_{k+1}, C_k) that does not fall is rounding: it stops unconverged.
    """
    c = apply_stacked_operator(op, np.zeros(op._padding.shape))
    step = np.inf
    for it in range(1, max_iterations + 1):
        nxt = apply_stacked_operator(op, c)
        if np.linalg.norm(nxt - c) <= tol * np.linalg.norm(nxt):
            return _split(op, nxt), it, True
        last, step = step, cones.part_metric_blocks(_by_size(op, nxt), _by_size(op, c))
        c = nxt
        if step >= last:
            return _split(op, c), it, False
    return _split(op, c), max_iterations, False


# ---------------------------------------------------------------------------
# property harness


@dataclasses.dataclass(frozen=True)
class HarnessReport:
    """Outcome of randomized order/scaling/bounds checks on F; every field
    is written to analysis.json.  ``failures`` holds one human-readable string per violated property
    instance; empty means every check passed.  Margins are smallest
    eigenvalues of the differences that the properties require to be PSD
    (or strictly PD for the scaling law), so "worst" close to zero from
    above is tight but fine, below -ORDER_TOL is a failure.
    """

    trials: int
    seed: int
    monotone_checks: int
    scaling_checks: int
    bounds_checks: int
    failures: list
    worst_monotone_margin: float
    worst_scaling_margin: float
    worst_bounds_margin: float


def random_state_blocks(rng, dims, allow_singular=True):
    """Random blockwise PSD state in the operator layout.

    Blocks are Gram matrices G G^T with G of random inner dimension, so
    singular and even zero blocks occur when ``allow_singular``; these
    exercise the boundary of the cone where the order properties must
    still hold.  ``g @ g.T`` is exactly symmetric (numpy computes it as a
    symmetric rank-k update), and so is adding a multiple of I.
    """
    blocks = []
    for d in dims:
        if allow_singular and rng.random() < 0.15:
            blocks.append(np.zeros((d, d)))
            continue
        rank = int(rng.integers(1, d + 1)) if allow_singular else d
        g = rng.standard_normal((d, rank))
        b = g @ g.T
        if not allow_singular:
            b += (0.1 + rng.random()) * np.eye(d)
        blocks.append(b)
    return blocks


def scaling_margins(op, c, alpha):
    """Blockwise min eigenvalue of alpha*F(C) - F(alpha*C), for C a block
    list or the padded stack.

    The scaling law says this is strictly positive for PSD C and
    alpha > 1 (subhomogeneity with slack, the source of contraction)."""
    c = _as_stack(op, c)
    fc = apply_stacked_operator(op, c)
    return _margin(op, alpha * fc, apply_stacked_operator(op, alpha * c))


def _margin(op, xs, ys):
    """Smallest eigenvalue of X - Y over padded stacks: >= 0 iff X >= Y."""
    return cones.min_eigenvalue_blocks(_by_size(op, xs - ys))


def property_harness(op, trials=100, seed=0):
    """Randomized verification of the operator's cone properties.

    Per trial t (seeded by (seed, t) so any failure replays in
    isolation):
      monotone: C1 <= C2 = C1 + PSD increment  =>  F(C1) <= F(C2)
      scaling:  PD C, alpha in (1, 10]         =>  alpha F(C) > F(alpha C)
      bounds:   PSD C                          =>  L <= F(C) <= U
    Order margins below -ORDER_TOL fail; the scaling law must be strict.
    """
    if not trials >= 0:
        raise ValueError(f"trials must be >= 0, got {trials!r}")
    bounds = bounds_ul(op)
    lower, upper = _stack(op, bounds.l_blocks), _stack(op, bounds.u_blocks)
    failures = []
    worst_mono = worst_scal = worst_bnds = np.inf
    for t in range(trials):
        rng = np.random.default_rng([seed, t])

        c1 = _stack(op, random_state_blocks(rng, op.block_dims))
        inc = _stack(op, random_state_blocks(rng, op.block_dims))
        f1 = apply_stacked_operator(op, c1)
        f2 = apply_stacked_operator(op, c1 + inc)
        margin = _margin(op, f2, f1)
        worst_mono = min(worst_mono, margin)
        if margin < -ORDER_TOL:
            failures.append(f"trial {t}: monotonicity violated, margin {margin:.3e}")

        pd = _stack(op, random_state_blocks(rng, op.block_dims, allow_singular=False))
        alpha = max(1.0 + 9.0 * float(rng.random()), 1.0 + 1e-9)
        margin = scaling_margins(op, pd, alpha)
        worst_scal = min(worst_scal, margin)
        if margin <= 0.0:
            failures.append(f"trial {t}: scaling law not strict at alpha={alpha:.6f}, "
                            f"margin {margin:.3e}")

        for f, label in ((f1, "F(C1)"), (f2, "F(C2)")):
            margin = min(_margin(op, f, lower), _margin(op, upper, f))
            worst_bnds = min(worst_bnds, margin)
            if margin < -ORDER_TOL:
                failures.append(f"trial {t}: {label} escaped [L, U], margin {margin:.3e}")
    return HarnessReport(
        trials, seed, trials, trials, 2 * trials, failures,
        float(worst_mono), float(worst_scal), float(worst_bnds),
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


def sandwich_sequences(op, c_star, alpha=2.0, target=1e-6):
    """Run the two monotone envelope sequences around the fixed point.

    ``c_star`` is the stacked fixed point, a block list in edge order or
    the padded stack.  The upper sequence starts at alpha * C*, the lower at
    L = F(0); both are driven by F alone, so their behavior is a property
    of the operator, not of the engine run that produced ``c_star``.  At
    most SANDWICH_MAX_STEPS steps; order margins below -ORDER_TOL fail.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha!r}")
    if not target >= 0.0:
        raise ValueError(f"target must be >= 0, got {target!r}")
    star = _as_stack(op, c_star)
    upper, lower = alpha * star, _stack(op, bounds_ul(op).l_blocks)
    star_d = _by_size(op, star)
    upper_d = [cones.part_metric_blocks(_by_size(op, upper), star_d)]
    lower_d = [cones.part_metric_blocks(_by_size(op, lower), star_d)]
    failures = []
    upper_mono = lower_mono = contains = True
    steps = 0
    for step in range(1, SANDWICH_MAX_STEPS + 1):
        new_upper = apply_stacked_operator(op, upper)
        new_lower = apply_stacked_operator(op, lower)
        m_up = _margin(op, upper, new_upper)
        m_lo = _margin(op, new_lower, lower)
        if m_up < -ORDER_TOL:
            upper_mono = False
            failures.append(f"step {step}: upper sequence increased, margin {m_up:.3e}")
        if m_lo < -ORDER_TOL:
            lower_mono = False
            failures.append(f"step {step}: lower sequence decreased, margin {m_lo:.3e}")
        upper, lower = new_upper, new_lower
        m_in_up = _margin(op, upper, star)
        m_in_lo = _margin(op, star, lower)
        if min(m_in_up, m_in_lo) < -ORDER_TOL:
            contains = False
            failures.append(f"step {step}: fixed point escaped the sandwich, "
                            f"margins ({m_in_up:.3e}, {m_in_lo:.3e})")
        upper_d.append(cones.part_metric_blocks(_by_size(op, upper), star_d))
        lower_d.append(cones.part_metric_blocks(_by_size(op, lower), star_d))
        steps = step
        if upper_d[-1] < target and lower_d[-1] < target:
            break
    reached = upper_d[-1] < target and lower_d[-1] < target
    if not reached:
        failures.append(f"distances ({upper_d[-1]:.3e}, {lower_d[-1]:.3e}) "
                        f"did not reach {target:.1e} in {steps} steps")
    return SandwichReport(
        alpha, steps, target, upper_d, lower_d, upper_mono, lower_mono, contains, reached,
        failures,
    )


# ---------------------------------------------------------------------------
# trace annotation and rate estimation


def annotate_trace(trace, bounds, fixed_point_blocks):
    """Fill the cone-geometry fields of an engine trace in place.

    Per iteration: Frobenius and part-metric distance to the fixed point,
    membership in [L, U] (expected from iteration 1 on, because F maps
    the whole PSD cone into that interval), and the norm-domination check

        ||C - C*|| <= (2 e^d - e^{-d} - 1) * min(||C||, ||C*||)

    for both the spectral and Frobenius norms, where d is the part
    distance; margins below -ORDER_TOL fail.  Iterations where the state
    is not PD (a zero init) get None for the part-metric fields.  Each row
    of ``trace.info`` is evaluated once, and each record reads its row.
    """
    star = [np.asarray(b, dtype=float) for b in fixed_point_blocks]
    if [b.shape for b in star] != [(d, d) for d in trace.block_dims]:
        raise ValueError("fixed point blocks do not match the trace layout")
    trace.fixed_point_blocks = star
    dist, part, margin, slack = _trace_figures(trace.info, star, bounds, trace.block_dims)
    for rec, t in zip(trace.records, trace.rows):
        rec.dist_frobenius = float(dist[t])
        rec.part_distance = None if np.isnan(part[t]) else float(part[t])
        if rec.iteration >= 1:
            rec.in_bounds = bool(margin[t] >= -ORDER_TOL)
        if rec.part_distance is not None:
            rec.norm_slack = float(slack[t])
            rec.norm_bound_ok = bool(slack[t] >= -ORDER_TOL)
    return trace


def _trace_figures(info, star, bounds, dims):
    """Frobenius and part distance to the fixed point (nan unless every
    block pair is PD), [L, U] margin and norm-domination slack per row of
    ``info``: one gather and one batched eigensolve per figure and size d."""
    info, at = np.asarray(info, dtype=float), np.cumsum([0] + [d * d for d in dims])
    dist2, fro2, spec, spec_diff, alpha = np.zeros((5, len(info)))
    margin = np.full(len(info), np.inf)
    star_fro2 = star_spec = 0.0
    for d in sorted(set(dims)):
        pos = [k for k, dk in enumerate(dims) if dk == d]
        raw = info[:, at[pos][:, None] + np.arange(d * d)].reshape(len(info), len(pos), d, d)
        s_raw = np.stack([star[k] for k in pos])
        if not (np.all(np.isfinite(raw)) and np.all(np.isfinite(s_raw))):
            raise ValueError("matrix has non-finite entries")
        x, s = cones._sym(raw), cones._sym(s_raw)
        lo, up = (cones._sym(np.stack([b[k] for k in pos]))
                  for b in (bounds.l_blocks, bounds.u_blocks))
        a, (w, w_star), _ = cones._part_alpha(x, s)
        alpha = np.maximum(alpha, a.max(axis=1))
        dist2 += ((raw - s_raw) ** 2).sum(axis=(1, 2, 3))
        fro2 += (raw**2).sum(axis=(1, 2, 3))
        star_fro2 += float((s_raw**2).sum())
        spec = np.maximum(spec, np.abs(w).max(axis=(1, 2)))
        star_spec = max(star_spec, float(np.abs(w_star).max()))
        spec_diff = np.maximum(spec_diff, np.abs(np.linalg.eigvalsh(x - s)).max(axis=(1, 2)))
        low = np.minimum(np.linalg.eigvalsh(x - lo)[..., 0], np.linalg.eigvalsh(up - x)[..., 0])
        margin = np.minimum(margin, low.min(axis=1))
    dist, part = np.sqrt(dist2), np.log(np.maximum(alpha, 1.0))
    factor = 2.0 * np.exp(part) - np.exp(-part) - 1.0
    slack = np.minimum(
        factor * np.minimum(spec, star_spec) - spec_diff,
        factor * np.minimum(np.sqrt(fro2), np.sqrt(star_fro2)) - dist,
    )
    return dist, part, margin, slack


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


def rate_analysis(trace, epsilon=None):
    """Estimate the contraction factor from a trace that ``annotate_trace``
    has filled.  epsilon defaults to 1e-8 times the Frobenius norm of the
    fixed point.
    """
    if epsilon is not None and not epsilon >= 0.0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon!r}")
    if getattr(trace, "fixed_point_blocks", None) is None:
        raise ValueError("trace is not annotated; call annotate_trace first")
    if epsilon is None:
        epsilon = 1e-8 * np.sqrt(sum(float(np.sum(b * b)) for b in trace.fixed_point_blocks))
    window = [
        r for r in trace.records
        if r.iteration >= 2 and r.part_distance is not None and r.part_distance > 0.0
        and r.dist_frobenius is not None and r.dist_frobenius > epsilon
    ]
    iters, dists = [r.iteration for r in window], [r.part_distance for r in window]
    flags = [r.norm_bound_ok for r in trace.records if r.norm_bound_ok is not None]
    norm_all = bool(all(flags)) if flags else None
    slacks = [r.norm_slack for r in trace.records if r.norm_slack is not None]
    worst_slack = float(min(slacks)) if slacks else float("nan")
    if len(iters) < 2:
        return RateReport(
            None, None, iters, float(epsilon), True, True,
            "window has fewer than two usable iterations; no fit", norm_all, worst_slack,
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
        float(np.exp(slope)), float(r_squared), list(iters), float(epsilon), bool(decreasing),
        False, "", norm_all, worst_slack,
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
            writer.writerow([
                rec.iteration, _csv_float(rec.frobenius_delta), _csv_float(rec.part_distance),
                _csv_bool(rec.in_bounds), _csv_bool(rec.norm_bound_ok),
            ])


def _csv_float(v):
    if v is None or (isinstance(v, float) and not np.isfinite(v)):
        return ""
    return repr(float(v))


def _csv_bool(v):
    if v is None:
        return ""
    return "true" if v else "false"
