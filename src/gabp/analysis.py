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
feeding j.  Only those blocks are stored.  Padding B with an identity
block and G with zero rows and columns leaves G^T B^{-1} G unchanged, so
each layer runs in a few padded batches, each one batched PD solve
z = L^{-1} G in cones (B = L L^T) and z^T z: this module routes and pads,
cones factorizes and names failures.  C and F(C) travel grouped by block
size, ``{d: (E_d, d, d)}``.  The routing comes from this module's own
scopes, not the engine's message loop, so agreement between the two is a
real cross-check: this module imports only ``gabp.cones`` from the
package.  ``rate_analysis`` fits a trace that ``annotate_trace`` filled.
"""

import collections
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

# One layer of F (``_stage``): (count, P, Q) per padded batch, the input's
# route into the padded B blocks, where the base store, identity padding and
# operand store go, and each item's label and unpadded size p in store order.
_Layer = collections.namedtuple("_Layer", "batches route base_at pad_at operand_at labels sizes")


@dataclasses.dataclass(frozen=True)
class StackedOperator:
    """The blocks of the stacked update, plus index bookkeeping.

    A, Omega, H, Psi and K (module docstring) define F; the operator
    stores only the blocks F reads, each field flat (1-D) and unpadded,
    in its layer's batch order:
      a      A_ni per edge (n, i)                        middle operand
      omega  R_n per edge                                middle base
      h      H_nj^T per (factor n, variable j) key       inner operand
      psi    W_j^{-1} per (n, j) key                     inner base
    ``dim_c`` is the size of C, the sum of ``block_dims``; ``phi`` counts
    K's replicas of C, one per entry of ``pair_order``.  Both are derived.

    ``c_groups`` maps each block size d to the edge positions of C's
    blocks of that size, the order of the grouped layout.  ``inner`` (one
    item per (n, j)) and ``middle`` (one per edge) are F's layers;
    ``out_index`` gathers F(C)'s groups from the middle layer's padded
    output.
    """

    edge_order: tuple
    block_dims: tuple
    pair_order: tuple
    a: np.ndarray
    omega: np.ndarray
    h: np.ndarray
    psi: np.ndarray
    c_groups: dict
    inner: _Layer
    middle: _Layer
    out_index: dict

    @property
    def phi(self):
        return len(self.pair_order)

    @property
    def dim_c(self):
        return sum(self.block_dims)

    @functools.cached_property
    def _bounds(self):
        """(U, L), computed and checked once (see ``bounds_ul``) by
        ``cones._pd_flags`` (L > 0) and ``cones._geq_flags`` (U >= L)."""
        u = _middle(self, np.zeros(sum(n * q * q for n, _, q in self.inner.batches)))
        l = apply_stacked_operator(self, _group(self, [np.zeros((d, d)) for d in self.block_dims]))
        for x in (*u.values(), *l.values()):
            x.setflags(write=False)
        u_blocks, l_blocks = _blocks(self, u), _blocks(self, l)
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

    # C's blocks per size: edge positions, and each block's (offset, row
    # stride) in the grouped input (the size groups raveled in ascending
    # size).
    c_groups, c_at, width = {}, {}, 0
    for d in sorted(set(block_dims)):
        pos = [x for x, dx in enumerate(block_dims) if dx == d]
        c_groups[d] = np.array(pos)
        for x in pos:
            c_at[edges[x]], width = (width, d), width + d * d

    # Inner: one item per (n, j), fed by the C blocks that Xi_{n,j}
    # selects (the other factors of j).  Middle: one item per edge (n, i),
    # fed by the inner outputs T_nj of the factor's other variables.
    keys = list(dict.fromkeys((e.factor, j) for e, j in pairs))
    inner, psi, h, t_at = _stage(
        [(net.prior_info(j), net.node(n).coeff[j].T) for n, j in keys],
        [[c_at[(f, j)] for f in net.var_factors(j) if f != n] for n, j in keys],
        [f"factor {n} / variable {j} inner matrix" for n, j in keys],
    )
    t_at = dict(zip(keys, t_at))
    middle, omega, a, f_at = _stage(
        [(net.node(e.factor).noise_cov, net.node(e.factor).coeff[e.variable]) for e in edges],
        [[t_at[(e.factor, j)] for j in net.factor_scope(e.factor) if j != e.variable]
         for e in edges],
        [f"edge ({e.factor}, {e.variable}) middle matrix" for e in edges],
    )
    # F(C)'s groups: the d x d corner of each edge's padded middle output.
    out_index = {}
    for d, pos in c_groups.items():
        offset, stride = np.array([f_at[x] for x in pos]).T[:, :, None, None]
        out_index[d] = (offset + stride * np.arange(d)[:, None] + np.arange(d)).ravel()
    return StackedOperator(
        edge_order=tuple(edges), block_dims=block_dims, pair_order=tuple(pairs), a=a,
        omega=omega, h=h, psi=psi, c_groups=c_groups, inner=inner, middle=middle,
        out_index=out_index,
    )


def _stage(blocks, sources, labels):
    """One layer of F: out_k = G_k^T (B_k + S_k)^{-1} G_k for the (B_k, G_k)
    pairs in ``blocks``, p x p and p x q, where S_k sums the p x p blocks
    of a flat input listed in ``sources[k]`` as (offset, row stride).
    Items sorted by size share padded (count, P, Q) batches,
    a new one wherever p more than doubles the batch's first, so padding
    costs at most 8 times an item's work.  Returns the layer, the flat
    base and operand stores (unpadded, in batch order) and each item's
    zero-padded output as (offset, row stride) in the layer's output."""
    plan = []
    for k in sorted(range(len(blocks)), key=lambda k: blocks[k][1].shape):
        if plan and blocks[k][1].shape[0] <= 2 * blocks[plan[-1][0]][1].shape[0]:
            plan[-1].append(k)
        else:
            plan.append([k])
    order = [k for items in plan for k in items]
    shapes, at, cell, out = [], ([], [], []), [], [None] * len(blocks)
    ob = og = oo = 0  # offsets into the padded B, G and output buffers
    for items in plan:
        p, q = np.array([blocks[k][1].shape for k in items]).T[:, :, None, None]
        n, big_p, big_q = len(items), int(p.max()), int(q.max())
        i, j = np.arange(big_p)[:, None], np.arange(big_p)
        at[0].append(ob + np.flatnonzero((i < p) & (j < p)))  # base store
        at[1].append(ob + np.flatnonzero((i >= p) & (i == j)))  # identity padding
        at[2].append(og + np.flatnonzero((i < p) & (np.arange(big_q) < q)))  # operand store
        cell += [(ob + x * big_p * big_p, big_p) for x in range(n)]
        for x, k in enumerate(items):
            out[k] = (oo + x * big_q * big_q, big_q)
        shapes.append((n, big_p, big_q))
        ob, og, oo = ob + n * big_p * big_p, og + n * big_p * big_q, oo + n * big_q * big_q
    # The route: each source block adds into the lower triangle of its
    # item's B block, the only part the Cholesky factorization reads.
    # Native-width indices: int32 ones made np.bincount 4x slower on er30.
    p = [blocks[k][1].shape[0] for k in order]
    pairs = np.array([(*cell[y], p[y], *s) for y, k in enumerate(order) for s in sources[k]])
    rows, cols = [np.zeros(0, dtype=np.intp)], [np.zeros(0, dtype=np.intp)]
    for d in np.unique(pairs.reshape(-1, 5)[:, 2]):
        at_b, big_p, _, off, stride = pairs[pairs[:, 2] == d].T[:, :, None]
        i, j = np.tril_indices(d)
        rows.append((at_b + big_p * i + j).ravel())
        cols.append((off + stride * i + j).ravel())
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    by_row = np.lexsort((cols, rows))  # each B entry sums its sources in ascending position
    layer = _Layer(
        shapes, (rows[by_row], cols[by_row]),
        *(np.concatenate(x + [np.zeros(0, dtype=int)]) for x in at), [labels[k] for k in order], p,
    )
    base = _flat([cones._sym(np.asarray(blocks[k][0], dtype=float)) for k in order])
    return layer, base, _flat([blocks[k][1] for k in order]), out


def _run_stage(layer, base, operand, src):
    """Evaluate one layer of F on its stores, adding the flat input
    ``src`` to the B blocks (lower triangles read); returns the padded
    outputs, flat.  A B block that is not positive definite raises
    NumericalError naming the first such block of its batch."""
    rows, cols = layer.route
    b_all = np.bincount(rows, src[cols], minlength=sum(n * p * p for n, p, _ in layer.batches))
    b_all[layer.base_at] += base
    b_all[layer.pad_at] = 1.0
    g_all = np.zeros(sum(n * p * q for n, p, q in layer.batches))
    g_all[layer.operand_at] = operand
    out = []
    ob = og = k = 0
    for n, p, q in layer.batches:
        b = b_all[ob : ob + n * p * p].reshape(n, p, p)
        g = g_all[og : og + n * p * q].reshape(n, p, q)
        ob, og, k = ob + n * p * p, og + n * p * q, k + n
        z = cones._forward_blocks(b, g, layer.sizes[k - n : k], layer.labels[k - n : k])
        out.append(z.swapaxes(1, 2) @ z)
    return _flat(out)


def _middle(op, t):
    """F's middle layer on the inner outputs ``t``, grouped (U at t = 0)."""
    out = _run_stage(op.middle, op.omega, op.a, t)
    return {d: cones._sym(out[idx].reshape(-1, d, d)) for d, idx in op.out_index.items()}


def _flat(arrays):
    return np.concatenate([np.ravel(x) for x in arrays] + [np.zeros(0)])


_LAYOUT = (
    "C must be a block list in edge order or arrays grouped by block size, "
    "{d: (E_d, d, d)}, in the operator's layout"
)


def _group(op, blocks):
    """A block list in edge order, grouped by block size."""
    blocks = [np.asarray(b, dtype=float) for b in blocks]
    if [b.shape for b in blocks] != [(d, d) for d in op.block_dims]:
        raise ValueError(_LAYOUT)
    return {d: np.stack([blocks[k] for k in pos]) for d, pos in op.c_groups.items()}


def _blocks(op, groups):
    """Grouped blocks as a list in edge order."""
    at = {k: (d, y) for d, pos in op.c_groups.items() for y, k in enumerate(pos)}
    return [groups[d][y] for d, y in map(at.get, range(len(op.block_dims)))]


def _as_groups(op, c):
    """C, grouped or a block list, grouped by block size and symmetrized.

    Either form must match the layout and be finite.  A dense stacked
    matrix is neither: iterated, it yields rows, not blocks, so it is
    rejected.
    """
    if isinstance(c, dict):
        groups = {d: np.asarray(c.get(d), dtype=float) for d in op.c_groups}
        if c.keys() != groups.keys() or any(
            x.shape != (len(op.c_groups[d]), d, d) for d, x in groups.items()
        ):
            raise ValueError(_LAYOUT)
    else:
        groups = _group(op, c)
    if not all(np.all(np.isfinite(x)) for x in groups.values()):
        raise ValueError("C has non-finite entries")
    return {d: cones._sym(x) for d, x in groups.items()}


def apply_stacked_operator(op, c):
    """Evaluate F(C) for a stacked (block diagonal, PSD) C.

    ``c`` is grouped by block size (``{d: (E_d, d, d)}`` in the edge order
    of ``op.c_groups``) or a block list in edge order, and F(C) comes back
    in the same form.
    """
    out = _middle(op, _run_stage(op.inner, op.psi, op.h, _flat(_as_groups(op, c).values())))
    return out if isinstance(c, dict) else _blocks(op, out)


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
    c = apply_stacked_operator(op, _group(op, [np.zeros((d, d)) for d in op.block_dims]))
    step = np.inf
    for it in range(1, max_iterations + 1):
        nxt = apply_stacked_operator(op, c)
        delta = np.linalg.norm(_flat([nxt[d] - c[d] for d in c]))
        if delta <= tol * np.linalg.norm(_flat(nxt.values())):
            return _blocks(op, nxt), it, True
        last, step = step, cones.part_metric_blocks(nxt, c)
        c = nxt
        if step >= last:
            return _blocks(op, c), it, False
    return _blocks(op, c), max_iterations, False


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
    """Blockwise min eigenvalue of alpha*F(C) - F(alpha*C), for C grouped
    or a block list.

    The scaling law says this is strictly positive for PSD C and
    alpha > 1 (subhomogeneity with slack, the source of contraction)."""
    groups = _as_groups(op, c)
    fc = apply_stacked_operator(op, groups)
    fac = apply_stacked_operator(op, {d: alpha * x for d, x in groups.items()})
    return _margin({d: alpha * x for d, x in fc.items()}, fac)


def _margin(xs, ys):
    """Smallest eigenvalue of X - Y over grouped blocks: >= 0 iff X >= Y."""
    return cones.min_eigenvalue_blocks({d: xs[d] - ys[d] for d in xs})


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
    lower, upper = _group(op, bounds.l_blocks), _group(op, bounds.u_blocks)
    failures = []
    worst_mono = worst_scal = worst_bnds = np.inf
    for t in range(trials):
        rng = np.random.default_rng([seed, t])

        c1 = _group(op, random_state_blocks(rng, op.block_dims))
        inc = _group(op, random_state_blocks(rng, op.block_dims))
        f1 = apply_stacked_operator(op, c1)
        f2 = apply_stacked_operator(op, {d: c1[d] + inc[d] for d in c1})
        margin = _margin(f2, f1)
        worst_mono = min(worst_mono, margin)
        if margin < -ORDER_TOL:
            failures.append(f"trial {t}: monotonicity violated, margin {margin:.3e}")

        pd = _group(op, random_state_blocks(rng, op.block_dims, allow_singular=False))
        alpha = max(1.0 + 9.0 * float(rng.random()), 1.0 + 1e-9)
        margin = scaling_margins(op, pd, alpha)
        worst_scal = min(worst_scal, margin)
        if margin <= 0.0:
            failures.append(f"trial {t}: scaling law not strict at alpha={alpha:.6f}, "
                            f"margin {margin:.3e}")

        for f, label in ((f1, "F(C1)"), (f2, "F(C2)")):
            margin = min(_margin(f, lower), _margin(upper, f))
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

    ``c_star`` is the stacked fixed point, grouped or a block list in edge
    order.  The upper sequence starts at alpha * C*, the lower at
    L = F(0); both are driven by F alone, so their behavior is a property
    of the operator, not of the engine run that produced ``c_star``.  At
    most SANDWICH_MAX_STEPS steps; order margins below -ORDER_TOL fail.
    """
    if not alpha > 1.0:
        raise ValueError(f"alpha must exceed 1, got {alpha!r}")
    if not target >= 0.0:
        raise ValueError(f"target must be >= 0, got {target!r}")
    star = _as_groups(op, c_star)
    upper = {d: alpha * b for d, b in star.items()}
    lower = _group(op, bounds_ul(op).l_blocks)
    upper_d = [cones.part_metric_blocks(upper, star)]
    lower_d = [cones.part_metric_blocks(lower, star)]
    failures = []
    upper_mono = lower_mono = contains = True
    steps = 0
    for step in range(1, SANDWICH_MAX_STEPS + 1):
        new_upper = apply_stacked_operator(op, upper)
        new_lower = apply_stacked_operator(op, lower)
        m_up = _margin(upper, new_upper)
        m_lo = _margin(new_lower, lower)
        if m_up < -ORDER_TOL:
            upper_mono = False
            failures.append(f"step {step}: upper sequence increased, margin {m_up:.3e}")
        if m_lo < -ORDER_TOL:
            lower_mono = False
            failures.append(f"step {step}: lower sequence decreased, margin {m_lo:.3e}")
        upper, lower = new_upper, new_lower
        m_in_up = _margin(upper, star)
        m_in_lo = _margin(star, lower)
        if min(m_in_up, m_in_lo) < -ORDER_TOL:
            contains = False
            failures.append(f"step {step}: fixed point escaped the sandwich, "
                            f"margins ({m_in_up:.3e}, {m_in_lo:.3e})")
        upper_d.append(cones.part_metric_blocks(upper, star))
        lower_d.append(cones.part_metric_blocks(lower, star))
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
