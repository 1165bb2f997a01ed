"""Centralized ground truth for cross-checking message passing.

Stack every observation into one linear-Gaussian model

    y = A_bar @ x + z,   x ~ N(0, W_bar),   z ~ N(0, R_bar),

with x the concatenation of all node variables (ascending id) and y the
concatenation of all observations (ascending id).  The exact posterior is

    Cov = (W_bar^{-1} + A_bar^T R_bar^{-1} A_bar)^{-1}
    mean = Cov @ A_bar^T R_bar^{-1} y.

W_bar and R_bar are block diagonal, so the posterior precision and the
information vector are sums of local terms (Malioutov, Johnson & Willsky
2006): the prior blocks W_i^{-1}, plus per factor n the term
A_n^T R_n^{-1} A_n on the variables of its scope and A_n^T R_n^{-1} y_n,
where A_n = [A_nj]_{j in scope} is factor n's row block of A_bar.  The
oracle assembles them factor by factor, never forming A_bar or R_bar, and
of the variable-sized precision's inverse forms only the diagonal blocks
(selected inversion, Takahashi, Fagan & Chin 1973).  It calls no engine
code, so it stays an independent cross-check.

On a cycle-free factor graph the message passing fixed point reproduces
these marginals exactly; on loopy graphs the means still agree at the
fixed point but the marginal covariances do not, so comparisons must say
which regime they are in.
"""

import dataclasses

import numpy as np

from . import cones, network

__all__ = [
    "centralized_posterior",
    "marginals",
    "factor_graph_is_tree",
    "CompareReport",
    "compare",
]


def _var_spans(net):
    """Slice of each variable in the stacked x, ascending id, and the total."""
    ends = np.cumsum([net.var_dim(i) for i in net.ids])
    return {i: slice(end - net.var_dim(i), end) for i, end in zip(net.ids, ends)}, int(ends[-1])


def _posterior(net):
    """Mean, each variable's covariance block, L^{-1} for the joint
    precision J = L L^T, and the spans.  A block is the Gram product of its
    columns of L^{-1}; the mean is L^{-T} L^{-1} h plus one refinement step,
    solved for y scaled by 2^-e, e the exponent of the largest |y|, and
    scaled back: exact, as the mean is linear in y, and h stays in range
    whenever the mean does.  NumericalError names the node whose prior or
    noise covariance is not PD or whose observation term overflows h."""
    spans, total = _var_spans(net)
    prec, info = np.zeros((total, total)), np.zeros(total)
    _, e = np.frexp(max(np.max(np.abs(net.node(n).obs), initial=0.0) for n in net.ids))
    for i, s in spans.items():
        prec[s, s] = net.prior_info(i)
    # R_n^{-1} [A_n, y_n 2^-e] in one batch, R_n padded with identity, [A_n, y_n] with zeros.
    nodes = [net.node(n) for n in net.ids]
    rhs = [np.column_stack([*(x.coeff[j] for j in net.factor_scope(x.id)), np.ldexp(x.obs, -e)])
           for x in nodes]
    p, w = max(x.obs_dim for x in nodes), max(m.shape[1] for m in rhs)
    noise, padded = np.tile(np.eye(p), (len(nodes), 1, 1)), np.zeros((len(nodes), p, w))
    for k, (x, m) in enumerate(zip(nodes, rhs)):
        noise[k, :x.obs_dim, :x.obs_dim], padded[k, :x.obs_dim, :m.shape[1]] = x.noise_cov, m
    terms = padded.swapaxes(1, 2) @ cones._solve_pd_blocks(
        noise, padded, [x.obs_dim for x in nodes], [f"node {n} noise covariance" for n in net.ids])
    for n, m, term in zip(net.ids, rhs, terms):
        at, k = np.r_[tuple(spans[j] for j in net.factor_scope(n))], m.shape[1] - 1
        prec[np.ix_(at, at)] += term[:k, :k]
        info[at] += term[:k, k]
        if not np.all(np.isfinite(info[at])):
            raise cones.NumericalError(f"information vector overflows at node {n}'s observation")
    prec = cones.symmetrize(prec)
    inv = cones._tiled_inverse_factor(prec, "joint posterior precision")
    tiles = [slice(k, k + cones.TILE) for k in range(0, total, cones.TILE)]

    def solve(v):  # L^{-T} (L^{-1} v) by tiles: a matrix-vector product threads from n ~ 1000
        half = np.concatenate([inv[t, :t.stop] @ v[:t.stop] for t in tiles])
        return np.concatenate([inv[t.start:, t].T @ half[t.start:] for t in tiles])

    mean = solve(info)
    mean += solve(info - np.concatenate([prec[t] @ mean for t in tiles]))  # one refinement step
    blocks = {i: inv[s.start:, s].T @ inv[s.start:, s] for i, s in spans.items()}
    return np.ldexp(mean, e), blocks, inv, spans


def centralized_posterior(net):
    """Exact joint posterior (mean, cov), stacked in ascending id."""
    mean, blocks, inv, spans = _posterior(net)
    cov = cones.symmetrize(inv.T @ inv)
    for i, s in spans.items():
        cov[s, s] = blocks[i]  # the bits of ``marginals``
    return mean, cov


def marginals(net):
    """Per-variable posterior marginals {id: (mean_i, cov_i)}, from L^{-1} alone."""
    mean, blocks, _, spans = _posterior(net)
    return {i: (mean[s].copy(), blocks[i]) for i, s in spans.items()}


def factor_graph_is_tree(net):
    """True when the bipartite factor graph has no cycle.

    The factor graph has a variable vertex per node and a factor vertex
    per observation, with an edge for every (factor, variable in scope)
    pair.  A network edge whose both endpoints observe each other creates
    a 4-cycle here, so network trees are not automatically factor trees.
    A graph is a forest exactly when |E| = |V| - (number of components).
    """
    vertices = [(kind, i) for i in net.ids for kind in "vf"]
    edges = [(("f", n), ("v", j)) for n in net.ids for j in net.factor_scope(n)]
    return len(edges) == len(vertices) - network._components(vertices, edges)


@dataclasses.dataclass(frozen=True)
class CompareReport:
    """Outcome of checking beliefs against the centralized posterior.

    ``applicable`` is False when the run never converged, in which case
    the error fields are NaN.  ``cov_comparable`` marks whether covariance
    agreement is even expected (only on factor trees); mean agreement is
    expected at any fixed point.
    """

    applicable: bool
    is_tree: bool
    cov_comparable: bool
    mean_errors: dict
    cov_errors: dict
    max_mean_error: float
    max_cov_error: float


def compare(net, beliefs, converged=True):
    """Compare belief marginals to the exact centralized marginals.

    ``beliefs`` maps id -> Belief.  Mean errors are infinity norms, cov
    errors Frobenius norms, both per variable.
    """
    is_tree = factor_graph_is_tree(net)
    if not converged:
        nan = float("nan")
        return CompareReport(False, is_tree, is_tree, {}, {}, nan, nan)
    truth = marginals(net)
    mean_errors = {i: float(np.max(np.abs(beliefs[i].mean - truth[i][0]), initial=0.0))
                   for i in net.ids}
    cov_errors = {i: float(np.linalg.norm(beliefs[i].cov - truth[i][1], ord="fro"))
                  for i in net.ids}
    return CompareReport(True, is_tree, is_tree, mean_errors, cov_errors,
                         max(mean_errors.values()), max(cov_errors.values()))
