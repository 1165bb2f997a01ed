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
oracle assembles them factor by factor and inverts only the variable-sized
precision; the stacked A_bar and R_bar are never formed.  It calls no
engine code, so it stays an independent cross-check.

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


def centralized_posterior(net):
    """Exact joint posterior (mean, cov) over all variables, stacked in
    ascending id.  The mean is linear in y, so it is solved for y scaled
    by 2^-e, e the exponent of the largest |y|, and scaled back: exact for
    a power of two, and the information vector stays in range whenever
    the mean does.  NumericalError names the node whose prior or noise
    covariance is not positive definite or whose observation term
    overflows the information vector."""
    spans, total = _var_spans(net)
    prec = np.zeros((total, total))
    info = np.zeros(total)
    _, e = np.frexp(max(np.max(np.abs(net.node(n).obs), initial=0.0) for n in net.ids))
    for i, s in spans.items():
        prec[s, s] = net.prior_info(i)
    for n in net.ids:
        node, scope = net.node(n), net.factor_scope(n)
        a = np.hstack([node.coeff[j] for j in scope])
        r_inv = cones.solve_pd(node.noise_cov, np.column_stack([a, np.ldexp(node.obs, -e)]),
                               context=f"node {n} noise covariance")
        at = np.r_[tuple(spans[j] for j in scope)]
        prec[np.ix_(at, at)] += a.T @ r_inv[:, :-1]
        info[at] += a.T @ r_inv[:, -1]
        if not np.all(np.isfinite(info[at])):
            raise cones.NumericalError(f"information vector overflows at node {n}'s observation")
    cov = cones.inv_pd(cones.symmetrize(prec), context="joint posterior precision")
    return np.ldexp(cov @ info, e), cov


def marginals(net):
    """Per-variable posterior marginals {id: (mean_i, cov_i)}."""
    mean, cov = centralized_posterior(net)
    return {i: (mean[s].copy(), cov[s, s].copy()) for i, s in _var_spans(net)[0].items()}


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
    mean_errors = {}
    cov_errors = {}
    for i in net.ids:
        b = beliefs[i]
        t_mean, t_cov = truth[i]
        mean_errors[i] = float(np.max(np.abs(b.mean - t_mean))) if t_mean.size else 0.0
        cov_errors[i] = float(np.linalg.norm(b.cov - t_cov, ord="fro"))
    return CompareReport(
        applicable=True,
        is_tree=is_tree,
        cov_comparable=is_tree,
        mean_errors=mean_errors,
        cov_errors=cov_errors,
        max_mean_error=max(mean_errors.values()),
        max_cov_error=max(cov_errors.values()),
    )
