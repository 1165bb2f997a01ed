"""Synchronous vector Gaussian message passing.

Messages live on the directed factor-to-variable edges of the factor
graph and carry an information pair (info, mean): ``info`` is the inverse
covariance block contributed to the target variable and ``mean`` the
corresponding mean estimate.  One iteration is the two-stage composition

  stage 1 (variable to factor):
      info_{j -> f_n} = W_j^{-1} + sum_{f_k in B(x_j), k != n} info_{f_k -> j}
      mean is the information-weighted average of prior and messages

  stage 2 (factor to variable):
      S = R_n + sum_{j in B(f_n), j != i} A[n][j] Cov_{j -> f_n} A[n][j]^T
      info_{f_n -> i} = A[n][i]^T S^{-1} A[n][i]
      mean solves info @ mean = A[n][i]^T S^{-1} (y_n - sum A[n][j] mean_{j -> f_n})

Both sums leave one term out, so each is summed once and every edge takes
its own term back out: per variable ``T_j = W_j^{-1} + sum_k info_{f_k -> j}``
(the beliefs read it whole), per factor ``S_n = R_n + sum_j P_nj`` with
``P_nj = A[n][j] Cov_{j -> f_n} A[n][j]^T``, and likewise for the means.

A sweep is one batched kernel over all directed edges in edge order,
each padded to the largest variable dimension D and observation
dimension P: identity on the padding of the priors, R_n, the stage-1
infos and the stage-2 info solve, zeros on A, y and the means.  Stage 1
takes one batched Cholesky and stage 2 one for S and one batched PD
solve, each failure judged on its unpadded block; the sums are ordered
scatter-adds.  The per-edge :func:`var_to_factor` returns a lazy view of
the kernel's arrays, its fields made only when read (a sweep reads none),
:func:`factor_to_var` the edge's slices of stage 2 (a plain dict of stage-1
messages runs the kernel on one edge), and :func:`combined_update` calls both.

All factors update from the same previous state (Jacobi schedule), sums
run in ascending node id order, and nothing here depends on wall clock,
so a run is a pure function of (instance, config).  Once the infos have
converged, the means follow one fixed affine map: :func:`mean_map` runs
the sweep's mean half with the infos held and their gains found once.
Inputs are validated where they enter (``NodeSpec``, the JSON loader,
:func:`check_init_state`); a sweep checks finiteness before it factorizes,
and each NumericalError names the first edge, in edge order, that fails.
"""

import collections
import dataclasses
import weakref

import numpy as np

from . import cones
from .network import DirectedEdge

__all__ = [
    "EdgeMessage",
    "VarToFactorMessage",
    "Belief",
    "MessageState",
    "ScheduleConfig",
    "TraceRecord",
    "ConvergenceTrace",
    "RunResult",
    "initial_state",
    "check_init_state",
    "var_to_factor",
    "factor_to_var",
    "combined_update",
    "mean_map",
    "compute_belief",
    "run",
]


@dataclasses.dataclass(frozen=True)
class EdgeMessage:
    """Factor-to-variable message in information form."""

    edge: DirectedEdge
    info: np.ndarray
    mean: np.ndarray


class VarToFactorMessage(collections.namedtuple("VarToFactorMessage",
                                                 "variable factor stage1 where")):
    """Variable-to-factor message: info, mean and, as stage 2 consumes it,
    cov; ``proj_cov`` and ``proj_mean`` are ``A cov A^T`` and ``A mean``
    with ``A = A[factor][variable]``.  Each is a read-only view of the
    state's stage-1 arrays (``stage1``) at the edge's ``where`` index
    tuples, made when it is read."""

    __slots__ = ()
    info = property(lambda m: m.stage1.info[m.where[1]])
    mean = property(lambda m: m.stage1.mean[m.where[2]])
    cov = property(lambda m: m.stage1.cov[m.where[1]])
    proj_cov = property(lambda m: m.stage1.proj_cov[m.where[3]])
    proj_mean = property(lambda m: m.stage1.proj_mean[m.where[4]])


@dataclasses.dataclass(frozen=True)
class Belief:
    """Posterior estimate for one variable after combining all messages."""

    variable: int
    mean: np.ndarray
    cov: np.ndarray


class MessageState:
    """All factor-to-variable messages at one iteration."""

    def __init__(self, iteration, messages):
        self.iteration = int(iteration)
        self.messages = dict(messages)
        self._order = tuple(sorted(self.messages))
        self._cache = None, {}

    def _cached(self, plan, key, compute):
        """``compute(plan, self)``, once per network layout and key."""
        if self._cache[0] is not plan:
            self._cache = plan, {}
        if key not in self._cache[1]:
            self._cache[1][key] = compute(plan, self)
        return self._cache[1][key]

    @property
    def edges(self):
        return self._order

    def info_blocks(self):
        """Info matrices in ascending (factor, variable) edge order."""
        return [self.messages[e].info for e in self._order]

    def block_dims(self):
        return [self.messages[e].info.shape[0] for e in self._order]


@dataclasses.dataclass(frozen=True)
class ScheduleConfig:
    """Knobs for :func:`run`.

    ``init`` is "zero", "identity" (scaled by ``init_scale``), or an
    explicit MessageState covering every directed edge with PSD info
    blocks.  ``tol_frobenius`` applies to the max-over-edges Frobenius
    delta; convergence is declared on the information trajectory alone
    (that is what the theory covers, and the info recursion is
    autonomous), but the run iterates the means, infos held, until they
    are below the same threshold so that beliefs are usable estimates.
    """

    max_iterations: int = 500
    tol_frobenius: float = 1e-10
    init: object = "zero"
    init_scale: float = 1.0

    def __post_init__(self):
        if not self.max_iterations >= 0:
            raise ValueError(f"max_iterations must be >= 0, got {self.max_iterations!r}")
        if not self.tol_frobenius > 0:
            raise ValueError(f"tol_frobenius must be positive, got {self.tol_frobenius!r}")
        if isinstance(self.init, str):
            if self.init not in ("zero", "identity"):
                raise ValueError(f"unknown init {self.init!r}")
            if self.init == "identity" and not 0 <= self.init_scale < np.inf:
                raise ValueError(f"init_scale must be finite and >= 0, got {self.init_scale!r}")
        elif not isinstance(self.init, MessageState):
            raise ValueError("init must be 'zero', 'identity', or a MessageState")


@dataclasses.dataclass
class TraceRecord:
    """Per-iteration diagnostics.

    The engine fills ``iteration`` and the two raw deltas; the analysis
    module fills the cone-geometry fields after the fact (they need the
    fixed point and the operator bounds, which the engine does not know).
    """

    iteration: int
    frobenius_delta: float
    mean_delta: float
    dist_frobenius: float = None
    part_distance: float = None
    in_bounds: bool = None
    norm_bound_ok: bool = None
    norm_slack: float = None


@dataclasses.dataclass
class ConvergenceTrace:
    """Iteration history from iteration 0: one TraceRecord per iteration;
    ``info``, read-only, one row per distinct info state (its blocks raveled
    in edge order); ``rows[t]``, the row of ``records[t]``."""

    edge_order: tuple
    block_dims: tuple
    records: list
    info: np.ndarray
    rows: tuple
    fixed_point_blocks: list = None

    def __len__(self):
        return len(self.records)

    @property
    def info_blocks(self):
        """Read-only views of each record's info blocks, in edge order."""
        at = np.cumsum([0] + [d * d for d in self.block_dims])
        views = [[x[a:a + d * d].reshape(d, d) for a, d in zip(at, self.block_dims)]
                 for x in self.info]
        return [views[r] for r in self.rows]


@dataclasses.dataclass(frozen=True)
class RunResult:
    state: MessageState
    beliefs: dict
    trace: ConvergenceTrace
    converged: bool
    mean_converged: bool
    iterations: int


def initial_state(net, init="zero", scale=1.0):
    """Initial messages on every directed edge.

    "zero" starts every info block (and mean) at zero, which is the
    natural bottom element of the positive semidefinite order; "identity"
    starts at scale * I per block.
    """
    if init not in ("zero", "identity"):
        raise ValueError(f"unknown init {init!r}")
    scale = float(scale) if init == "identity" else 0.0
    messages = {}
    for edge in net.directed_edges:
        d = net.var_dim(edge.variable)
        messages[edge] = EdgeMessage(edge, scale * np.eye(d), np.zeros(d))
    return MessageState(0, messages)


def check_init_state(net, state):
    """Validate an explicit initial state against the network.

    Every directed edge must be present with a correctly shaped info block,
    symmetric up to rounding (``cones._is_symmetric``), and a finite mean;
    then all blocks, in one batched pass, PSD within their own tolerance
    (``cones._geq_flags``).  Returns a normalized copy at iteration 0.
    """
    required, given = set(net.directed_edges), set(state.messages)
    if given != required:
        raise ValueError(f"init state does not match the factor graph: missing "
                         f"{sorted(required - given)}, extra {sorted(given - required)}")
    messages = {}
    for edge in net.directed_edges:
        msg = state.messages[edge]
        d = net.var_dim(edge.variable)
        info = np.asarray(msg.info, dtype=float)
        mean = np.asarray(msg.mean, dtype=float).reshape(-1)
        if info.shape != (d, d):
            raise ValueError(f"init info for edge {tuple(edge)} has shape {info.shape}, "
                             f"expected {(d, d)}")
        if mean.shape != (d,):
            raise ValueError(f"init mean for edge {tuple(edge)} has length {mean.shape[0]}, "
                             f"expected {d}")
        if not np.all(np.isfinite(info)):
            raise ValueError(f"init info for edge {tuple(edge)} has non-finite entries")
        if not np.all(np.isfinite(mean)):
            raise ValueError(f"init mean for edge {tuple(edge)} has non-finite entries")
        if not cones._is_symmetric(info):
            raise ValueError(f"init info for edge {tuple(edge)} is not symmetric")
        messages[edge] = EdgeMessage(edge, cones.symmetrize(info), mean)
    infos = [m.info for m in messages.values()]
    bad = np.flatnonzero(~cones._geq_flags(infos, [np.zeros_like(x) for x in infos]))
    if bad.size:
        raise ValueError(f"init info for edge {tuple(net.directed_edges[bad[0]])} is not positive "
                         f"semidefinite (min eigenvalue "
                         f"{cones.min_eigenvalue_blocks([infos[bad[0]]]):.3e})")
    return MessageState(0, messages)


_Stage1 = collections.namedtuple("_Stage1", "info cov mean proj_cov proj_mean")


def _rounds(rows):
    """Round r of a sum over edges: (row, edge positions) of each row's
    r-th edge, so adding the rounds in turn sums every row in edge order."""
    seen = collections.Counter()
    nth = np.array([seen.update((k,)) or seen[k] - 1 for k in rows], dtype=int)
    return [(rows[x], np.flatnonzero(x)) for x in (nth == r for r in range(nth.max() + 1))]


def _cut(row, d):
    """Index tuples of a (d, d) block and a (d,) vector at ``row`` of padded stacks."""
    return (row, slice(d), slice(d)), (row, slice(d))


class _Plan:
    """A network's sweep layout, built once (:func:`_plan`).  Every directed
    edge, in edge order, is one row of the batch, padded to the largest
    variable dimension D and observation dimension P: ``a`` (E, P, D), zero
    on the padding; per variable the prior informations (V, D, D) and per
    factor R_n (F, P, P) and y_n (F, P), identity and zero on the padding.
    ``var`` and ``fac`` are an edge's variable and factor rows, and round r
    of a sum adds each variable's (``t_rounds``) or factor's (``s_rounds``)
    r-th term, so sums run in ascending node id.  ``where`` maps (n, i) to
    the edge and its index tuples (info, mean, ``proj_cov``, ``proj_mean``),
    ``var_at`` and ``var_dim`` give a variable's (info, mean) and dimension,
    and ``flat_at`` places padded infos and means in edge order."""

    def __init__(self, net):
        ids, edges = net.ids, net.directed_edges
        big_d, big_p = max(map(net.var_dim, ids)), max(map(net.obs_dim, ids))
        self.edges, self.priors = edges, np.tile(np.eye(big_d), (len(ids), 1, 1))
        self.noise, self.obs = np.tile(np.eye(big_p), (len(ids), 1, 1)), np.zeros((len(ids), big_p))
        self.var_at = {}
        for k, j in enumerate(ids):
            self.var_at[j] = _cut(k, net.var_dim(j))
            self.priors[self.var_at[j][0]] = net.prior_info(j)
            p = net.obs_dim(j)
            self.noise[k, :p, :p], self.obs[k, :p] = net.node(j).noise_cov, net.node(j).obs
        self.fac, self.var = (np.searchsorted(ids, x) for x in zip(*edges))
        self.var_dim = np.array([net.var_dim(j) for j in ids])
        self.dim = self.var_dim[self.var]
        self.p = np.array([net.obs_dim(n) for n, _ in edges])
        self.a, self.where = np.zeros((len(edges), big_p, big_d)), {}
        for k, edge in enumerate(edges):
            self.where[edge] = (edge, *_cut(k, self.dim[k]), *_cut(k, self.p[k]))
            self.a[k, : self.p[k], : self.dim[k]] = net.node(edge.factor).coeff[edge.variable]
        self.t_rounds, self.s_rounds = _rounds(self.var), _rounds(self.fac)
        inside = np.arange(big_d) < self.dim[:, None]
        self.flat_at = [np.flatnonzero(inside[:, :, None] & inside[:, None, :]),
                        np.flatnonzero(inside)]


_PLANS = weakref.WeakKeyDictionary()


def _plan(net):
    plan = _PLANS.get(net)
    if plan is None:
        plan = _PLANS[net] = _Plan(net)
    return plan


def _stacks(plan, state):
    """The state's infos (E, D, D) and means (E, D), zero on the padding."""
    big_d = plan.priors.shape[1]
    infos, means = np.zeros((len(plan.edges), big_d, big_d)), np.zeros((len(plan.edges), big_d))
    for e, square, vector, _, _ in plan.where.values():
        infos[square], means[vector] = state.messages[e].info, state.messages[e].mean
    return infos, means


def _totals(plan, state):
    """Per variable ``T_j = W_j^{-1} + sum_k C_kj`` and ``r_j = sum_k C_kj
    m_kj`` in ascending factor order; per edge ``C_nj m_nj``."""
    infos, means = state._cached(plan, "stacks", _stacks)
    return _var_sums(plan, plan.priors, infos), *_mean_totals(plan, infos, means)


def _var_sums(plan, base, terms):
    """Per variable ``base_j + sum_k term_kj`` (edge terms), ascending k."""
    out = base.copy()
    for var, rows in plan.t_rounds:
        out[var] += terms[rows]
    return out


def _mean_totals(plan, infos, means):
    """``r_j = sum_k C_kj m_kj`` per variable and ``C_nj m_nj`` per edge."""
    products = (infos @ means[..., None])[..., 0]
    return _var_sums(plan, np.zeros(plan.priors.shape[:2]), products), products


def _stage1_means(plan, cov, r, products):
    """The stage-1 means ``Cov_{j->n} (r_j - C_nj m_nj)`` and, zero outside
    each edge's p rows, their projections ``A mean``."""
    mean = (cov @ (r[plan.var] - products)[..., None])[..., 0]
    return mean, (plan.a @ mean[..., None])[..., 0]


def _stage1(plan, state):
    """The state's stage-1 messages, read-only: ``info = T_j - C_nj``,
    ``cov``, ``mean`` and, zero outside each edge's p rows, ``proj_cov = A
    cov A^T`` and ``proj_mean = A mean``."""
    infos, _ = state._cached(plan, "stacks", _stacks)
    t, r, products = state._cached(plan, "totals", _totals)
    info = t[plan.var] - infos
    labels = (f"variable {j} -> factor {n} information" for n, j in plan.edges)
    eye = np.broadcast_to(np.eye(info.shape[1]), info.shape)
    cov = cones._sym(cones._solve_pd_blocks(info, eye, plan.dim, labels))
    mean, proj_mean = _stage1_means(plan, cov, r, products)
    out = _Stage1(info, cov, mean, plan.a @ cov @ plan.a.swapaxes(1, 2), proj_mean)
    for x in out:
        x.setflags(write=False)
    return out


def _first(plan, flags):
    """The first edge, in edge order, of the flagged rows."""
    k = np.flatnonzero(flags)
    return plan.edges[k[0]] if k.size else None


def _innovations(plan, s1):
    """The edges' padded ``S = S_n - P_ni``; one that is not finite raises
    NumericalError."""
    out = _factor_sums(plan, plan.noise, s1.proj_cov)
    edge = _first(plan, ~np.isfinite(out).all(axis=(1, 2)))
    if edge is not None:
        raise cones.NumericalError(f"factor {edge.factor} innovation covariance for edge "
                                   f"{tuple(edge)} has non-finite entries")
    return out


def _factor_sums(plan, base, terms):
    """``base_n + sum_{j != i} term_nj`` for each edge (n, i), in ascending
    j: the factor's total less the edge's own term (S = S_n - P_ni, and the
    residuals ``y_n - sum_{j != i} A_nj m_{j->n}``).  A factor whose total
    is not finite sums its edges' other terms directly, so that its
    overflow does not spoil a sum that fits (S_n - P_ni is at most S_n in
    the PSD order)."""
    total = base.copy()
    for fac, rows in plan.s_rounds:
        total[fac] += terms[rows]
    out, bad = total[plan.fac] - terms, ~np.isfinite(total).reshape(len(total), -1).all(axis=1)
    for k in np.flatnonzero(bad[plan.fac]):
        out[k] = base[plan.fac[k]]
        for x in np.flatnonzero(plan.fac == plan.fac[k]):
            if x != k:
                out[k] += terms[x]
    return out


def _solve_stage2(edges, s, a, p, d, b):
    """For stacks S (n, P, P), A (n, P, D) and B (n, P, q) of ``edges``,
    padded outside each edge's p observation rows and d variable columns:
    the message infos ``A^T S^{-1} A`` and ``info^{-1} A^T S^{-1} B``, by
    one batched Cholesky of S and one batched PD solve, with identity on
    the padding of each info.  An info that is not finite is not
    factorized; its solution is NaN.  On a NumericalError each edge reruns
    alone in edge order, so the error names the first failing edge."""

    def kernel(s, a, p, d, b, edges):
        big_d = a.shape[2]
        z = cones._forward_blocks(s, np.concatenate([a, b], axis=2), p, (
            f"factor {n} innovation covariance (invariant breach)" for n, _ in edges))
        z_t = z[..., :big_d].swapaxes(1, 2)
        info = cones._sym(z_t @ z[..., :big_d])
        ok = np.isfinite(info).all(axis=(1, 2))
        pad = np.eye(big_d) * (np.arange(big_d) >= d[:, None, None])
        x = cones._solve_pd_blocks(np.where(ok[:, None, None], info + pad, np.eye(big_d)),
                                   z_t @ z[..., big_d:], d, (
            f"factor {n} -> variable {i} message information "
            "(A block nearly rank deficient?)" for n, i in edges))
        x[~ok] = np.nan
        return info, x

    try:
        return kernel(s, a, p, d, b, edges)
    except cones.NumericalError:
        for k in range(len(edges)):
            kernel(*(x[k : k + 1] for x in (s, a, p, d, b, edges)))
        raise


def _check_messages(plan, infos, means):
    edge = _first(plan, ~(np.isfinite(infos).all(axis=(1, 2)) & np.isfinite(means).all(axis=1)))
    if edge is not None:
        raise cones.NumericalError(f"message on edge {tuple(edge)} has non-finite entries")


def var_to_factor(net, state, variable, factor):
    """Stage 1 message from ``variable`` to ``factor``.

    Combines the prior of the variable with all incoming factor messages
    except the one from ``factor`` itself.  The result is always positive
    definite because the prior information W^{-1} is and the message infos
    are positive semidefinite.  Stage 1 runs once per state for all edges,
    and the message's fields are views of its arrays, made when read.
    """
    plan = _plan(net)
    at = plan.where.get((factor, variable))
    if at is None:
        raise ValueError(f"variable {variable} does not feed factor {factor}")
    return VarToFactorMessage(variable, factor, state._cached(plan, "stage1", _stage1), at)


class _Swept(dict):
    """A factor's stage-1 messages, by variable, after the sweep's stage 2:
    ``rows`` is (infos, means), every edge's new message, padded."""


def factor_to_var(net, incoming, factor, variable):
    """Stage 2 message from ``factor`` to ``variable``.

    ``incoming`` maps variable id -> VarToFactorMessage for every other
    variable in the factor's scope.  S below is the innovation covariance
    after marginalizing those variables; it is positive definite whenever
    R_n is, so a factorization failure here is an invariant breach rather
    than a user error.  In a sweep this is the edge's row of the batched
    stage 2; a plain dict runs the kernel on this edge alone.
    """
    at = _plan(net).where.get((factor, variable))
    if at is None:
        raise ValueError(f"variable {variable} is not in factor {factor}'s scope")
    edge = at[0]
    if isinstance(incoming, _Swept):
        infos, means = incoming.rows
        return EdgeMessage(edge, infos[at[1]], means[at[2]])
    others = [j for j in net.factor_scope(factor) if j != variable]
    missing = [j for j in others if j not in incoming]
    if missing:
        raise ValueError(f"missing stage-1 message {missing[0]} -> {factor} while updating "
                         f"edge ({factor},{variable})")
    node = net.node(factor)
    s, e = node.noise_cov.copy(), node.obs.copy()
    for j in others:
        s += incoming[j].proj_cov
        e -= incoming[j].proj_mean
    if not np.all(np.isfinite(s)):
        raise cones.NumericalError(f"factor {factor} innovation covariance for edge "
                                   f"{tuple(edge)} has non-finite entries")
    a = node.coeff[variable]
    info, x = _solve_stage2([edge], s[None], a[None], np.array([len(s)]), np.array([a.shape[1]]),
                            e[None, :, None])
    return EdgeMessage(edge, info[0], x[0, :, 0])


def combined_update(net, state):
    """One full synchronous sweep: all stage-1 then all stage-2 updates.

    Every update reads only the previous state (Jacobi schedule).  Each
    factor's inbox is filled by :func:`var_to_factor`; stage 2 runs once
    for all edges, as one padded batch, and :func:`factor_to_var` takes
    each edge's message from it.  NumericalError names the first edge
    whose stage-1 information, whose innovation covariance (not finite, or
    not PD) or whose new message (not finite: an overflow, say) fails.
    """
    plan = _plan(net)
    inboxes = {n: _Swept() for n in net.ids}
    for n, i in plan.edges:
        inboxes[n][i] = var_to_factor(net, state, i, n)
    s1 = state._cached(plan, "stage1", _stage1)
    infos, x = _solve_stage2(plan.edges, _innovations(plan, s1), plan.a, plan.p, plan.dim,
                             _factor_sums(plan, plan.obs, -s1.proj_mean)[..., None])
    means = x[..., 0]
    _check_messages(plan, infos, means)
    for inbox in inboxes.values():
        inbox.rows = infos, means
    new = MessageState(state.iteration + 1,
                       {e: factor_to_var(net, inboxes[e.factor], *e) for e in plan.edges})
    new._cache = plan, {"stacks": (infos, means)}
    return new


def mean_map(net, state):
    """A sweep's mean update with ``state``'s infos held, the affine step
    ``m -> G m + g`` on means stacked in edge order, as a function.  It runs
    the sweep's own stage-1 means and stage-2 residuals on ``m`` and applies
    the gains ``K = info^{-1} A^T S^{-1}``, found once here: ``m_ni = K_ni
    (y_n - sum_{j != i} A_nj mean_{j->n})``."""
    plan = _plan(net)
    s1, (infos, _) = state._cached(plan, "stage1", _stage1), state._cached(plan, "stacks", _stacks)
    s = _innovations(plan, s1)
    _, gains = _solve_stage2(plan.edges, s, plan.a, plan.p, plan.dim,
                             np.broadcast_to(np.eye(s.shape[1]), s.shape))

    def step(flat):
        _, proj_mean = _stage1_means(plan, s1.cov,
                                     *_mean_totals(plan, infos, _padded(plan, flat)))
        return np.take(gains @ _factor_sums(plan, plan.obs, -proj_mean)[..., None],
                       plan.flat_at[1])

    return step


def _belief_covs(plan, state):
    """Every variable's padded ``T_j^{-1}``, symmetrized, by one batched solve;
    None if a T_j is not finite or not PD, or an inverse is not finite."""
    t, _, _ = state._cached(plan, "totals", _totals)
    labels = (f"belief information for variable {j}" for j in plan.var_at)
    try:
        cov = cones._sym(cones._solve_pd_blocks(
            t, np.broadcast_to(np.eye(t.shape[1]), t.shape), plan.var_dim, labels))
    except cones.NumericalError:
        return None
    return cov if np.isfinite(t).all() and np.isfinite(cov).all() else None


def compute_belief(net, state, variable):
    """Posterior belief for one variable from the current messages: its
    covariance is read from the state's batched ``T_j^{-1}``, or, if that
    batch fails, ``cones.inv_pd`` inverts this variable's T_j alone."""
    plan = _plan(net)
    t, r, _ = state._cached(plan, "totals", _totals)
    covs, (square, vector) = state._cached(plan, "beliefs", _belief_covs), plan.var_at[variable]
    cov = covs[square].copy() if covs is not None else cones.inv_pd(
        t[square], context=f"belief information for variable {variable}")
    return Belief(variable, cov @ r[vector], cov)


def _padded(plan, flat):
    """Means in edge order, as one row, back to the padded (E, D) stack."""
    out = np.zeros((len(plan.edges), plan.priors.shape[1]))
    np.put(out, plan.flat_at[1], flat)
    return out


def _max_block_norm(flat, sizes):
    """Largest norm of the consecutive blocks of ``flat`` with the given
    sizes (0.0 for no blocks, NaN if any block is NaN).

    The entries are scaled by the power of two of the largest one before
    squaring, so finite inputs near the float range do not overflow; a
    power-of-two scale is exact, so a result that neither overflowed nor
    underflowed before is unchanged to the bit."""
    _, exp = np.frexp(np.max(np.abs(flat), initial=0.0))
    scaled = np.ldexp(flat, -exp)
    sums = np.add.reduceat(scaled * scaled, np.cumsum(sizes) - sizes)
    return float(np.ldexp(np.sqrt(np.max(sums, initial=0.0)), exp))


def run(net, config=None):
    """Iterate to convergence (or ``max_iterations``) and return the lot.

    Iteration stops once both the info delta and the mean delta (max
    over edges) fall below ``tol_frobenius``.  ``converged`` reports the
    information-matrix criterion alone, which is the one with a
    convergence guarantee.  The info recursion does not read the means,
    so once the info delta passes, the infos are held and each further
    iteration applies the step of :func:`mean_map`, whose gains are found
    once, until the means pass too (``mean_converged``) or the budget runs
    out.  These records have ``frobenius_delta == 0.0`` and share the held
    info row of the trace, whose distance to the final state is 0 (part
    distance: up to rounding).
    """
    if config is None:
        config = ScheduleConfig()
    if isinstance(config.init, MessageState):
        state = check_init_state(net, config.init)
    else:
        state = initial_state(net, config.init, config.init_scale)
    plan = _plan(net)
    tol, budget, dims = config.tol_frobenius, config.max_iterations, np.array(state.block_dims())
    records = [TraceRecord(0, np.nan, np.nan)]
    stacks = state._cached(plan, "stacks", _stacks)
    infos, means = [np.take(stacks[0], plan.flat_at[0])], np.take(stacks[1], plan.flat_at[1])
    converged = mean_converged = False
    while state.iteration < budget and not converged:
        state = combined_update(net, state)
        stacks = state._cached(plan, "stacks", _stacks)
        infos.append(np.take(stacks[0], plan.flat_at[0]))
        new = np.take(stacks[1], plan.flat_at[1])
        df = _max_block_norm(infos[-1] - infos[-2], dims * dims)
        dm = _max_block_norm(new - means, dims)
        records.append(TraceRecord(state.iteration, df, dm))
        means, converged, mean_converged = new, df <= tol, df <= tol and dm <= tol
    if converged and not mean_converged and state.iteration < budget:
        step = mean_map(net, state)
        iteration = state.iteration
        # A non-finite mean ends the loop, and _check_messages names its edge.
        while iteration < budget and not mean_converged and np.all(np.isfinite(means)):
            new = step(means)
            dm = _max_block_norm(new - means, dims)
            iteration, means, mean_converged = iteration + 1, new, dm <= tol
            records.append(TraceRecord(iteration, 0.0, dm))
        held = stacks[0], _padded(plan, means)
        _check_messages(plan, *held)
        state = MessageState(iteration, {e: EdgeMessage(e, held[0][square], held[1][vector])
                                         for e, square, vector, _, _ in plan.where.values()})
        state._cache = plan, {"stacks": held}
    beliefs = {i: compute_belief(net, state, i) for i in net.ids}
    info = np.array(infos)
    info.setflags(write=False)
    rows = tuple(min(t, len(info) - 1) for t in range(len(records)))
    trace = ConvergenceTrace(tuple(state.edges), tuple(state.block_dims()), records, info, rows)
    return RunResult(state, beliefs, trace, converged, mean_converged, state.iteration)
