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
A sweep costs O(deg) per edge, not O(deg^2).

All factors update from the same previous state (Jacobi schedule), sums
run in ascending node id order, and nothing here depends on wall clock,
so a run is a pure function of (instance, config).  Once the infos have
converged, the means follow one fixed affine map (:func:`mean_map`).

The sweep factors and solves with the unchecked LAPACK core of ``cones``:
inputs are validated where they enter (``NodeSpec``, the JSON loader,
:func:`check_init_state`), and :func:`combined_update` checks that the
innovation covariances and the new messages are finite.
"""

import dataclasses
import functools

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


@dataclasses.dataclass(frozen=True)
class VarToFactorMessage:
    """Variable-to-factor message; covariance is kept alongside the
    information matrix because stage 2 consumes the covariance form.
    ``proj_cov`` and ``proj_mean`` are ``A cov A^T`` and ``A mean`` with
    ``A = A[factor][variable]``: the message in the factor's observation
    space, as stage 2 adds it up."""

    variable: int
    factor: int
    info: np.ndarray
    mean: np.ndarray
    cov: np.ndarray
    proj_cov: np.ndarray
    proj_mean: np.ndarray


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
        self._totals = (None, None)

    @functools.cached_property
    def _info_means(self):
        """``info @ mean`` per message, once per state."""
        return {e: m.info @ m.mean for e, m in self.messages.items()}

    def _var_totals(self, net):
        """Per variable j, ``T_j = W_j^{-1} + sum_k C_kj`` and ``sum_k C_kj
        m_kj``, summed in ascending factor order once per state and network."""
        if self._totals[0] is not net:
            totals = {j: [net.prior_info(j).copy(), np.zeros(net.var_dim(j))] for j in net.ids}
            for k, j in self._order:
                totals[j][0] += self.messages[(k, j)].info
                totals[j][1] += self._info_means[(k, j)]
            self._totals = net, totals
        return self._totals[1]

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
    messages = {}
    for edge in net.directed_edges:
        d = net.var_dim(edge.variable)
        if init == "zero":
            info = np.zeros((d, d))
        elif init == "identity":
            info = float(scale) * np.eye(d)
        else:
            raise ValueError(f"unknown init {init!r}")
        messages[edge] = EdgeMessage(edge, info, np.zeros(d))
    return MessageState(0, messages)


def check_init_state(net, state):
    """Validate an explicit initial state against the network.

    Every directed edge must be present with a correctly shaped info block,
    symmetric up to rounding (``cones._is_symmetric``), and a finite mean;
    then all blocks, in one batched pass, PSD within their own tolerance
    (``cones._geq_flags``).  Returns a normalized copy at iteration 0.
    """
    required = set(net.directed_edges)
    given = set(state.messages)
    if given != required:
        missing = sorted(required - given)
        extra = sorted(given - required)
        raise ValueError(
            f"init state does not match the factor graph: missing {missing}, extra {extra}"
        )
    messages = {}
    for edge in net.directed_edges:
        msg = state.messages[edge]
        d = net.var_dim(edge.variable)
        info = np.asarray(msg.info, dtype=float)
        mean = np.asarray(msg.mean, dtype=float).reshape(-1)
        if info.shape != (d, d):
            raise ValueError(
                f"init info for edge {tuple(edge)} has shape {info.shape}, expected {(d, d)}"
            )
        if mean.shape != (d,):
            raise ValueError(
                f"init mean for edge {tuple(edge)} has length {mean.shape[0]}, expected {d}"
            )
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
        raise ValueError(
            f"init info for edge {tuple(net.directed_edges[bad[0]])} is not positive "
            f"semidefinite (min eigenvalue {cones.min_eigenvalue_blocks([infos[bad[0]]]):.3e})"
        )
    return MessageState(0, messages)


def var_to_factor(net, state, variable, factor):
    """Stage 1 message from ``variable`` to ``factor``.

    Combines the prior of the variable with all incoming factor messages
    except the one from ``factor`` itself.  The result is always positive
    definite because the prior information W^{-1} is and the message infos
    are positive semidefinite.
    """
    if factor not in net.var_factors(variable):
        raise ValueError(f"variable {variable} does not feed factor {factor}")
    return _var_to_factor(net, state, variable, factor)


def _var_to_factor(net, state, variable, factor):
    total, rhs = state._var_totals(net)[variable]
    # T_j and C_nj are exactly symmetric, and so is their difference.
    info = total - state.messages[(factor, variable)].info
    cov = cones._inv_pd(info, f"variable {variable} -> factor {factor} information")
    mean = cov @ (rhs - state._info_means[(factor, variable)])
    a = net.node(factor).coeff[variable]
    return VarToFactorMessage(variable, factor, info, mean, cov, a @ cov @ a.T, a @ mean)


class _Inbox(dict):
    """The stage-1 messages into ``factor``, by variable, and ``totals``:
    ``S_n = R_n + sum_j P_nj`` (not symmetrized: potrf reads its lower
    triangle) and ``y_n - sum_j A_nj mean_{j->n}``, or None if not finite."""

    def __init__(self, net, state, factor, stage1):
        super().__init__((j, stage1(net, state, j, factor)) for j in net.factor_scope(factor))
        s, e = _sums(net, self, factor)
        self.totals = (s, e) if np.all(np.isfinite(s)) and np.all(np.isfinite(e)) else None
        # Every edge's S is at most S_n in the PSD order, so its entries are
        # bounded by S_n's diagonal: only an overflowed S_n needs each S.
        for i in net.factor_scope(factor) if self.totals is None else ():
            if not np.all(np.isfinite(_sums(net, self, factor, skip=i)[0])):
                raise cones.NumericalError(f"factor {factor} innovation covariance for edge "
                                           f"({factor}, {i}) has non-finite entries")


def _sums(net, incoming, factor, skip=None):
    """``R_n + sum_j P_nj`` and ``y_n - sum_j A_nj mean_{j->n}`` over the
    factor's scope less ``skip``, in ascending j."""
    node = net.node(factor)
    s, e = node.noise_cov.copy(), node.obs.copy()
    for j in net.factor_scope(factor):
        if j == skip:
            continue
        if j not in incoming:
            raise ValueError(
                f"missing stage-1 message {j} -> {factor} while updating "
                f"edge ({factor},{skip})"
            )
        s += incoming[j].proj_cov
        e -= incoming[j].proj_mean
    return s, e


def _gain(net, incoming, factor, variable):
    """Info, gain ``K = info^{-1} A_i^T S^{-1}`` and residual of an edge: the
    totals less the edge's own terms, or, without totals, the others summed."""
    if getattr(incoming, "totals", None) is None:
        s, resid = _sums(net, incoming, factor, skip=variable)
    else:
        own = incoming[variable]
        s, resid = incoming.totals[0] - own.proj_cov, incoming.totals[1] + own.proj_mean
    s_factor = cones._cho_factor(s, f"factor {factor} innovation covariance (invariant breach)")
    a_i = net.node(factor).coeff[variable]
    s_inv_a = cones._cho_solve(s_factor, a_i)
    info = cones._sym(a_i.T @ s_inv_a)
    info_factor = cones._cho_factor(
        info,
        f"factor {factor} -> variable {variable} message information "
        "(A block nearly rank deficient?)",
    )
    return info, cones._cho_solve(info_factor, s_inv_a.T), resid


def factor_to_var(net, incoming, factor, variable):
    """Stage 2 message from ``factor`` to ``variable``.

    ``incoming`` maps variable id -> VarToFactorMessage for every other
    variable in the factor's scope.  S below is the innovation covariance
    after marginalizing those variables; it is positive definite whenever
    R_n is, so a factorization failure here is an invariant breach rather
    than a user error.
    """
    if variable not in net.factor_scope(factor):
        raise ValueError(f"variable {variable} is not in factor {factor}'s scope")
    info, gain, resid = _gain(net, incoming, factor, variable)
    return EdgeMessage(DirectedEdge(factor, variable), info, gain @ resid)


def combined_update(net, state):
    """One full synchronous sweep: all stage-1 then all stage-2 updates.

    Every update reads only the previous state (Jacobi schedule).
    NumericalError names the first edge whose innovation covariance (checked
    per factor) or whose new message (checked once) is not finite, an
    overflow say, before it can turn into a misleading factorization
    failure or a NaN delta.
    """
    incoming = {n: _Inbox(net, state, n, var_to_factor) for n in net.ids}
    outputs = [factor_to_var(net, incoming[n], n, i) for n, i in net.directed_edges]
    _check_messages(outputs)
    return MessageState(state.iteration + 1, {m.edge: m for m in outputs})


def _check_messages(messages):
    flat = [m.info.ravel() for m in messages] + [m.mean for m in messages]
    if np.all(np.isfinite(np.concatenate(flat))):
        return
    for m in messages:
        if not (np.all(np.isfinite(m.info)) and np.all(np.isfinite(m.mean))):
            raise cones.NumericalError(
                f"message on edge {tuple(m.edge)} has non-finite entries"
            )


def mean_map(net, state):
    """A sweep's mean update at ``state``'s infos, ``m -> G @ m + g`` on the
    means stacked in edge order: CSR G, the product of the stages
    ``mean_{j->n} = Cov_{j->n} sum_{k != n} C_kj m_kj`` and ``m_ni = K_ni
    (y_n - sum_{j != i} A_nj mean_{j->n})``, built by the sweep's code."""
    var_at = np.cumsum([0] + state.block_dims())
    obs_at = np.cumsum([0] + [net.obs_dim(n) for n, _ in state.edges])
    at, obs = dict(zip(state.edges, var_at)), dict(zip(state.edges, obs_at))
    incoming = {n: _Inbox(net, state, n, _var_to_factor) for n in net.ids}
    stage1, stage2, offset = [], [], [np.zeros(0)]
    for n, i in state.edges:
        a_cov = net.node(n).coeff[i] @ incoming[n][i].cov
        stage1 += [(obs[(n, i)], at[(k, i)], a_cov @ state.messages[(k, i)].info)
                   for k in net.var_factors(i) if k != n]
        gain = _gain(net, incoming[n], n, i)[1]
        offset.append(gain @ net.node(n).obs)
        stage2 += [(at[(n, i)], obs[(n, j)], -gain) for j in net.factor_scope(n) if j != i]
    shape = (var_at[-1], obs_at[-1])
    matrix = _block_matrix(stage2, shape) @ _block_matrix(stage1, shape[::-1])
    return matrix, np.concatenate(offset)


def _block_matrix(blocks, shape):
    """CSR matrix of dense (row, col, block) triples, placed with one
    index computation per block shape."""
    groups = {}
    for r, c, b in blocks:
        groups.setdefault(b.shape, []).append((r, c, b))
    parts = [(np.zeros(0), np.zeros(0, dtype=int), np.zeros(0, dtype=int))]
    for block_shape, group in groups.items():
        r, c, b = (np.array(x) for x in zip(*group))
        i, j = np.indices(block_shape)
        parts.append((b.ravel(), (r[:, None, None] + i).ravel(), (c[:, None, None] + j).ravel()))
    vals, rows, cols = (np.concatenate(x) for x in zip(*parts))
    return cones._sum_matrix(vals, rows, cols, shape)


def compute_belief(net, state, variable):
    """Posterior belief for one variable from the current messages."""
    info, rhs = state._var_totals(net)[variable]
    cov = cones.inv_pd(info, context=f"belief information for variable {variable}")
    return Belief(variable, cov @ rhs, cov)


def _means(state):
    return np.concatenate([state.messages[e].mean for e in state.edges])


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
    iteration applies :func:`mean_map`, one sparse product, until the
    means pass too (``mean_converged``) or the budget runs out.  These
    records have ``frobenius_delta == 0.0`` and share the held info row of
    the trace, whose distance to the final state is 0 (part distance: up
    to rounding).
    """
    if config is None:
        config = ScheduleConfig()
    if isinstance(config.init, MessageState):
        state = check_init_state(net, config.init)
    else:
        state = initial_state(net, config.init, config.init_scale)
    tol, budget, dims = config.tol_frobenius, config.max_iterations, np.array(state.block_dims())
    records = [TraceRecord(0, np.nan, np.nan)]
    infos, means = [np.concatenate(state.info_blocks(), axis=None)], _means(state)
    converged = mean_converged = False
    while state.iteration < budget and not converged:
        state = combined_update(net, state)
        infos.append(np.concatenate(state.info_blocks(), axis=None))
        new = _means(state)
        df = _max_block_norm(infos[-1] - infos[-2], dims * dims)
        dm = _max_block_norm(new - means, dims)
        records.append(TraceRecord(state.iteration, df, dm))
        means, converged, mean_converged = new, df <= tol, df <= tol and dm <= tol
    if converged and not mean_converged and state.iteration < budget:
        matrix, offset = mean_map(net, state)
        iteration = state.iteration
        # A non-finite mean ends the loop, and _check_messages names its edge.
        while iteration < budget and not mean_converged and np.all(np.isfinite(means)):
            new = matrix @ means + offset
            dm = _max_block_norm(new - means, dims)
            iteration, means, mean_converged = iteration + 1, new, dm <= tol
            records.append(TraceRecord(iteration, 0.0, dm))
        split = np.split(means, np.cumsum(dims)[:-1])
        messages = [EdgeMessage(e, state.messages[e].info, m) for e, m in zip(state.edges, split)]
        _check_messages(messages)
        state = MessageState(iteration, {m.edge: m for m in messages})
    beliefs = {i: compute_belief(net, state, i) for i in net.ids}
    info = np.array(infos)
    info.setflags(write=False)
    rows = tuple(min(t, len(info) - 1) for t in range(len(records)))
    trace = ConvergenceTrace(tuple(state.edges), tuple(state.block_dims()), records, info, rows)
    return RunResult(state, beliefs, trace, converged, mean_converged, state.iteration)
