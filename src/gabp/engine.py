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

Stage 1 also projects its message into the target factor's observation
space, ``A[n][j] Cov_{j -> f_n} A[n][j]^T`` and ``A[n][j] mean_{j -> f_n}``,
once per (variable, factor) pair; stage 2 reads those projections and only
adds them, so the products are not repeated for every other edge of the
factor.

All factors update from the same previous state (Jacobi schedule), sums
run in ascending node id order, and nothing here depends on wall clock,
so a run is a pure function of (instance, config).

The sweep factors and solves with the unchecked LAPACK core of ``cones``:
inputs are validated where they enter (``NodeSpec``, the JSON loader,
:func:`check_init_state`), and :func:`combined_update` checks once per
stage that the innovation covariances and the new messages are finite.
"""

import dataclasses

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

    @property
    def edges(self):
        return self._order

    def info_blocks(self):
        """Info matrices in ascending (factor, variable) edge order."""
        return [self.messages[e].info for e in self._order]

    def stacked(self):
        """Block diagonal of all info blocks, ascending edge order.

        This is the state seen by the stacked covariance-matrix operator
        in the analysis module; keeping the layout identical there and
        here is what makes the two implementations comparable.
        """
        return cones.block_diag(self.info_blocks())

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
    autonomous), but the run keeps sweeping until means are below the
    same threshold so that converged beliefs are usable estimates.
    """

    max_iterations: int = 500
    tol_frobenius: float = 1e-10
    init: object = "zero"
    init_scale: float = 1.0

    def __post_init__(self):
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.tol_frobenius <= 0:
            raise ValueError("tol_frobenius must be positive")
        if isinstance(self.init, str):
            if self.init not in ("zero", "identity"):
                raise ValueError(f"unknown init {self.init!r}")
            if self.init == "identity" and self.init_scale < 0:
                raise ValueError("init_scale must be >= 0")
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
    """Iteration history: one TraceRecord plus one info-block snapshot per
    state, starting from the initial state at iteration 0."""

    edge_order: tuple
    block_dims: tuple
    records: list
    info_blocks: list
    fixed_point_blocks: list = None

    def __len__(self):
        return len(self.records)


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

    Every directed edge must be present with a correctly shaped symmetric
    positive semidefinite info block and a finite mean.  Returns a normalized copy at
    iteration 0.
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
        if not np.allclose(info, info.T, atol=1e-12 * (1.0 + np.abs(info).max())):
            raise ValueError(f"init info for edge {tuple(edge)} is not symmetric")
        if not cones.is_psd(info):
            raise ValueError(
                f"init info for edge {tuple(edge)} is not positive semidefinite "
                f"(min eigenvalue {cones.min_eigenvalue(info):.3e})"
            )
        messages[edge] = EdgeMessage(edge, cones.symmetrize(info), mean)
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
    info = net.prior_info(variable).copy()
    rhs = np.zeros(net.var_dim(variable))
    for k in net.var_factors(variable):
        if k == factor:
            continue
        msg = state.messages[(k, variable)]
        info += msg.info
        rhs += msg.info @ msg.mean
    # A sum of exactly symmetric blocks is exactly symmetric.
    cov = cones._inv_pd(info, f"variable {variable} -> factor {factor} information")
    mean = cov @ rhs
    a = net.node(factor).coeff[variable]
    return VarToFactorMessage(variable, factor, info, mean, cov, a @ cov @ a.T, a @ mean)


def _innovation(net, incoming, factor, variable):
    """S = R_n + sum_{j != i} A_nj Cov_j A_nj^T and the residual
    y_n - sum_{j != i} A_nj mean_j for edge (factor, variable), summed in
    ascending j from the stage-1 projections."""
    node = net.node(factor)
    s = node.noise_cov.copy()
    resid = node.obs.copy()
    for j in net.factor_scope(factor):
        if j == variable:
            continue
        if j not in incoming:
            raise ValueError(
                f"missing stage-1 message {j} -> {factor} while updating "
                f"edge ({factor},{variable})"
            )
        msg = incoming[j]
        s += msg.proj_cov
        resid -= msg.proj_mean
    return cones._sym(s), resid


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
    s, resid = _innovation(net, incoming, factor, variable)
    s_factor = cones._cho_factor(
        s, f"factor {factor} innovation covariance (invariant breach)"
    )
    a_i = net.node(factor).coeff[variable]
    info = cones._sym(a_i.T @ cones._cho_solve(s_factor, a_i))
    h = a_i.T @ cones._cho_solve(s_factor, resid)
    info_factor = cones._cho_factor(
        info,
        f"factor {factor} -> variable {variable} message information "
        "(A block nearly rank deficient?)",
    )
    mean = cones._cho_solve(info_factor, h)
    return EdgeMessage(DirectedEdge(factor, variable), info, mean)


def combined_update(net, state):
    """One full synchronous sweep: all stage-1 then all stage-2 updates.

    Every update reads only the previous state (Jacobi schedule).  After
    each stage one check covers all its outputs: NumericalError names the
    first edge whose innovation covariance, or whose new message, is not
    finite (an overflow, say), before it can turn into a misleading
    factorization failure or a NaN delta.
    """
    incoming = {
        n: {j: var_to_factor(net, state, j, n) for j in net.factor_scope(n)}
        for n in net.ids
    }
    _check_innovations(net, incoming)
    outputs = [
        factor_to_var(net, incoming[e.factor], e.factor, e.variable)
        for e in net.directed_edges
    ]
    _check_messages(outputs)
    return MessageState(state.iteration + 1, {m.edge: m for m in outputs})


def _check_innovations(net, incoming):
    # The projections are positive semidefinite, so the diagonal of every
    # edge's S is at most that of the factor's full sum R_n + sum_j P_nj,
    # and a PSD matrix's entries are bounded by its diagonal: if the full
    # sums are finite, so is every S.
    for n, msgs in incoming.items():
        total = net.node(n).noise_cov + sum(m.proj_cov for m in msgs.values())
        if np.all(np.isfinite(total)):
            continue
        for i in net.factor_scope(n):
            if not np.all(np.isfinite(_innovation(net, msgs, n, i)[0])):
                raise cones.NumericalError(
                    f"factor {n} innovation covariance for edge ({n}, {i}) "
                    "has non-finite entries"
                )


def _check_messages(messages):
    flat = [m.info.ravel() for m in messages] + [m.mean for m in messages]
    if np.all(np.isfinite(np.concatenate(flat))):
        return
    for m in messages:
        if not (np.all(np.isfinite(m.info)) and np.all(np.isfinite(m.mean))):
            raise cones.NumericalError(
                f"message on edge {tuple(m.edge)} has non-finite entries"
            )


def compute_belief(net, state, variable):
    """Posterior belief for one variable from the current messages."""
    info = net.prior_info(variable).copy()
    rhs = np.zeros(net.var_dim(variable))
    for k in net.var_factors(variable):
        msg = state.messages[DirectedEdge(k, variable)]
        info += msg.info
        rhs += msg.info @ msg.mean
    cov = cones.inv_pd(info, context=f"belief information for variable {variable}")
    return Belief(variable, cov @ rhs, cov)


def _state_deltas(new, old):
    """Max over edges of the Frobenius change, for infos and for means
    (NaN if any change is NaN)."""
    df = [np.linalg.norm(new.messages[e].info - old.messages[e].info, "fro") for e in new.edges]
    dm = [np.linalg.norm(new.messages[e].mean - old.messages[e].mean) for e in new.edges]
    return float(np.max(df, initial=0.0)), float(np.max(dm, initial=0.0))


def run(net, config=None):
    """Iterate to convergence (or ``max_iterations``) and return the lot.

    Iteration stops once both the info delta and the mean delta (max
    over edges) fall below ``tol_frobenius``.  ``converged`` reports the
    information-matrix criterion alone, which is the one with a
    convergence guarantee; means typically contract more slowly (their
    per-sweep factor is about the square root of the info rate), so the
    run keeps sweeping after the infos settle until the means catch up
    or the budget runs out.  ``mean_converged`` says whether they did.
    The trace keeps a snapshot of every iteration's info blocks so the
    analysis module can recompute cone diagnostics without rerunning the
    engine.
    """
    if config is None:
        config = ScheduleConfig()
    if isinstance(config.init, MessageState):
        state = check_init_state(net, config.init)
    else:
        state = initial_state(net, config.init, config.init_scale)
    edge_order = tuple(state.edges)
    block_dims = tuple(state.block_dims())
    records = [TraceRecord(0, np.nan, np.nan)]
    snapshots = [[b.copy() for b in state.info_blocks()]]
    converged = False
    mean_converged = False
    for _ in range(config.max_iterations):
        new = combined_update(net, state)
        df, dm = _state_deltas(new, state)
        records.append(TraceRecord(new.iteration, df, dm))
        snapshots.append([b.copy() for b in new.info_blocks()])
        state = new
        if df <= config.tol_frobenius:
            converged = True
            if dm <= config.tol_frobenius:
                mean_converged = True
                break
    beliefs = {i: compute_belief(net, state, i) for i in net.ids}
    trace = ConvergenceTrace(edge_order, block_dims, records, snapshots)
    return RunResult(state, beliefs, trace, converged, mean_converged, state.iteration)
