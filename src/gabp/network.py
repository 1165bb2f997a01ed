"""Problem instances: linear-Gaussian estimation over a communication network.

A network couples M nodes through an undirected connected graph.  Node n
owns an unknown vector x_n with zero-mean Gaussian prior N(0, W_n) and a
local observation

    y_n = sum_{j in scope(n)} A[n][j] @ x_j + z_n,   z_n ~ N(0, R_n),

where scope(n) always contains n itself and may contain any subset of the
graph neighbors of n.  The induced factor graph has one variable vertex per
node and one factor vertex per observation; factor n connects to exactly
the variables in scope(n).

This module holds the data model, semantic validation, random instance
generation, and the JSON file format.  It knows nothing about inference.
"""

import dataclasses
import json
from typing import NamedTuple

import networkx as nx
import numpy as np

from . import cones

__all__ = [
    "DirectedEdge",
    "NodeSpec",
    "GaussianNetwork",
    "Violation",
    "SchemaError",
    "SemanticError",
    "validate",
    "generate_random",
    "two_node_symmetric",
    "two_node_chain",
    "save",
    "load",
    "dumps",
    "loads",
]

TOPOLOGIES = ("er", "ring", "star", "grid", "complete", "tree")


class DirectedEdge(NamedTuple):
    """A factor-to-variable edge of the factor graph.

    There is one such edge for every pair (factor n, variable i) with i in
    scope(n).  Messages, trace blocks, and stacked-matrix layouts are all
    indexed by these edges in ascending (factor, variable) order.
    """

    factor: int
    variable: int


class SchemaError(ValueError):
    """An instance document is structurally malformed."""


class SemanticError(ValueError):
    """An instance document parses but violates the model's semantics."""

    def __init__(self, message, violations=None):
        super().__init__(message)
        self.violations = list(violations) if violations else []


@dataclasses.dataclass(frozen=True)
class Violation:
    """One semantic defect found by :func:`validate`."""

    rule: str
    where: str
    detail: str

    def __str__(self):
        return f"{self.rule}@{self.where}: {self.detail}"


@dataclasses.dataclass(frozen=True)
class NodeSpec:
    """Static data owned by one node.

    ``coeff`` maps variable id j -> A[n][j], the observation matrix that
    multiplies x_j inside this node's measurement.  It must contain the
    node's own id; validation checks everything else.
    """

    id: int
    dim: int
    prior_cov: np.ndarray
    noise_cov: np.ndarray
    obs: np.ndarray
    coeff: dict

    def __post_init__(self):
        object.__setattr__(self, "id", int(self.id))
        object.__setattr__(self, "dim", int(self.dim))
        prior = _as_square(self.prior_cov, f"node {self.id} prior_cov")
        noise = _as_square(self.noise_cov, f"node {self.id} noise_cov")
        obs = np.asarray(self.obs, dtype=float).reshape(-1).copy()
        if self.dim < 1:
            raise ValueError(f"node {self.id}: dim must be >= 1, got {self.dim}")
        if prior.shape != (self.dim, self.dim):
            raise ValueError(
                f"node {self.id}: prior_cov shape {prior.shape} does not match dim {self.dim}"
            )
        if obs.shape[0] != noise.shape[0]:
            raise ValueError(
                f"node {self.id}: obs length {obs.shape[0]} does not match "
                f"noise_cov size {noise.shape[0]}"
            )
        if not np.all(np.isfinite(obs)):
            raise ValueError(f"node {self.id}: obs has non-finite entries")
        coeff = {}
        for key, mat in dict(self.coeff).items():
            j = int(key)
            a = np.asarray(mat, dtype=float)
            if a.ndim != 2:
                raise ValueError(
                    f"node {self.id}: coeff[{j}] must be a 2-d matrix, got ndim {a.ndim}"
                )
            if not np.all(np.isfinite(a)):
                raise ValueError(f"node {self.id}: coeff[{j}] has non-finite entries")
            if a.shape[0] != noise.shape[0]:
                raise ValueError(
                    f"node {self.id}: coeff[{j}] has {a.shape[0]} rows but the "
                    f"observation has {noise.shape[0]} components"
                )
            a = a.copy()
            a.setflags(write=False)
            coeff[j] = a
        if self.id not in coeff:
            raise ValueError(f"node {self.id}: coeff must include the node's own id")
        for arr in (prior, noise, obs):
            arr.setflags(write=False)
        object.__setattr__(self, "prior_cov", prior)
        object.__setattr__(self, "noise_cov", noise)
        object.__setattr__(self, "obs", obs)
        object.__setattr__(self, "coeff", coeff)

    @property
    def obs_dim(self):
        return self.noise_cov.shape[0]

    def scope(self):
        """Variable ids appearing in this node's observation, ascending."""
        return tuple(sorted(self.coeff))


class GaussianNetwork:
    """An immutable estimation instance: nodes plus the undirected graph.

    Construction performs only structural checks (ids resolve, no self
    loops, coefficients reference the node itself or its neighbors with
    consistent shapes).  Statistical requirements live in
    :func:`validate`.
    """

    def __init__(self, nodes, edges):
        nodes = sorted(nodes, key=lambda n: n.id)
        if not nodes:
            raise ValueError("a network needs at least one node")
        ids = [n.id for n in nodes]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate node ids: {sorted(ids)}")
        by_id = {n.id: n for n in nodes}
        seen = set()
        neighbors = {i: set() for i in ids}
        for e in edges:
            a, b = int(e[0]), int(e[1])
            if a == b:
                raise ValueError(f"self loop ({a},{b}) is not allowed")
            if a not in by_id or b not in by_id:
                raise ValueError(f"edge ({a},{b}) references an unknown node")
            key = (min(a, b), max(a, b))
            if key in seen:
                raise ValueError(f"duplicate edge ({key[0]},{key[1]})")
            seen.add(key)
            neighbors[a].add(b)
            neighbors[b].add(a)
        for n in nodes:
            for j in n.coeff:
                if j != n.id and j not in neighbors[n.id]:
                    raise ValueError(
                        f"node {n.id}: coeff references {j}, which is not a neighbor"
                    )
                if j in by_id and n.coeff[j].shape[1] != by_id[j].dim:
                    raise ValueError(
                        f"node {n.id}: coeff[{j}] has {n.coeff[j].shape[1]} columns "
                        f"but node {j} has dim {by_id[j].dim}"
                    )
        self._nodes = {n.id: n for n in nodes}
        self._edges = tuple(sorted(seen))
        self._neighbors = {i: tuple(sorted(neighbors[i])) for i in ids}
        self._scopes = {n.id: n.scope() for n in nodes}
        self._var_factors = {i: [] for i in ids}
        for n in nodes:
            for j in self._scopes[n.id]:
                self._var_factors[j].append(n.id)
        self._var_factors = {i: tuple(v) for i, v in self._var_factors.items()}
        self._directed = tuple(
            DirectedEdge(n.id, j) for n in nodes for j in self._scopes[n.id]
        )
        self._prior_info_cache = {}

    @property
    def ids(self):
        return tuple(sorted(self._nodes))

    @property
    def num_nodes(self):
        return len(self._nodes)

    @property
    def edges(self):
        return self._edges

    @property
    def directed_edges(self):
        """All factor-to-variable edges, ascending (factor, variable)."""
        return self._directed

    def node(self, i):
        return self._nodes[i]

    def neighbors(self, i):
        return self._neighbors[i]

    def factor_scope(self, n):
        """Variables in factor n's observation: B(f_n)."""
        return self._scopes[n]

    def var_factors(self, j):
        """Factors whose observation involves variable j: B(x_j)."""
        return self._var_factors[j]

    def var_dim(self, i):
        return self._nodes[i].dim

    def obs_dim(self, n):
        return self._nodes[n].obs_dim

    def prior_info(self, i):
        """Cached W_i^{-1}; raises NumericalError if W_i is not PD."""
        if i not in self._prior_info_cache:
            inv = cones.inv_pd(
                self._nodes[i].prior_cov, context=f"node {i} prior covariance"
            )
            inv.setflags(write=False)
            self._prior_info_cache[i] = inv
        return self._prior_info_cache[i]

    def with_obs(self, obs_map):
        """Copy of the network with some observation vectors replaced."""
        new_nodes = []
        for i in self.ids:
            n = self._nodes[i]
            if i in obs_map:
                n = dataclasses.replace(n, obs=np.asarray(obs_map[i], dtype=float))
            new_nodes.append(n)
        return GaussianNetwork(new_nodes, self._edges)

    def __eq__(self, other):
        if not isinstance(other, GaussianNetwork):
            return NotImplemented
        if self.ids != other.ids or self._edges != other._edges:
            return False
        for i in self.ids:
            a, b = self._nodes[i], other._nodes[i]
            if a.dim != b.dim or sorted(a.coeff) != sorted(b.coeff):
                return False
            if not (
                np.array_equal(a.prior_cov, b.prior_cov)
                and np.array_equal(a.noise_cov, b.noise_cov)
                and np.array_equal(a.obs, b.obs)
            ):
                return False
            if any(not np.array_equal(a.coeff[j], b.coeff[j]) for j in a.coeff):
                return False
        return True

    def __repr__(self):
        return (
            f"GaussianNetwork(nodes={self.num_nodes}, edges={len(self._edges)}, "
            f"directed_edges={len(self._directed)})"
        )


def validate(net):
    """Collect all semantic violations, ascending by node id.

    Rules (rule id in brackets):
      [bad-dim]         variable dimension below 1
      [prior-not-pd]    W_n not symmetric positive definite
      [noise-not-pd]    R_n not symmetric positive definite
      [rank-deficient]  some A[n][j] has column rank below dim(x_j)
      [ids-not-dense]   node ids are not exactly 1..M
      [not-connected]   the communication graph is disconnected
    """
    out = []
    for i in net.ids:
        node = net.node(i)
        if node.dim < 1:
            out.append(Violation("bad-dim", str(i), f"dim={node.dim}"))
        if not cones.is_pd(node.prior_cov):
            out.append(
                Violation(
                    "prior-not-pd",
                    str(i),
                    f"min eigenvalue {cones.min_eigenvalue(node.prior_cov):.3e}",
                )
            )
        if not cones.is_pd(node.noise_cov):
            out.append(
                Violation(
                    "noise-not-pd",
                    str(i),
                    f"min eigenvalue {cones.min_eigenvalue(node.noise_cov):.3e}",
                )
            )
        for j in node.scope():
            a = node.coeff[j]
            if np.linalg.matrix_rank(a) < a.shape[1]:
                out.append(
                    Violation(
                        "rank-deficient",
                        f"({i},{j})",
                        f"shape {a.shape} has rank {np.linalg.matrix_rank(a)}",
                    )
                )
    if net.ids != tuple(range(1, net.num_nodes + 1)):
        out.append(
            Violation("ids-not-dense", "-", f"ids are {net.ids}, expected 1..{net.num_nodes}")
        )
    if net.num_nodes > 1:
        g = nx.Graph()
        g.add_nodes_from(net.ids)
        g.add_edges_from(net.edges)
        if not nx.is_connected(g):
            out.append(
                Violation(
                    "not-connected",
                    "-",
                    f"{nx.number_connected_components(g)} components",
                )
            )
    return out


# ---------------------------------------------------------------------------
# random generation


def _as_square(a, what):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"{what}: expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{what}: non-finite entries")
    return cones.symmetrize(a)


def _random_spd(rng, dim, lo=0.5, hi=2.0):
    """SPD matrix with eigenvalues uniform in [lo, hi]."""
    lam = rng.uniform(lo, hi, size=dim)
    q = np.linalg.qr(rng.standard_normal((dim, dim)))[0]
    return cones.symmetrize(q @ np.diag(lam) @ q.T)


def _full_rank_matrix(rng, rows, cols, scale):
    """Gaussian matrix redrawn until its column rank is full."""
    for _ in range(64):
        a = scale * rng.standard_normal((rows, cols))
        if np.linalg.matrix_rank(a) == cols:
            return a
    raise RuntimeError(f"could not draw a full-rank {rows}x{cols} matrix")


def _topology_edges(rng, m, topology, er_prob, grid_shape):
    """Undirected edge list for the requested topology, plus a parent map
    when the topology is a tree (used to thin observation scopes)."""
    if topology == "er":
        if m == 1:
            return [], None
        # Resample until connected; the added spanning check keeps small
        # probabilities from stalling the generator forever.
        for _ in range(1000):
            g = nx.gnp_random_graph(m, er_prob, seed=int(rng.integers(2**32)))
            if nx.is_connected(g):
                return [(a + 1, b + 1) for a, b in g.edges], None
        raise RuntimeError(
            f"no connected draw in 1000 tries (m={m}, p={er_prob}); raise --er-prob"
        )
    if topology == "ring":
        if m < 3:
            return [(1, 2)] if m == 2 else [], None
        return [(i, i % m + 1) for i in range(1, m + 1)], None
    if topology == "star":
        return [(1, i) for i in range(2, m + 1)], None
    if topology == "complete":
        return [(a, b) for a in range(1, m + 1) for b in range(a + 1, m + 1)], None
    if topology == "grid":
        rows, cols = grid_shape if grid_shape else _near_square(m)
        if rows * cols != m:
            raise ValueError(f"grid {rows}x{cols} does not cover {m} nodes")
        g = nx.grid_2d_graph(rows, cols)
        order = {rc: k + 1 for k, rc in enumerate(sorted(g.nodes))}
        return [(order[a], order[b]) for a, b in g.edges], None
    if topology == "tree":
        if m == 1:
            return [], {}
        if m == 2:
            tree = nx.Graph([(0, 1)])
        else:
            seq = [int(v) for v in rng.integers(0, m, size=m - 2)]
            tree = nx.from_prufer_sequence(seq)
        edges = [(a + 1, b + 1) for a, b in tree.edges]
        parent = {}
        for child, par in nx.bfs_predecessors(tree, 0):
            parent[child + 1] = par + 1
        return edges, parent
    raise ValueError(f"unknown topology {topology!r}; choose from {TOPOLOGIES}")


def _near_square(m):
    r = int(np.floor(np.sqrt(m)))
    while m % r:
        r -= 1
    return r, m // r


def generate_random(
    seed,
    num_nodes,
    topology="er",
    *,
    er_prob=0.4,
    grid_shape=None,
    dim_range=(1, 3),
    coeff_scale=1.0,
):
    """Draw a random valid instance.

    Priors and noises get eigenvalues in [0.5, 2] so nothing is close to
    singular.  Observations are sampled from the model itself: latent
    x ~ N(0, W), then y_n = sum A x + z with z ~ N(0, R).

    For ``topology="tree"`` each non-root node observes only itself and
    its parent, which keeps the factor graph cycle free; every other
    topology uses full scopes (the node plus all its neighbors), so any
    network cycle, and in fact any shared neighbor, produces a loopy
    factor graph.
    """
    rng = np.random.default_rng(seed)
    m = int(num_nodes)
    if m < 1:
        raise ValueError("num_nodes must be >= 1")
    lo, hi = int(dim_range[0]), int(dim_range[1])
    if lo < 1 or hi < lo:
        raise ValueError(f"bad dim_range {dim_range}")
    edges, parent = _topology_edges(rng, m, topology, er_prob, grid_shape)
    neighbors = {i: set() for i in range(1, m + 1)}
    for a, b in edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    dims = {i: int(rng.integers(lo, hi + 1)) for i in range(1, m + 1)}
    if topology == "tree":
        scopes = {
            i: sorted({i} | ({parent[i]} if i in parent else set()))
            for i in range(1, m + 1)
        }
    else:
        scopes = {i: sorted({i} | neighbors[i]) for i in range(1, m + 1)}
    priors = {i: _random_spd(rng, dims[i]) for i in range(1, m + 1)}
    coeffs = {}
    noises = {}
    obs_dims = {}
    for i in range(1, m + 1):
        obs_dims[i] = sum(dims[j] for j in scopes[i])
        coeffs[i] = {
            j: _full_rank_matrix(rng, obs_dims[i], dims[j], coeff_scale)
            for j in scopes[i]
        }
        noises[i] = _random_spd(rng, obs_dims[i])
    latent = {
        i: np.linalg.cholesky(priors[i]) @ rng.standard_normal(dims[i])
        for i in range(1, m + 1)
    }
    nodes = []
    for i in range(1, m + 1):
        z = np.linalg.cholesky(noises[i]) @ rng.standard_normal(obs_dims[i])
        y = z + sum(coeffs[i][j] @ latent[j] for j in scopes[i])
        nodes.append(
            NodeSpec(
                id=i,
                dim=dims[i],
                prior_cov=priors[i],
                noise_cov=noises[i],
                obs=y,
                coeff=coeffs[i],
            )
        )
    net = GaussianNetwork(nodes, edges)
    problems = validate(net)
    if problems:
        raise RuntimeError(
            "generator produced an invalid instance: "
            + "; ".join(str(p) for p in problems)
        )
    return net


def two_node_symmetric(y=(0.3, -0.2)):
    """The smallest loopy instance: two scalar nodes observing each other.

    All priors, noises, and coefficients are 1.  Both observations read
    y_n = x_1 + x_2 + z_n, so the factor graph is the 4-cycle
    x_1 - f_1 - x_2 - f_2 - x_1.  Its information-matrix iteration reduces
    to the scalar map c -> (1 + c) / (2 + c) on every edge, with fixed
    point (sqrt(5) - 1) / 2.
    """
    one = np.eye(1)
    nodes = [
        NodeSpec(1, 1, one, one, [float(y[0])], {1: one, 2: one}),
        NodeSpec(2, 1, one, one, [float(y[1])], {1: one, 2: one}),
    ]
    return GaussianNetwork(nodes, [(1, 2)])


def two_node_chain(y=(0.3, -0.2)):
    """A two-node tree: node 1 observes both variables, node 2 only itself.

    The factor graph is the path f_2 - x_2 - f_1 - x_1, which is cycle
    free, so message passing must reproduce the centralized posterior
    exactly.
    """
    one = np.eye(1)
    nodes = [
        NodeSpec(1, 1, one, one, [float(y[0])], {1: one, 2: one}),
        NodeSpec(2, 1, one, one, [float(y[1])], {2: one}),
    ]
    return GaussianNetwork(nodes, [(1, 2)])


# ---------------------------------------------------------------------------
# file format


def _to_doc(net):
    nodes = []
    for i in net.ids:
        n = net.node(i)
        nodes.append(
            {
                "id": n.id,
                "dim": n.dim,
                "W": n.prior_cov.tolist(),
                "R": n.noise_cov.tolist(),
                "y": n.obs.tolist(),
                "A": {str(j): n.coeff[j].tolist() for j in n.scope()},
            }
        )
    return {"nodes": nodes, "edges": [list(e) for e in net.edges]}


def dumps(net):
    """Serialize to the canonical JSON text form.

    Floats use Python's shortest round-trip repr, so every float64 value
    survives a save/load cycle bit for bit.
    """
    return json.dumps(_to_doc(net), indent=2) + "\n"


def save(net, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(net))


def loads(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"not valid JSON: {exc}") from exc
    return _from_doc(doc)


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return loads(text)


def _require(doc, key, where, kind=None):
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    val = doc[key]
    if kind is not None and not isinstance(val, kind):
        raise SchemaError(
            f"{where}: key {key!r} should be {kind.__name__}, got {type(val).__name__}"
        )
    return val


def _from_doc(doc):
    if not isinstance(doc, dict):
        raise SchemaError(f"top level must be an object, got {type(doc).__name__}")
    raw_nodes = _require(doc, "nodes", "top level", list)
    raw_edges = _require(doc, "edges", "top level", list)
    nodes = []
    for k, nd in enumerate(raw_nodes):
        where = f"nodes[{k}]"
        if not isinstance(nd, dict):
            raise SchemaError(f"{where}: must be an object")
        nid = _require(nd, "id", where, int)
        dim = _require(nd, "dim", where, int)
        coeff_doc = _require(nd, "A", where, dict)
        coeff = {}
        for key, mat in coeff_doc.items():
            try:
                j = int(key)
            except ValueError:
                raise SchemaError(
                    f"{where}: A key {key!r} is not an integer node id"
                ) from None
            coeff[j] = _num_array(mat, f"{where}.A[{key}]", ndim=2)
        try:
            node = NodeSpec(
                id=nid,
                dim=dim,
                prior_cov=_num_array(_require(nd, "W", where), f"{where}.W", ndim=2),
                noise_cov=_num_array(_require(nd, "R", where), f"{where}.R", ndim=2),
                obs=_num_array(_require(nd, "y", where), f"{where}.y", ndim=1),
                coeff=coeff,
            )
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
        nodes.append(node)
    edges = []
    for k, e in enumerate(raw_edges):
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(v, int) for v in e)
        ):
            raise SchemaError(f"edges[{k}]: must be a pair of integer node ids")
        edges.append((e[0], e[1]))
    try:
        net = GaussianNetwork(nodes, edges)
    except ValueError as exc:
        raise SemanticError(str(exc)) from exc
    problems = validate(net)
    if problems:
        raise SemanticError(
            "; ".join(str(p) for p in problems), violations=problems
        )
    return net


def _num_array(val, where, ndim):
    try:
        arr = np.asarray(val, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: not a numeric array: {exc}") from exc
    if arr.ndim != ndim:
        raise SchemaError(f"{where}: expected a {ndim}-d array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise SchemaError(f"{where}: non-finite entries")
    return arr
