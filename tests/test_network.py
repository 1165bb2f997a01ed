import dataclasses
import json
import re

import numpy as np
import pytest
import scipy.linalg

from gabp import cones, network
from gabp.network import (
    DirectedEdge,
    GaussianNetwork,
    NodeSpec,
    SchemaError,
    SemanticError,
)
from conftest import two_node_chain


def make_node(i, dim=1, coeff=None, obs_dim=None, prior=None, noise=None, obs=None):
    coeff = coeff if coeff is not None else {i: np.eye(dim)}
    m = obs_dim if obs_dim is not None else next(iter(coeff.values())).shape[0]
    return NodeSpec(
        id=i,
        dim=dim,
        prior_cov=prior if prior is not None else np.eye(dim),
        noise_cov=noise if noise is not None else np.eye(m),
        obs=obs if obs is not None else np.zeros(m),
        coeff=coeff,
    )


class TestNodeSpec:
    def test_coerces_and_freezes_arrays(self):
        n = make_node(1, dim=2)
        assert n.prior_cov.dtype == float
        with pytest.raises(ValueError):
            n.prior_cov[0, 0] = 5.0
        with pytest.raises(ValueError):
            n.coeff[1][0, 0] = 5.0

    def test_prior_shape_must_match_dim(self):
        with pytest.raises(ValueError, match="prior_cov"):
            NodeSpec(1, 2, np.eye(3), np.eye(2), np.zeros(2), {1: np.eye(2)})

    def test_obs_length_must_match_noise(self):
        with pytest.raises(ValueError, match="obs length"):
            NodeSpec(1, 1, np.eye(1), np.eye(2), np.zeros(3), {1: np.ones((2, 1))})

    def test_coeff_rows_must_match_obs(self):
        with pytest.raises(ValueError, match="rows"):
            NodeSpec(1, 1, np.eye(1), np.eye(2), np.zeros(2), {1: np.ones((3, 1))})

    def test_must_reference_self(self):
        with pytest.raises(ValueError, match="own id"):
            NodeSpec(1, 1, np.eye(1), np.eye(1), np.zeros(1), {2: np.eye(1)})

    def test_coeff_must_be_2d(self):
        message = r"^node 1: coeff\[1\] must be a 2-d matrix, got ndim 1$"
        with pytest.raises(ValueError, match=message):
            NodeSpec(1, 1, np.eye(1), np.eye(1), np.zeros(1), {1: np.ones(1)})

    def test_coeff_keys_naming_one_node_rejected(self):
        # Without the check the later key would silently replace the earlier.
        with pytest.raises(ValueError, match="^node 1: coeff keys 1 and '1' name node 1$"):
            NodeSpec(1, 1, np.eye(1), np.eye(1), np.zeros(1), {1: np.eye(1), "1": 2 * np.eye(1)})

    @pytest.mark.parametrize("key", ["x", 1.7, "1.0"])
    def test_coeff_key_not_an_id(self, key):
        with pytest.raises(ValueError) as err:
            NodeSpec(1, 1, np.eye(1), np.eye(1), np.zeros(1), {1: np.eye(1), key: np.eye(1)})
        assert str(err.value) == f"node 1: coeff key {key!r} is not an integer node id"

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            make_node(1, obs=np.array([np.nan]))

    def test_scope_sorted(self):
        n = NodeSpec(
            2, 1, np.eye(1), np.eye(3), np.zeros(3),
            {3: np.ones((3, 1)), 1: np.ones((3, 1)), 2: np.ones((3, 1))},
        )
        assert n.scope() == (1, 2, 3)


class TestGaussianNetwork:
    def build_pair(self):
        a = make_node(1, coeff={1: np.eye(1), 2: np.eye(1)}, obs_dim=1)
        b = make_node(2, coeff={1: np.eye(1), 2: np.eye(1)}, obs_dim=1)
        return GaussianNetwork([a, b], [(1, 2)])

    def test_requires_nodes(self):
        with pytest.raises(ValueError, match="at least one node"):
            GaussianNetwork([], [])

    def test_duplicate_ids(self):
        with pytest.raises(ValueError, match="duplicate node ids"):
            GaussianNetwork([make_node(1), make_node(1)], [])

    def test_edge_to_unknown_node(self):
        with pytest.raises(ValueError, match="unknown node"):
            GaussianNetwork([make_node(1), make_node(2)], [(1, 9)])

    def test_self_loop(self):
        with pytest.raises(ValueError, match="self loop"):
            GaussianNetwork([make_node(1)], [(1, 1)])

    def test_duplicate_edge(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            GaussianNetwork([make_node(1), make_node(2)], [(1, 2), (2, 1)])

    def test_coeff_must_point_at_neighbor(self):
        bad = make_node(1, coeff={1: np.eye(1), 3: np.eye(1)})
        others = [make_node(2), make_node(3)]
        with pytest.raises(ValueError, match="not a neighbor"):
            GaussianNetwork([bad] + others, [(1, 2), (2, 3)])

    def test_coeff_columns_must_match_target_dim(self):
        a = make_node(1, coeff={1: np.eye(1), 2: np.ones((1, 3))})
        b = make_node(2, dim=2, coeff={2: np.eye(2)})
        with pytest.raises(ValueError, match="columns"):
            GaussianNetwork([a, b], [(1, 2)])

    def test_derived_maps(self):
        net = network.two_node_symmetric()
        assert net.ids == (1, 2)
        assert net.edges == ((1, 2),)
        assert net.factor_scope(1) == (1, 2)
        assert net.var_factors(2) == (1, 2)
        assert net.directed_edges == (
            DirectedEdge(1, 1),
            DirectedEdge(1, 2),
            DirectedEdge(2, 1),
            DirectedEdge(2, 2),
        )

    def test_chain_has_reduced_scope(self):
        net = two_node_chain()
        assert net.factor_scope(1) == (1, 2)
        assert net.factor_scope(2) == (2,)
        assert net.var_factors(1) == (1,)
        assert net.var_factors(2) == (1, 2)
        assert len(net.directed_edges) == 3

    def test_prior_info_cached_and_correct(self):
        net = network.two_node_symmetric()
        w1 = net.prior_info(1)
        assert np.allclose(w1, np.eye(1))
        assert net.prior_info(1) is w1

    def test_equality(self):
        # dumps writes shortest-repr floats, so equal texts are equal instances.
        sym = network.dumps(network.two_node_symmetric())
        assert sym == network.dumps(network.two_node_symmetric())
        assert sym != network.dumps(two_node_chain())
        assert sym != network.dumps(network.two_node_symmetric(y=(1.0, 0.0)))

    def test_with_obs(self):
        net = network.two_node_symmetric()
        shifted = net.with_obs({1: [9.0]})
        assert shifted.node(1).obs[0] == 9.0
        assert shifted.node(2).obs[0] == net.node(2).obs[0]
        # structure untouched
        assert shifted.edges == net.edges


class TestValidate:
    def test_valid_instance_is_clean(self):
        assert network.validate(network.two_node_symmetric()) == []

    def test_prior_not_pd(self):
        node = make_node(1, prior=np.array([[0.0]]))
        out = network.validate(GaussianNetwork([node], []))
        assert any(v.rule == "prior-not-pd" and v.where == "1" for v in out)

    def test_noise_not_pd(self):
        node = make_node(1, noise=np.array([[-1.0]]))
        out = network.validate(GaussianNetwork([node], []))
        assert any(v.rule == "noise-not-pd" for v in out)

    def test_rank_deficient_coeff(self):
        # A[1][2] is a 2x1 zero matrix: shapes fine, rank 0.
        a = NodeSpec(
            1, 1, np.eye(1), np.eye(2), np.zeros(2),
            {1: np.ones((2, 1)), 2: np.zeros((2, 1))},
        )
        b = make_node(2, coeff={2: np.eye(1)})
        out = network.validate(GaussianNetwork([a, b], [(1, 2)]))
        assert [str(v) for v in out] == ["rank-deficient@(1,2): shape (2, 1) has rank 0"]

    def test_ids_not_dense(self):
        net = GaussianNetwork([make_node(1), make_node(3)], [(1, 3)])
        out = network.validate(net)
        assert any(v.rule == "ids-not-dense" for v in out)

    def test_not_connected(self):
        net = GaussianNetwork([make_node(1), make_node(2)], [])
        out = network.validate(net)
        assert [str(v) for v in out] == ["not-connected@-: 2 components"]

    @pytest.mark.parametrize("edges, count", [
        ([], 4),
        ([(1, 2), (3, 4)], 2),
        ([(1, 2), (2, 3), (3, 1)], 2),
        ([(4, 3), (3, 2), (2, 1), (1, 4)], 1),
    ])
    def test_components(self, edges, count):
        assert network._components(range(1, 5), edges) == count

    def test_violations_sorted_by_node(self):
        bad1 = make_node(1, prior=np.array([[-1.0]]))
        bad2 = make_node(2, noise=np.array([[0.0]]))
        out = network.validate(GaussianNetwork([bad1, bad2], [(1, 2)]))
        assert [v.where for v in out] == ["1", "2"]


def per_block_violations(net):
    """Reference for validate's per-node rules: one scipy eigensolve or
    matrix_rank call per block, against REL_TOL times its largest entry."""
    out = []
    for i in net.ids:
        node = net.node(i)
        for rule, cov in (("prior-not-pd", node.prior_cov), ("noise-not-pd", node.noise_cov)):
            low = float(scipy.linalg.eigvalsh(cov)[0])
            if not low > cones.REL_TOL * np.abs(cov).max():
                out.append(f"{rule}@{i}: min eigenvalue {low:.3e}")
        for j in node.scope():
            a = node.coeff[j]
            if np.linalg.matrix_rank(a) < a.shape[1]:
                out.append(f"rank-deficient@({i},{j}): shape {a.shape} has rank "
                           f"{np.linalg.matrix_rank(a)}")
    return out


class TestBatchedValidate:
    def broken(self):
        """Var dims 1-4, so every rule's batch mixes shapes; one violator of
        each rule sits among valid blocks of its own shape."""
        net = network.generate_random(6, 12, "ring", dim_range=(1, 4))
        nodes = {i: net.node(i) for i in net.ids}

        def inside(keys, shape_of, taken=()):
            """A key whose block shape also occurs before and after it."""
            return next(key for k, key in enumerate(keys) if key not in taken
                        and shape_of(key) in {shape_of(x) for x in keys[:k]}
                        and shape_of(key) in {shape_of(x) for x in keys[k + 1:]})

        p = inside(net.ids, lambda i: nodes[i].dim)
        r = inside(net.ids, lambda i: nodes[i].obs_dim, (p,))
        slots = [(n, j) for n in net.ids if n not in (p, r) for j in nodes[n].scope()]
        q, j = inside(slots, lambda key: nodes[key[0]].coeff[key[1]].shape)
        prior = np.diag(np.r_[-1e-3, np.ones(nodes[p].dim - 1)])
        nodes[p] = dataclasses.replace(nodes[p], prior_cov=prior)
        nodes[r] = dataclasses.replace(nodes[r], noise_cov=np.zeros((nodes[r].obs_dim,) * 2))
        coeff = dict(nodes[q].coeff)
        coeff[j] = np.zeros_like(coeff[j])
        nodes[q] = dataclasses.replace(nodes[q], coeff=coeff)
        return GaussianNetwork(list(nodes.values()), net.edges), (p, r, (q, j))

    def test_one_violator_of_each_rule_mid_batch(self):
        net, (p, r, (q, j)) = self.broken()
        got = [str(v) for v in network.validate(net)]
        assert got == per_block_violations(net)
        assert sorted(v.split(":")[0] for v in got) == sorted(
            [f"prior-not-pd@{p}", f"noise-not-pd@{r}", f"rank-deficient@({q},{j})"]
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_clean_instances_match_reference(self, seed):
        net = network.generate_random(seed, 10, "grid", dim_range=(1, 4))
        assert network.validate(net) == [] == per_block_violations(net)

    def test_borderline_blocks_use_the_per_block_tolerance(self):
        # Each block's tolerance is REL_TOL times its own largest entry
        # (1e-10 for a unit-scale block), not the batch's: beside a block of
        # scale 1e6, a unit-scale block whose min eigenvalue is twice its own
        # tolerance passes and one at half of it fails.
        tol = cones.REL_TOL
        nodes = [make_node(1, dim=2, prior=np.diag([1e6, 1.0])),
                 make_node(2, dim=2, prior=np.diag([1.0, 2 * tol])),
                 make_node(3, dim=2, prior=np.diag([1.0, tol / 2]))]
        net = GaussianNetwork(nodes, [(1, 2), (2, 3)])
        got = [str(v) for v in network.validate(net)]
        assert got == per_block_violations(net) == [f"prior-not-pd@3: min eigenvalue {tol / 2:.3e}"]


class TestGenerateRandom:
    @pytest.mark.parametrize("topology", network.TOPOLOGIES)
    def test_topologies_valid(self, topology):
        net = network.generate_random(3, 6, topology, grid_shape=(2, 3))
        assert network.validate(net) == []
        assert net.num_nodes == 6

    def test_reproducible(self):
        a = network.generate_random(11, 7, "er")
        b = network.generate_random(11, 7, "er")
        assert network.dumps(a) == network.dumps(b)
        c = network.generate_random(12, 7, "er")
        assert network.dumps(a) != network.dumps(c)

    def test_dims_within_range(self):
        net = network.generate_random(5, 9, "er", dim_range=(2, 4))
        dims = [net.var_dim(i) for i in net.ids]
        assert min(dims) >= 2 and max(dims) <= 4

    def test_full_scopes_on_er(self):
        net = network.generate_random(13, 6, "er")
        for i in net.ids:
            neighbors = {j for e in net.edges if i in e for j in e}
            assert net.factor_scope(i) == tuple(sorted({i} | neighbors))

    def test_tree_scopes_are_thin(self):
        net = network.generate_random(21, 9, "tree")
        sizes = sorted(len(net.factor_scope(i)) for i in net.ids)
        assert sizes[0] == 1           # the root observes only itself
        assert set(sizes) <= {1, 2}    # everyone else: self + parent

    def test_ring_and_star_and_complete_edge_counts(self):
        assert len(network.generate_random(1, 5, "ring").edges) == 5
        assert len(network.generate_random(1, 5, "star").edges) == 4
        assert len(network.generate_random(1, 5, "complete").edges) == 10

    def test_grid_shape_must_cover(self):
        with pytest.raises(ValueError, match="grid"):
            network.generate_random(1, 6, "grid", grid_shape=(2, 2))

    @pytest.mark.parametrize("kw, field", [
        ({"er_prob": float("nan")}, "er_prob"),
        ({"er_prob": -0.2}, "er_prob"),
        ({"er_prob": 1.5}, "er_prob"),
        ({"coeff_scale": 0.0}, "coeff_scale"),
        ({"coeff_scale": -1.0}, "coeff_scale"),
        ({"coeff_scale": float("inf")}, "coeff_scale"),
        ({"coeff_scale": float("nan")}, "coeff_scale"),
    ])
    def test_rejects_bad_parameters(self, kw, field):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            network.generate_random(1, 4, "er", **kw)

    def test_unconnectable_er_is_a_value_error(self):
        with pytest.raises(ValueError, match="no connected draw in 1000 tries"):
            network.generate_random(1, 6, "er", er_prob=0.01)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (3, 4), (4, 3)])
    def test_grid_edges_are_lattice_neighbors(self, shape):
        rows, cols = shape
        net = network.generate_random(2, rows * cols, "grid", grid_shape=shape)
        cells = {k: divmod(k - 1, cols) for k in net.ids}
        want = {
            (a, b) for a in net.ids for b in net.ids
            if a < b and abs(cells[a][0] - cells[b][0]) + abs(cells[a][1] - cells[b][1]) == 1
        }
        assert set(net.edges) == want

    @pytest.mark.parametrize("m", [2, 3, 6, 11])
    def test_tree_is_spanning_and_rooted_at_1(self, m):
        net = network.generate_random(m, m, "tree")
        assert len(net.edges) == m - 1
        assert network._components(net.ids, net.edges) == 1
        assert net.factor_scope(1) == (1,)
        parents = [set(net.factor_scope(i)) - {i} for i in net.ids[1:]]
        assert all(len(p) == 1 for p in parents)

    @pytest.mark.parametrize("seq, want", [
        ([], {(1, 2)}),
        ([4, 4, 4, 5], {(1, 4), (2, 4), (3, 4), (4, 5), (5, 6)}),
        ([3, 1], {(2, 3), (3, 1), (1, 4)}),
    ])
    def test_prufer_decoding(self, seq, want):
        edges = network._prufer_edges(len(seq) + 2, seq)
        assert {tuple(sorted(e)) for e in edges} == {tuple(sorted(e)) for e in want}

    def test_full_rank_draws_run_out(self, monkeypatch):
        monkeypatch.setattr(network.np.linalg, "matrix_rank", lambda a: 0)
        with pytest.raises(RuntimeError, match="^could not draw a full-rank 2x1 matrix$"):
            network.generate_random(1, 2, "ring", dim_range=(1, 1))

    def test_unknown_topology(self):
        with pytest.raises(ValueError, match="unknown topology"):
            network.generate_random(1, 4, "torus")

    def test_obs_dim_matches_scope(self):
        net = network.generate_random(17, 5, "er")
        for i in net.ids:
            want = sum(net.var_dim(j) for j in net.factor_scope(i))
            assert net.obs_dim(i) == want


class TestFileFormat:
    def test_round_trip(self, tmp_path):
        net = network.generate_random(8, 6, "er", dim_range=(1, 3))
        path = tmp_path / "inst.json"
        network.save(net, path)
        back = network.load(path)
        assert network.dumps(back) == network.dumps(net)

    def test_round_trip_preserves_floats_exactly(self, tmp_path):
        net = network.generate_random(9, 4, "ring")
        back = network.loads(network.dumps(net))
        for i in net.ids:
            assert np.array_equal(back.node(i).prior_cov, net.node(i).prior_cov)
            assert np.array_equal(back.node(i).obs, net.node(i).obs)

    def test_dumps_is_deterministic(self):
        net = network.generate_random(10, 5, "er")
        assert network.dumps(net) == network.dumps(net)

    def test_schema_shape(self):
        doc = json.loads(network.dumps(two_node_chain()))
        assert set(doc) == {"nodes", "edges"}
        assert set(doc["nodes"][0]) == {"id", "dim", "W", "R", "y", "A"}
        assert doc["edges"] == [[1, 2]]
        assert list(doc["nodes"][1]["A"]) == ["2"]

    def test_not_json(self):
        with pytest.raises(SchemaError, match="not valid JSON"):
            network.loads("{nodes: ")

    def test_missing_top_key(self):
        with pytest.raises(SchemaError, match="missing key 'edges'"):
            network.loads('{"nodes": []}')

    def test_missing_node_key_reports_location(self):
        doc = json.loads(network.dumps(two_node_chain()))
        del doc["nodes"][1]["W"]
        with pytest.raises(SchemaError, match=r"nodes\[1\]: missing key 'W'"):
            network.loads(json.dumps(doc))

    def test_bad_coeff_key(self):
        doc = json.loads(network.dumps(two_node_chain()))
        doc["nodes"][0]["A"]["x"] = [[1.0]]
        with pytest.raises(SchemaError, match="not an integer node id"):
            network.loads(json.dumps(doc))

    @pytest.mark.parametrize("key, j", [("01", 1), (" 2", 2), ("+1", 1)])
    def test_coeff_keys_naming_one_node_rejected(self, key, j):
        # json keeps both keys; int() would map them onto one node id.
        doc = json.loads(network.dumps(network.two_node_symmetric()))
        doc["nodes"][0]["A"][key] = [[5.0]]
        with pytest.raises(SchemaError) as err:
            network.loads(json.dumps(doc))
        assert str(err.value) == f"nodes[0]: node 1: coeff keys '{j}' and '{key}' name node {j}"

    def test_duplicate_json_key_rejected(self):
        # json alone keeps the last of two equal keys in one object.
        text = network.dumps(network.two_node_symmetric())
        text = text.replace('"W": [', '"W": [[9.0]], "W": [', 1)
        with pytest.raises(SchemaError, match="^duplicate key 'W' in a JSON object$"):
            network.loads(text)

    def test_non_numeric_matrix(self):
        doc = json.loads(network.dumps(two_node_chain()))
        doc["nodes"][0]["W"] = [["a"]]
        with pytest.raises(SchemaError, match=r"nodes\[0\].W"):
            network.loads(json.dumps(doc))

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "key, field",
        [("W", "prior_cov"), ("R", "noise_cov"), ("y", "obs"), ("A", "coeff[2]")],
    )
    def test_non_finite_entry_names_node_and_field(self, key, field, value):
        doc = json.loads(network.dumps(two_node_chain()))
        node = doc["nodes"][1]
        if key == "A":
            node["A"]["2"][0][0] = value
        elif key == "y":
            node["y"][0] = value
        else:
            node[key][0][0] = value
        text = json.dumps(doc)
        assert ("NaN" if np.isnan(value) else "Infinity") in text
        with pytest.raises(
            SchemaError, match=rf"^nodes\[1\]: node 2:? {re.escape(field)}:? .*non-finite"
        ):
            network.loads(text)

    def test_bad_edge_entry(self):
        doc = json.loads(network.dumps(two_node_chain()))
        doc["edges"] = [[1, 2, 3]]
        with pytest.raises(SchemaError, match=r"edges\[0\]"):
            network.loads(json.dumps(doc))

    def test_edge_to_missing_node_is_semantic(self):
        doc = json.loads(network.dumps(two_node_chain()))
        doc["edges"] = [[1, 9]]
        with pytest.raises(SemanticError, match="unknown node"):
            network.loads(json.dumps(doc))

    def test_invalid_statistics_are_semantic_with_rule_ids(self):
        doc = json.loads(network.dumps(two_node_chain()))
        doc["nodes"][0]["W"] = [[-1.0]]
        with pytest.raises(SemanticError, match="prior-not-pd@1") as err:
            network.loads(json.dumps(doc))
        assert err.value.violations[0].rule == "prior-not-pd"

    def test_extra_top_level_keys_tolerated(self):
        doc = json.loads(network.dumps(two_node_chain()))
        doc["meta"] = {"note": "anything"}
        net = network.loads(json.dumps(doc))
        assert network.dumps(net) == network.dumps(two_node_chain())
