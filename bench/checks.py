"""Output checks computed with numpy from the instance JSON alone.

Nothing here imports gabp: the posterior, the per-edge information bounds
and the trace properties are recomputed from the instance document, so a
fault in the package cannot make a wrong output look right.  Each check
returns a list of problems; an empty list means the output passed.
"""

import csv
import json

import numpy as np

MEAN_RTOL = 1e-6
# Loewner and definiteness tolerances, relative to the size of the blocks.
ORDER_RTOL = 1e-9


def load_instance(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _nodes(doc):
    nodes = {}
    for nd in doc["nodes"]:
        nodes[int(nd["id"])] = {
            "W": np.asarray(nd["W"], dtype=float),
            "R": np.asarray(nd["R"], dtype=float),
            "y": np.asarray(nd["y"], dtype=float),
            "A": {int(j): np.asarray(a, dtype=float) for j, a in nd["A"].items()},
        }
    return nodes


def posterior_means(doc):
    """Exact posterior means {id: vector} of the stacked linear model,
    (W^-1 + A^T R^-1 A)^-1 A^T R^-1 y, assembled node by node."""
    nodes = _nodes(doc)
    ids = sorted(nodes)
    offsets = {}
    total = 0
    for i in ids:
        offsets[i] = total
        total += nodes[i]["W"].shape[0]
    prec = np.zeros((total, total))
    rhs = np.zeros(total)
    for i in ids:
        s = slice(offsets[i], offsets[i] + nodes[i]["W"].shape[0])
        prec[s, s] += np.linalg.inv(nodes[i]["W"])
    for n in ids:
        node = nodes[n]
        scope = sorted(node["A"])
        a = np.hstack([node["A"][j] for j in scope])
        cols = np.concatenate(
            [np.arange(offsets[j], offsets[j] + node["A"][j].shape[1]) for j in scope]
        )
        r_inv_a = np.linalg.solve(node["R"], a)
        prec[np.ix_(cols, cols)] += a.T @ r_inv_a
        rhs[cols] += r_inv_a.T @ node["y"]
    mean = np.linalg.solve((prec + prec.T) / 2.0, rhs)
    return {i: mean[offsets[i] : offsets[i] + nodes[i]["W"].shape[0]] for i in ids}


def check_means(doc, means, rtol=MEAN_RTOL):
    """Belief means {id: vector} against the exact posterior, within
    ``rtol`` of the largest posterior mean entry."""
    truth = posterior_means(doc)
    if sorted(means) != sorted(truth):
        return [f"beliefs cover variables {sorted(means)}, expected {sorted(truth)}"]
    scale = max(float(np.max(np.abs(m))) for m in truth.values())
    err = max(
        float(np.max(np.abs(np.asarray(means[i], dtype=float) - truth[i])))
        for i in truth
    )
    if not err <= rtol * scale:
        return [f"belief means differ from the posterior by {err:.3e} (scale {scale:.3e})"]
    return []


def edge_bounds(doc):
    """Per directed edge (factor n, variable i) the interval [L_e, U_e]:

        U_e = A_ni^T R_n^-1 A_ni
        L_e = A_ni^T (R_n + sum_{j != i} A_nj W_j A_nj^T)^-1 A_ni
    """
    nodes = _nodes(doc)
    out = {}
    for n, node in nodes.items():
        for i, a_i in node["A"].items():
            s = node["R"].copy()
            for j, a_j in node["A"].items():
                if j != i:
                    s += a_j @ nodes[j]["W"] @ a_j.T
            u = a_i.T @ np.linalg.solve(node["R"], a_i)
            lo = a_i.T @ np.linalg.solve(s, a_i)
            out[(n, i)] = ((lo + lo.T) / 2.0, (u + u.T) / 2.0)
    return out


def check_messages(doc, messages):
    """Converged message infos: one per directed edge, positive definite,
    and L_e <= C_e <= U_e in the Loewner order."""
    bounds = edge_bounds(doc)
    infos = {(int(m["factor"]), int(m["variable"])): m["info"] for m in messages}
    if sorted(infos) != sorted(bounds):
        return [f"messages cover {len(infos)} edges, expected {len(bounds)}"]
    problems = []
    for edge, (lo, up) in sorted(bounds.items()):
        c = np.asarray(infos[edge], dtype=float)
        tol = ORDER_RTOL * (1.0 + float(np.max(np.abs(up))))
        if not np.allclose(c, c.T, rtol=0.0, atol=tol):
            problems.append(f"edge {edge}: info is not symmetric")
            continue
        c = (c + c.T) / 2.0
        if np.linalg.eigvalsh(c)[0] <= tol:
            problems.append(f"edge {edge}: info is not positive definite")
        if np.linalg.eigvalsh(c - lo)[0] < -tol:
            problems.append(f"edge {edge}: info is below L_e")
        if np.linalg.eigvalsh(up - c)[0] < -tol:
            problems.append(f"edge {edge}: info is above U_e")
    return problems


def check_analysis(doc, trace_csv):
    """``gabp analyze`` output: no quantitative failure, a contraction
    estimate in (0, 1), and part distances in the trace that fall at every
    step of the rate-fit window."""
    problems = []
    if doc.get("quantitative_failures") != []:
        problems.append(f"quantitative failures: {doc.get('quantitative_failures')}")
    rate = doc.get("rate") or {}
    c = rate.get("c_estimate")
    if c is None or not 0.0 < c < 1.0:
        problems.append(f"contraction estimate {c} is not in (0, 1)")
        return problems
    dist = {}
    with open(trace_csv, "r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["part_distance"]:
                dist[int(row["iteration"])] = float(row["part_distance"])
    window = range(rate["window_start"], rate["window_end"] + 1)
    seq = [dist.get(k) for k in window]
    if len(seq) < 2 or None in seq:
        problems.append(f"trace has no part distances over the window {window}")
    elif not all(b < a for a, b in zip(seq, seq[1:])):
        problems.append(f"part distances do not shrink over the window {window}")
    return problems
