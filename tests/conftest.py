"""Shared pytest plumbing: a visible per-criterion verdict table, and the
two-node tree instance several test modules use.

The acceptance tests register one line per criterion; printing them from
the terminal-summary hook makes the verdicts visible under plain
``pytest -v`` where per-test stdout is captured.
"""

import numpy as np

from gabp import network

_CRITERION_RESULTS = []


def record_criterion(number, description, ok, detail=""):
    line = f"criterion {number:02d} {'PASS' if ok else 'FAIL'}: {description}"
    if detail:
        line += f" [{detail}]"
    _CRITERION_RESULTS.append((number, line))


def pytest_terminal_summary(terminalreporter):
    if not _CRITERION_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_CRITERION_RESULTS):
        terminalreporter.write_line(line)


def two_node_chain(y=(0.3, -0.2)):
    """A two-node tree: node 1 observes both variables, node 2 only itself.

    The factor graph is the path f_2 - x_2 - f_1 - x_1, which is cycle
    free, so message passing must reproduce the centralized posterior
    exactly.
    """
    one = np.eye(1)
    nodes = [
        network.NodeSpec(1, 1, one, one, [float(y[0])], {1: one, 2: one}),
        network.NodeSpec(2, 1, one, one, [float(y[1])], {2: one}),
    ]
    return network.GaussianNetwork(nodes, [(1, 2)])
