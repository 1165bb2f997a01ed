"""The command line's outputs are pinned against a committed fixture.

``run``, ``analyze --trials 10`` and ``compare`` run in process on three
instances: the golden two-node instance, grid16 and er30 (network seed 1;
grid16 and er30 take observations drawn from the model with seed 1, as
``bench/run.py`` draws them).  Each command's exit code, stdout, stderr and
output files (JSON documents and ``trace.csv``) are compared with
``output_pins.json`` next to this file:

- exit codes, strings, integers, booleans, nulls, keys and list lengths
  match exactly, and so do iteration counts and flags;
- a float agrees within 1e-12 of the larger of its own magnitude and the
  largest float of the same output.  Differences of converged values (the
  final deltas, the stacked residual, the mean errors against the oracle)
  are rounding noise relative to themselves, but not relative to the
  values they are differences of;
- ``timestamp`` is left out.  ``content_hash`` and ``fixed_point_hash``
  are sha256 digests of floats, so they are recorded but not asserted (a
  digest would break on another BLAS).

Paths are recorded relative to the run's temporary directory.  A change
that moves an output on purpose rewrites the fixture, and says why, with

    PYTHONPATH=src python tests/test_output_pins.py

which first prints every mismatch against the fixture it replaces, so
that the values that moved can be named.
"""

import contextlib
import csv
import io
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from gabp import cli, network

FIXTURE = Path(__file__).with_name("output_pins.json")
REL = 1e-12
UNASSERTED = ("content_hash", "fixed_point_hash")
INSTANCES = {
    "golden": None,
    "grid16": {"num_nodes": 16, "topology": "grid", "grid_shape": (4, 4)},
    "er30": {"num_nodes": 30, "topology": "er", "er_prob": 0.2},
}
COMMANDS = {"run": ["run"], "analyze": ["analyze", "--trials", "10"], "compare": ["compare"]}
CASES = [f"{name}-{command}" for name in INSTANCES for command in COMMANDS]


def instance(name):
    """The golden instance as defined, or the benchmark's fixed network
    with observations y_n = sum_j A_nj x_j + z_n drawn under seed 1."""
    if INSTANCES[name] is None:
        return network.two_node_symmetric()
    net = network.generate_random(1, **INSTANCES[name])
    rng = np.random.default_rng(1)
    latent = {
        i: np.linalg.cholesky(net.node(i).prior_cov) @ rng.standard_normal(net.var_dim(i))
        for i in net.ids
    }
    obs = {}
    for n in net.ids:
        node = net.node(n)
        noise = np.linalg.cholesky(node.noise_cov) @ rng.standard_normal(node.obs_dim)
        obs[n] = noise + sum(node.coeff[j] @ latent[j] for j in node.scope())
    return net.with_obs(obs)


def record(case, root):
    """Run one case under ``root`` and return what the fixture holds for it."""
    name, command = case.split("-")
    work = Path(root) / case
    work.mkdir()
    network.save(instance(name), work / "instance.json")
    out = work / "out"
    stdout, stderr = io.StringIO(), io.StringIO()
    argv = [*COMMANDS[command], "--instance", str(work / "instance.json"), "--out-dir", str(out)]
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    files = {}
    for path in sorted(out.iterdir()):
        if path.suffix == ".json":
            doc = json.loads(path.read_text(encoding="utf-8"))
            doc.pop("timestamp")
            files[path.name] = doc
        else:
            with open(path, newline="", encoding="utf-8") as fh:
                files[path.name] = [[_cell(x) for x in row] for row in csv.reader(fh)]
    result = {"exit": code, "stdout": stdout.getvalue(), "stderr": stderr.getvalue(),
              "files": files}
    return json.loads(json.dumps(result).replace(str(root), "<tmp>"))


def _cell(text):
    """A CSV cell as the value it writes: int, float, or the text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _largest(value):
    if isinstance(value, dict):
        return max(map(_largest, value.values()), default=0.0)
    if isinstance(value, list):
        return max(map(_largest, value), default=0.0)
    return abs(value) if type(value) is float and math.isfinite(value) else 0.0


def mismatches(got, want, scale, where=""):
    """Paths at which ``got`` differs from ``want`` under the rules above;
    ``scale`` is the largest float of the output being compared."""
    if type(got) is not type(want):
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [m for k in want if k not in UNASSERTED
                for m in mismatches(got[k], want[k], scale, f"{where}.{k}")]
    if isinstance(want, list):
        if len(got) != len(want):
            return [f"{where}: length {len(got)} != {len(want)}"]
        return [m for k, (g, w) in enumerate(zip(got, want))
                for m in mismatches(g, w, scale, f"{where}[{k}]")]
    if isinstance(want, float):
        ok = got == want or abs(got - want) <= REL * max(abs(want), scale)
    else:
        ok = got == want
    return [] if ok else [f"{where}: {got!r} != {want!r}"]


@pytest.fixture(scope="module")
def pins():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


def case_mismatches(got, want):
    """Every mismatch of one recorded case against its pin."""
    problems = mismatches(sorted(got["files"]), sorted(want["files"]), 0.0, "files")
    for key in ("exit", "stdout", "stderr"):
        problems += mismatches(got[key], want[key], 0.0, key)
    for name in want["files"].keys() & got["files"].keys():
        problems += mismatches(got["files"][name], want["files"][name],
                               _largest(want["files"][name]), name)
    return problems


@pytest.mark.parametrize("case", CASES)
def test_outputs_match_the_pins(case, pins, tmp_path):
    assert case_mismatches(record(case, tmp_path), pins[case]) == []


def test_mismatches_apply_the_rules():
    # A 1e-11 value may move 4 % (4e-13), a value of the output's scale 5e-13.
    want = {"a": [1.0, 1e-11], "n": 3, "flag": True, "content_hash": "x"}
    assert mismatches({"a": [1.0 + 5e-13, 1.04e-11], "n": 3, "flag": True, "content_hash": "y"},
                      want, 1.0) == []
    assert mismatches({"a": [1.0 + 1e-10, 1e-11], "n": 3, "flag": True, "content_hash": "x"},
                      want, 1.0) == [".a[0]: 1.0000000001 != 1.0"]
    assert mismatches({"a": [1.0, 1e-11], "n": 4, "flag": 1, "content_hash": "x"}, want, 1.0) == [
        ".n: 4 != 3", ".flag: 1 != True"]
    assert mismatches({"a": [1.0], "n": 3, "flag": True}, want, 1.0) == [
        ": keys ['a', 'flag', 'n'] != ['a', 'content_hash', 'flag', 'n']"]


def main():
    with tempfile.TemporaryDirectory() as root:
        pins = {case: record(case, root) for case in CASES}
    old = json.loads(FIXTURE.read_text(encoding="utf-8")) if FIXTURE.exists() else {}
    for case in CASES:
        problems = case_mismatches(pins[case], old[case]) if case in old else ["new case"]
        for problem in problems:
            print(f"{case}: {problem}")
    FIXTURE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {FIXTURE} ({len(pins)} cases)")


if __name__ == "__main__":
    sys.exit(main())
