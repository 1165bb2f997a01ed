"""End-to-end and per-layer benchmark of the gabp command line.

    python3 bench/run.py --workload compare-grid144 --seed 1 --seconds 35 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 35 --trace 0

Each workload calls one real subcommand (``compare``, ``analyze`` or
``run``) in process through ``gabp.cli.main``, closed loop: one command at
a time, the next as soon as the previous returns, for ``--seconds`` (see
``closed_loop``).  The package comes from ``src/`` next to this directory,
with its default thread settings.  Every command's output is checked
against computations made apart from gabp (``checks.py``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced command and reports the per-layer metrics of the
traced ones (``tracer.py``).  The last line of standard output is one JSON
object: correct, attempted, failed, metrics.  ``--workload all`` runs
every workload in its own process and merges their results.

The network of each workload is fixed (``NETWORK_SEED``); ``--seed`` draws
its observations from the model, so a seed changes the data the checks
verify but not the amount of work, which the information recursion does
not take from the observations.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

NETWORK_SEED = 1
SETUP_REPEATS = 3

WORKLOADS = {
    # Engine-bound; analysis never runs.  Shows engine changes and is the
    # control for analysis-only changes.
    "compare-grid144": {
        "command": ["compare"],
        "network": {"num_nodes": 144, "topology": "grid", "grid_shape": (12, 12)},
    },
    # Harness, sandwich and trace annotation dominate; the engine is small.
    # Shows analysis changes and is the control for engine changes.  The
    # default 100 harness trials would take a minute per command.
    "analyze-grid16": {
        "command": ["analyze", "--trials", "10"],
        "network": {"num_nodes": 16, "topology": "grid", "grid_shape": (4, 4)},
    },
    # High-degree factors, large stage-2 blocks and dense global analysis
    # matrices (the memory peak); also writes summary.json and trace.csv.
    "run-er30": {
        "command": ["run"],
        "network": {"num_nodes": 30, "topology": "er", "er_prob": 0.2},
    },
}
# Warm-up instance: same subcommand, tiny network.
WARMUP_NETWORK = {"num_nodes": 4, "topology": "grid", "grid_shape": (2, 2)}

END_TO_END_UNITS = {"setup_s": "s", "op_median_s": "s", "op_cpu_s": "s", "peak_rss_mb": "MB"}
LAYERS = ("network", "engine", "oracle", "analysis")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: one timed set-up in a fresh process, writing into DIR.
    parser.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "gabp" / "__init__.py").is_file():
        print(f"bench: no gabp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gabp

    if Path(gabp.__file__).resolve().parent != (SRC / "gabp").resolve():
        print(f"bench: imported gabp from {gabp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        return Bench(args.workload, args.seed, Path(args.setup_only)).setup()

    workdir = OUT / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        setup_s = statistics.median(timed_setup(args, workdir) for _ in range(SETUP_REPEATS))
        bench = Bench(args.workload, args.seed, workdir)
        try:
            result = bench.run(args.seconds, bool(args.trace), setup_s)
        finally:
            bench.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def timed_setup(args, workdir):
    """Wall time of one set-up as a user pays it: a fresh interpreter
    imports gabp, generates and writes the instance, and runs one warm-up
    command on a tiny instance (lazy imports, BLAS start-up)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-only", str(workdir)]
    t = time.perf_counter()
    subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
    return time.perf_counter() - t


def run_all(args):
    """Each workload in its own process, so each has its own memory peak."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        if proc.returncode != 0:
            print(f"bench: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        print(f"{name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"correct {res['correct']}", file=sys.stderr)
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = m
            print(f"  {key} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(json.dumps(merged))
    return 0


class Bench:
    def __init__(self, workload, seed, workdir):
        from gabp import analysis, cones, engine, network, oracle

        self.workload = workload
        self.seed = seed
        self.spec = WORKLOADS[workload]
        self.modules = {"network": network, "engine": engine, "oracle": oracle,
                        "analysis": analysis, "cones": cones}
        self.instance = workdir / "instance.json"
        self.warmup = workdir / "warmup.json"
        self.outdir = workdir / "out"
        self.problems = []
        self.attempted = 0
        self.failed = 0
        self._means = None
        self._engine_run = None
        if self.spec["command"][0] == "compare":
            # compare.json holds no beliefs; take them from the run result.
            self._engine_run = engine.run

            def capture(*a, **kw):
                result = self._engine_run(*a, **kw)
                self._means = {i: b.mean.copy() for i, b in result.beliefs.items()}
                return result

            engine.run = capture

    def close(self):
        if self._engine_run is not None:
            self.modules["engine"].run = self._engine_run

    # -- set-up ------------------------------------------------------------

    def write_instance(self, path, params):
        """The workload's fixed network with observations drawn from the
        model, y_n = sum_j A_nj x_j + z_n, under this run's seed."""
        import numpy as np
        from gabp import network

        net = network.generate_random(NETWORK_SEED, **params)
        rng = np.random.default_rng(self.seed)
        latent = {
            i: np.linalg.cholesky(net.node(i).prior_cov) @ rng.standard_normal(net.var_dim(i))
            for i in net.ids
        }
        obs = {}
        for n in net.ids:
            node = net.node(n)
            noise = np.linalg.cholesky(node.noise_cov) @ rng.standard_normal(node.obs_dim)
            obs[n] = noise + sum(node.coeff[j] @ latent[j] for j in node.scope())
        network.save(net.with_obs(obs), path)

    def setup(self):
        self.write_instance(self.instance, self.spec["network"])
        self.write_instance(self.warmup, WARMUP_NETWORK)
        rc, _, _ = self.command(self.warmup)
        return rc

    # -- commands ----------------------------------------------------------

    def command(self, instance):
        from gabp import cli

        argv = [*self.spec["command"], "--instance", str(instance),
                "--out-dir", str(self.outdir)]
        self._means = None
        wall = time.perf_counter()
        cpu = time.process_time()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        return rc, time.perf_counter() - wall, time.process_time() - cpu

    def timed_command(self, tracer=None):
        if tracer is None:
            rc, wall, cpu = self.command(self.instance)
        else:
            with tracer, tracer.command_span():
                rc, wall, cpu = self.command(self.instance)
        self.attempted += 1
        if rc != 0:
            self.failed += 1
        else:
            self.problems.extend(self.check())
        return wall, cpu

    def check(self):
        import checks

        doc = checks.load_instance(self.instance)
        kind = self.spec["command"][0]
        if kind == "compare":
            out = json.loads((self.outdir / "compare.json").read_text())
            if not (out["converged"] and out["within_tolerance"]):
                return ["compare.json reports no converged agreement"]
            return checks.check_means(doc, self._means)
        if kind == "analyze":
            out = json.loads((self.outdir / "analysis.json").read_text())
            return checks.check_analysis(out, self.outdir / "trace.csv")
        out = json.loads((self.outdir / "summary.json").read_text())
        if not out["converged"]:
            return ["summary.json reports no convergence"]
        means = {b["variable"]: b["mean"] for b in out["beliefs"]}
        problems = checks.check_means(doc, means)
        problems += checks.check_messages(doc, out["messages"])
        if not (self.outdir / "trace.csv").is_file():
            problems.append("trace.csv was not written")
        return problems

    # -- runs --------------------------------------------------------------

    def run(self, seconds, trace, setup_s):
        rc, _, _ = self.command(self.warmup)
        if rc != 0:
            self.problems.append(f"warm-up command exited {rc}")
        if trace:
            metrics = self.traced_loop(seconds)
        else:
            walls, cpus = [], []

            def one_round():
                wall, cpu = self.timed_command()
                walls.append(wall)
                cpus.append(cpu)

            closed_loop(seconds, one_round)
            print(f"bench: {self.workload} seed {self.seed}: "
                  f"command walls {[round(w, 3) for w in walls]} s", file=sys.stderr)
            metrics = {
                "setup_s": setup_s,
                "op_median_s": statistics.median(walls),
                "op_cpu_s": statistics.median(cpus),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        for p in self.problems:
            print(f"bench: {self.workload} seed {self.seed}: {p}", file=sys.stderr)
        return {"correct": not self.problems, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}

    def traced_loop(self, seconds):
        """Rounds of one untraced and one traced command; per-layer figures
        are medians over the traced commands."""
        from tracer import Tracer

        tracer = Tracer(self.modules, counted=("cones",), observers=OBSERVERS)
        untraced, rows = [], []

        def one_round():
            untraced.append(self.timed_command()[0])
            self.timed_command(tracer)
            rows.append(layer_metrics(tracer, len(rows)))

        closed_loop(seconds, one_round)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"spans-{self.workload}-s{self.seed}.npz")
        metrics = {}
        for key, unit in PER_LAYER_UNITS.items():
            if key == "trace.overhead_s":
                value = statistics.median(r["trace.command_s"] for r in rows) - statistics.median(untraced)
            else:
                value = statistics.median(r[key] for r in rows)
            metrics[key] = {"value": value, "unit": unit}
        return metrics


def closed_loop(seconds, one_round):
    """Run whole rounds back to back for at most ``seconds``, or one round
    if a single one takes longer: a round starts only when a round as long
    as the last one still fits."""
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        one_round()
        now = time.perf_counter()
        if now - start + (now - t) > seconds:
            return


def _snapshot_bytes(result):
    return {"snapshot_bytes": sum(sys.getsizeof(b) for snap in result.trace.info_blocks for b in snap)}


def _operator_bytes(op):
    return {"operator_bytes": op.a.nbytes + op.omega.nbytes + op.h.nbytes + op.psi.nbytes}


OBSERVERS = {
    "engine.run": _snapshot_bytes,
    "analysis.build_stacked": _operator_bytes,
    "analysis.property_harness": lambda r: {"harness_trials": r.trials},
    "analysis.sandwich_sequences": lambda r: {"sandwich_steps": r.steps},
}

PER_LAYER_UNITS = {
    "network.load_s": "s",
    "engine.run_s": "s",
    "engine.sweeps": "count",
    "engine.stage1_us": "us",
    "engine.stage1_calls": "count",
    "engine.stage2_us": "us",
    "engine.stage2_calls": "count",
    "engine.edge_update_us": "us",
    "engine.beliefs_s": "s",
    "engine.snapshot_mb": "MB",
    "oracle.compare_s": "s",
    "analysis.build_s": "s",
    "analysis.bounds_s": "s",
    "analysis.bounds_calls": "count",
    "analysis.apply_ms": "ms",
    "analysis.apply_calls": "count",
    "analysis.annotate_s": "s",
    "analysis.harness_trial_s": "s",
    "analysis.sandwich_step_s": "s",
    "analysis.operator_mb": "MB",
    "cones.cholesky_calls": "count",
    "cones.eig_calls": "count",
    "cones.symmetrize_calls": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "trace.command_s": "s",
    "trace.overhead_s": "s",
}


def layer_metrics(tracer, cmd):
    """Per-layer figures of one traced command.  A layer that did not run
    in the command reads 0."""
    summary = tracer.summary(cmd)
    counts = tracer.counts[cmd]
    observed = tracer.observed.get(cmd, {})

    def calls(name):
        return summary.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return summary.get(name, (0, 0.0, 0.0))[1]

    def per_call(name, scale):
        return scale * total(name) / calls(name) if calls(name) else 0.0

    def per_unit(name, key):
        return total(name) / observed[key] if observed.get(key) else 0.0

    m = {
        "network.load_s": total("network.load"),
        "engine.run_s": total("engine.run"),
        "engine.sweeps": calls("engine.combined_update"),
        "engine.stage1_us": per_call("engine.var_to_factor", 1e6),
        "engine.stage1_calls": calls("engine.var_to_factor"),
        "engine.stage2_us": per_call("engine.factor_to_var", 1e6),
        "engine.stage2_calls": calls("engine.factor_to_var"),
        # One stage-2 call per directed edge per sweep.
        "engine.edge_update_us": (
            1e6 * total("engine.combined_update") / calls("engine.factor_to_var")
            if calls("engine.factor_to_var") else 0.0
        ),
        "engine.beliefs_s": total("engine.compute_belief"),
        "engine.snapshot_mb": observed.get("snapshot_bytes", 0) / 1e6,
        "oracle.compare_s": total("oracle.compare"),
        "analysis.build_s": total("analysis.build_stacked"),
        "analysis.bounds_s": total("analysis.bounds_ul"),
        "analysis.bounds_calls": calls("analysis.bounds_ul"),
        "analysis.apply_ms": per_call("analysis.apply_stacked_operator", 1e3),
        "analysis.apply_calls": calls("analysis.apply_stacked_operator"),
        "analysis.annotate_s": total("analysis.annotate_trace"),
        "analysis.harness_trial_s": per_unit("analysis.property_harness", "harness_trials"),
        "analysis.sandwich_step_s": per_unit("analysis.sandwich_sequences", "sandwich_steps"),
        "analysis.operator_mb": observed.get("operator_bytes", 0) / 1e6,
        "cones.cholesky_calls": counts.get("cones.cho_factor_pd", 0),
        "cones.eig_calls": counts.get("cones.min_eigenvalue", 0) + counts.get("cones.part_metric", 0),
        "cones.symmetrize_calls": counts.get("cones.symmetrize", 0),
        "cli.self_s": summary["cli.main"][2],
        "trace.command_s": total("cli.main"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            s for name, (_, _, s) in summary.items() if name.startswith(layer + ".")
        )
    covered = m["cli.self_s"] + sum(m[f"{layer}.self_s"] for layer in LAYERS)
    if abs(covered - m["trace.command_s"]) > 1e-6:
        raise RuntimeError(
            f"self times add up to {covered:.9f} s, the command took {m['trace.command_s']:.9f} s"
        )
    return m


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
