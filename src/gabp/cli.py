"""Command line front end.

Four subcommands cover the workflow end to end:

  gabp gen      draw a random instance and write it as JSON
  gabp run      run message passing, write trace.csv + summary.json
  gabp analyze  run to a tight fixed point, then bounds, rate fit,
                property harness, and sandwich sequences
  gabp compare  check converged beliefs against the centralized posterior

Exit codes: 0 success, 1 usage or input errors (bad flags, unreadable or
invalid instance files, unusable output directories, bad init states),
2 a quantitative check failed (comparison beyond tolerance, property or
sandwich violations), 3 the message passing did not converge within the
iteration budget.

Set GABP_LOG to a level name (debug, info, warning) to get progress logs
on stderr.  Every JSON output embeds the package version, the instance
file hash, a timestamp, and a content_hash over everything except the
timestamp and the hash itself, so reruns are byte-identical outside the
timestamp line and can be diffed by hash.
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import logging
import os
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__, analysis, cones, engine, network, oracle
from .cones import NumericalError

log = logging.getLogger("gabp.cli")


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; this tool reserves 2
    # for quantitative failures, so remap usage problems to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser():
    parser = _Parser(prog="gabp", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"gabp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random instance")
    gen.add_argument("--out", required=True, help="instance JSON path to write")
    gen.add_argument("--seed", type=int, required=True)
    gen.add_argument("--nodes", type=int, required=True)
    gen.add_argument("--topology", default="er", choices=network.TOPOLOGIES)
    gen.add_argument("--er-prob", type=float, default=0.4)
    gen.add_argument("--grid-rows", type=int, default=None)
    gen.add_argument("--grid-cols", type=int, default=None)
    gen.add_argument("--dim-min", type=int, default=1)
    gen.add_argument("--dim-max", type=int, default=3)
    gen.add_argument("--coeff-scale", type=float, default=1.0)

    run = sub.add_parser("run", help="run message passing on an instance")
    _common_run_args(run, tol=1e-10, iters=500)

    ana = sub.add_parser("analyze", help="convergence diagnostics for an instance")
    _common_run_args(ana, tol=1e-13, iters=5000)
    ana.add_argument("--trials", type=int, default=100, help="property harness trials")
    ana.add_argument("--seed", type=int, default=0, help="property harness seed")
    ana.add_argument("--alpha", type=float, default=2.0, help="sandwich upper scale")
    ana.add_argument("--sandwich-target", type=float, default=1e-6)
    ana.add_argument(
        "--epsilon",
        type=float,
        default=None,
        help="rate-fit exclusion radius (default: 1e-8 * |C*|_F)",
    )

    cmp_ = sub.add_parser("compare", help="compare beliefs to the exact posterior")
    _common_run_args(cmp_, tol=1e-10, iters=500)
    cmp_.add_argument("--mean-tol", type=float, default=1e-6)
    cmp_.add_argument("--cov-tol", type=float, default=1e-8)
    return parser


def _common_run_args(p, tol, iters):
    p.add_argument("--instance", required=True, help="instance JSON path")
    p.add_argument("--out-dir", required=True, help="directory for outputs")
    p.add_argument("--tol", type=float, default=tol, help="Frobenius stopping tol")
    p.add_argument("--max-iters", type=int, default=iters)
    p.add_argument(
        "--init",
        default="zero",
        help="zero | identity[:scale] | file:PATH (messages from a run summary)",
    )


def main(argv=None):
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"gen": _cmd_gen, "run": _cmd_run, "analyze": _cmd_analyze, "compare": _cmd_compare}
    try:
        # Every overflow is caught and named below; numpy's warnings about
        # it would only print a line of source ahead of the message.
        with np.errstate(all="ignore"):
            return commands[args.command](args)
    except (network.SchemaError, network.SemanticError) as exc:
        print(f"gabp: invalid instance: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"gabp: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"gabp: numerical failure: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"gabp: error: {exc}", file=sys.stderr)
        return 1


def _setup_logging():
    level_name = os.environ.get("GABP_LOG", "")
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        level = logging.INFO
    logging.basicConfig(
        stream=sys.stderr,
        level=level,
        format="%(levelname)s %(name)s: %(message)s",
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_gen(args):
    if (args.grid_rows is None) != (args.grid_cols is None):
        raise ValueError("--grid-rows and --grid-cols must be given together")
    grid = (args.grid_rows, args.grid_cols) if args.grid_rows is not None else None
    net = network.generate_random(
        args.seed,
        args.nodes,
        args.topology,
        er_prob=args.er_prob,
        grid_shape=grid,
        dim_range=(args.dim_min, args.dim_max),
        coeff_scale=args.coeff_scale,
    )
    doc = json.loads(network.dumps(net))
    body_hash = _sha256_text(_canonical(doc))
    doc["meta"] = {
        "tool": "gabp",
        "version": __version__,
        "seed": args.seed,
        "topology": args.topology,
        "content_hash": body_hash,
        "timestamp": _now(),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.info("wrote %s (%d nodes, %d edges)", args.out, net.num_nodes, len(net.edges))
    print(f"wrote {args.out} nodes={net.num_nodes} edges={len(net.edges)} hash={body_hash[:12]}")
    return 0


def _run_instance(args):
    """Load the instance, run message passing, and start the output
    document with the header that summary.json, analysis.json and
    compare.json share."""
    net = network.load(args.instance)
    instance_hash = _sha256_file(args.instance)
    init, init_scale = _parse_init(args.init, net)
    config = engine.ScheduleConfig(
        max_iterations=args.max_iters,
        tol_frobenius=args.tol,
        init=init,
        init_scale=init_scale,
    )
    log.info(
        "loaded %s: %d nodes, %d directed edges", args.instance, net.num_nodes,
        len(net.directed_edges),
    )
    os.makedirs(args.out_dir, exist_ok=True)
    result = engine.run(net, config)
    doc = {
        "command": args.command,
        "tool": "gabp",
        "version": __version__,
        "seed": getattr(args, "seed", None),
        "instance": args.instance,
        "instance_sha256": instance_hash,
        "schedule": _schedule_doc(args, config),
        "converged": result.converged,
        "iterations": result.iterations,
    }
    return net, result, doc


def _parse_init(spec, net):
    if spec == "zero":
        return "zero", 1.0
    if spec == "identity":
        return "identity", 1.0
    if spec.startswith("identity:"):
        with contextlib.suppress(ValueError):
            return "identity", float(spec.split(":", 1)[1])
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        return _load_init_state(path, net), 1.0
    raise ValueError(
        f"bad --init {spec!r}: expected zero, identity[:scale], or file:PATH"
    )


def _load_init_state(path, net):
    """Read an init state from a run summary (or any JSON with a
    compatible "messages" list).  Blocks must be symmetric PSD: message
    informations are Gram-like by construction, and the convergence
    guarantees only cover starts inside the PSD cone, so anything else is
    rejected up front."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or not isinstance(doc.get("messages"), list):
        raise ValueError(f"{path}: expected a JSON object with a 'messages' list")
    messages = {}
    for k, m in enumerate(doc["messages"]):
        try:
            edge = network.DirectedEdge(int(m["factor"]), int(m["variable"]))
            info = np.asarray(m["info"], dtype=float)
            if info.ndim != 2:
                raise ValueError(f"info has shape {info.shape}, expected a matrix")
            mean = np.asarray(m.get("mean", np.zeros(len(info))), dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: messages[{k}] is malformed: {exc}") from exc
        messages[edge] = engine.EdgeMessage(edge, info, mean)
    state = engine.MessageState(0, messages)
    try:
        return engine.check_init_state(net, state)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _cmd_run(args):
    net, result, doc = _run_instance(args)
    log.info(
        "run finished: converged=%s after %d iterations", result.converged,
        result.iterations,
    )
    if result.converged:
        # Annotate against the run's own terminal state so the trace CSV
        # carries the cone diagnostics; analyze does the same with a
        # tighter fixed point.
        bounds = analysis.bounds_ul(analysis.build_stacked(net))
        analysis.annotate_trace(result.trace, bounds, result.state.info_blocks())
    analysis.write_trace_csv(result.trace, os.path.join(args.out_dir, "trace.csv"))
    last = result.trace.records[-1]
    doc.update({
        "mean_converged": result.mean_converged,
        "final_frobenius_delta": _jsonable(last.frobenius_delta),
        "final_mean_delta": _jsonable(last.mean_delta),
        "fixed_point_hash": _hash_state(result.state) if result.converged else None,
        "messages": _messages_doc(result.state),
        "beliefs": [
            {
                "variable": i,
                "mean": result.beliefs[i].mean.tolist(),
                "cov": result.beliefs[i].cov.tolist(),
            }
            for i in net.ids
        ],
    })
    _write_outputs(args, "summary.json", doc, "trace.csv")
    if not result.converged:
        print(
            f"did not converge within {args.max_iters} iterations "
            f"(last delta {last.frobenius_delta:.3e})",
            file=sys.stderr,
        )
        return 3
    print(
        f"converged in {result.iterations} iterations "
        f"(delta {last.frobenius_delta:.3e}, mean delta {last.mean_delta:.3e})"
    )
    return 0


def _cmd_analyze(args):
    # Bad options fail before the engine runs, with the analysis functions' messages.
    epsilon = 0.0 if args.epsilon is None else args.epsilon
    for ok, name, value, rule in (
        (args.trials >= 0, "trials", args.trials, "be >= 0"),
        (epsilon >= 0, "epsilon", epsilon, "be >= 0"),
        (args.alpha > 1.0, "alpha", args.alpha, "exceed 1"),
        (args.sandwich_target >= 0.0, "target", args.sandwich_target, "be >= 0"),
    ):
        if not ok:
            raise ValueError(f"{name} must {rule}, got {value!r}")
    net, result, doc = _run_instance(args)
    op = analysis.build_stacked(net)
    doc["phi"] = op.phi
    doc["fixed_point_hash"] = _hash_state(result.state) if result.converged else None
    if not result.converged:
        analysis.write_trace_csv(result.trace, os.path.join(args.out_dir, "trace.csv"))
        _write_outputs(args, "analysis.json", doc, "trace.csv")
        print(
            f"did not converge within {args.max_iters} iterations; "
            "diagnostics need a fixed point",
            file=sys.stderr,
        )
        return 3

    star_blocks = result.state.info_blocks()
    image = analysis.apply_stacked_operator(op, star_blocks)
    residual = float(np.sqrt(sum(np.sum((f - s) ** 2) for f, s in zip(image, star_blocks))))
    doc["stacked_residual"] = residual
    log.info("stacked operator residual at the engine fixed point: %.3e", residual)

    quantitative_failures = []
    bounds = analysis.bounds_ul(op)
    analysis.annotate_trace(result.trace, bounds, star_blocks)
    in_bounds = [r.in_bounds for r in result.trace.records if r.in_bounds is not None]
    doc["bounds"] = {
        "l_min_eig": cones.min_eigenvalue_blocks(bounds.l_blocks),
        "u_max_eig": float(np.max(cones.eigvalsh_blocks(bounds.u_blocks))),
        "trace_in_bounds_all": bool(all(in_bounds)) if in_bounds else None,
    }
    if in_bounds and not all(in_bounds):
        quantitative_failures.append("trace left the [L, U] interval")

    rate = analysis.rate_analysis(result.trace, epsilon=args.epsilon)
    doc["rate"] = {
        "c_estimate": rate.c_estimate,
        "r_squared": rate.r_squared,
        "window_start": rate.window[0] if rate.window else None,
        "window_end": rate.window[-1] if rate.window else None,
        "window_size": len(rate.window),
        "epsilon": rate.epsilon,
        "strictly_decreasing": rate.strictly_decreasing,
        "degenerate": rate.degenerate,
        "note": rate.note,
    }
    doc["norm_domination"] = {
        "all_ok": rate.norm_bound_all,
        "worst_slack": rate.worst_norm_slack,
    }
    if rate.norm_bound_all is False:
        quantitative_failures.append("norm domination failed on the trace")

    doc["harness"] = analysis.property_harness(op, trials=args.trials, seed=args.seed)
    quantitative_failures.extend(doc["harness"].failures)

    sandwich = analysis.sandwich_sequences(
        op, star_blocks, alpha=args.alpha, target=args.sandwich_target
    )
    doc["sandwich"] = {
        "alpha": sandwich.alpha,
        "steps": sandwich.steps,
        "target": sandwich.target,
        "upper_monotone": sandwich.upper_monotone,
        "lower_monotone": sandwich.lower_monotone,
        "contains_fixed_point": sandwich.contains_fixed_point,
        "reached_target": sandwich.reached_target,
        "final_upper_distance": sandwich.upper_distances[-1],
        "final_lower_distance": sandwich.lower_distances[-1],
        "failures": sandwich.failures,
    }
    quantitative_failures.extend(sandwich.failures)

    analysis.write_trace_csv(result.trace, os.path.join(args.out_dir, "trace.csv"))
    doc["quantitative_failures"] = quantitative_failures
    _write_outputs(args, "analysis.json", doc, "trace.csv")
    if quantitative_failures:
        for f in quantitative_failures:
            print(f"check failed: {f}", file=sys.stderr)
        return 2
    rate_str = ""
    if rate.c_estimate is not None:
        rate_str = f", contraction ~ {rate.c_estimate:.4f}"
    print(f"analysis ok: {result.iterations} iterations{rate_str}")
    return 0


def _cmd_compare(args):
    for flag, tol in (("--mean-tol", args.mean_tol), ("--cov-tol", args.cov_tol)):
        if not tol >= 0.0:
            raise ValueError(f"{flag} must be >= 0, got {tol!r}")
    net, result, doc = _run_instance(args)
    report = oracle.compare(net, result.beliefs, converged=result.converged)
    within = None
    if report.applicable:
        within = report.max_mean_error <= args.mean_tol and (
            not report.cov_comparable or report.max_cov_error <= args.cov_tol
        )
    doc.update({
        "mean_tol": args.mean_tol,
        "cov_tol": args.cov_tol,
        "within_tolerance": within,
        "report": report,
    })
    _write_outputs(args, "compare.json", doc)
    if not result.converged:
        print("comparison is not applicable: run did not converge", file=sys.stderr)
        return 3
    if not within:
        print(
            f"beliefs disagree with the centralized posterior: "
            f"max mean error {report.max_mean_error:.3e} (tol {args.mean_tol:.1e})"
            + (
                f", max cov error {report.max_cov_error:.3e} (tol {args.cov_tol:.1e})"
                if report.cov_comparable
                else ""
            ),
            file=sys.stderr,
        )
        return 2
    kind = "tree (cov comparable)" if report.is_tree else "loopy (means only)"
    print(
        f"agreement ok [{kind}]: max mean error {report.max_mean_error:.3e}, "
        f"max cov error {report.max_cov_error:.3e}"
    )
    return 0


# ---------------------------------------------------------------------------
# output plumbing


def _schedule_doc(args, config):
    init = config.init if isinstance(config.init, str) else args.init
    return {
        "max_iterations": config.max_iterations,
        "tol_frobenius": config.tol_frobenius,
        "init": init,
        "init_scale": config.init_scale,
    }


def _messages_doc(state):
    return [
        {
            "factor": e.factor,
            "variable": e.variable,
            "info": state.messages[e].info.tolist(),
            "mean": state.messages[e].mean.tolist(),
        }
        for e in state.edges
    ]


def _hash_state(state):
    doc = [
        [e.factor, e.variable, state.messages[e].info.tolist()] for e in state.edges
    ]
    return _sha256_text(_canonical(doc))


def _write_outputs(args, name, doc, *others):
    """Write ``doc`` as ``name`` into the output directory, then
    manifest.json listing it and the already written ``others``."""
    _write_json(os.path.join(args.out_dir, name), doc)
    manifest = {
        "command": args.command,
        "tool": "gabp",
        "version": __version__,
        "instance": args.instance,
        "instance_sha256": doc["instance_sha256"],
        "out_dir": args.out_dir,
        "outputs": [name, *others],
        "options": {
            k: _jsonable(v)
            for k, v in sorted(vars(args).items())
            if k not in ("command",)
        },
    }
    _write_json(os.path.join(args.out_dir, "manifest.json"), manifest)


def _write_json(path, doc):
    doc = _jsonable(doc)
    doc["content_hash"] = _sha256_text(_canonical(doc))
    doc["timestamp"] = _now()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    log.debug("wrote %s", path)


def _canonical(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":"), allow_nan=False)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        return f if np.isfinite(f) else None
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
    return obj


def _sha256_text(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _sha256_file(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _now():
    return datetime.now(timezone.utc).isoformat()


if __name__ == "__main__":
    sys.exit(main())
