"""Command-line front end.

Commands: ``generate`` (instance files), ``certify`` (parameter
certificates), ``solve`` (one run, CSV trace, optional SVG), ``sweep``
(grid campaigns with a manifest) and ``report`` (SVG families plus a rate
table from a sweep directory).

Exit codes are a stable contract: 0 success, 2 flag validation, 3 I/O or
parse or generation failure, 4 certification failed, 5 divergence.

The trace CSV writer and reader are :mod:`jprox.experiments`'s.  A sweep's
traces are written by the processes that ran its cells.  Each manifest
entry is a cell's ``SweepCell.to_dict()``, with its trace's SHA-256 digest
(``trace_sha256``).  ``report`` checks every listed trace against its
digest and parses only the ``k`` and ``dis`` columns of the traces it
plots.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import experiments as exp
from .certify import PhiWeights, certify, estimate_constants
from .errors import InvalidParameter, JproxError
from .experiments import read_trace_csv, write_trace_csv
from .problem import PrimalDualPoint
from .solvers import (
    DIVERGED,
    METHODS,
    WEIGHT_POLICIES,
    SolverParams,
    StandardProximal,
    run,
)
from .svgplot import line_plot_svg

EXIT_OK = 0
EXIT_FLAGS = 2
EXIT_IO = 3
EXIT_CERT = 4
EXIT_DIVERGED = 5

class FlagError(Exception):
    """A flag failed validation; message names the offending flag."""


def _fail_flags(message: str) -> "NoReturn":  # noqa: F821
    raise FlagError(message)


def _positive(value: float, flag: str) -> float:
    if not math.isfinite(value) or value <= 0.0:
        _fail_flags(f"invalid {flag}: must be a positive number")
    return value


def _nonnegative(value: float, flag: str) -> float:
    if not math.isfinite(value) or value < 0.0:
        _fail_flags(f"invalid {flag}: must be a nonnegative number")
    return value


def _positive_list(text: str, flag: str) -> tuple:
    """Comma-separated positive numbers with distinct ``:g`` texts, which name trace files."""
    items = [s.strip() for s in text.split(",")]
    try:
        values = [float(s) for s in items]
    except ValueError:
        _fail_flags(f"invalid {flag}: expected a comma-separated list of positive numbers")
    names = [f"{_positive(v, flag):g}" for v in values]
    for i, name in enumerate(names):
        if name in names[:i]:
            _fail_flags(f"invalid {flag}: values {items[names.index(name)]} and {items[i]} "
                        f"both format as {name}")
    return tuple(values)


def _at_least(value: int, least: int, flag: str) -> int:
    if value < least:
        _fail_flags(f"invalid {flag}: must be at least {least}")
    return value


def build_policy(name: str, tau):
    """The proximal policy request that ``--policy`` and ``--tau`` name.

    A weight policy's name (a key of ``WEIGHT_POLICIES``) gives that policy
    with weight ``tau``; ``--tau auto`` stays a request, which
    :func:`~jprox.certify.certify` resolves.
    """
    if name == "none":
        return None
    return WEIGHT_POLICIES[name](tau)


def _load_instance(path):
    try:
        return exp.load_instance(path)
    except FileNotFoundError:
        raise IOError(f"instance file not found: {path}")
    except ValueError as exc:
        raise IOError(f"malformed instance file {path}: {exc}")


# -- commands -----------------------------------------------------------------

#: ``generate``'s families by name: each calls its generator with the flags it reads.
GENERATORS = {
    "lcqp": lambda args, N, seed: exp.generate_lcqp(
        N, _at_least(args.m, 1, "--m"), _at_least(args.n, 1, "--n"), seed),
    "ra": lambda args, N, seed: exp.generate_resource_alloc(N, seed),
}


def cmd_generate(args) -> int:
    seed = _at_least(args.seed, 0, "--seed")
    N = _at_least(args.N, 1, "--N")
    instance = GENERATORS[args.kind](args, N, seed)
    problem = instance.problem
    try:
        consts = estimate_constants(problem)
        summary = (f"alpha={consts.alpha:.6g} L={consts.L:.6g} D={consts.D:.6g} "
                   f"c_A={consts.c_A:.6g}")
    except JproxError as exc:
        summary = f"constants unavailable ({exc})"
    # The archive records the spectra the constants were just computed from.
    out = Path(args.output)
    exp.save_instance(instance, out)
    print(f"wrote {out}: kind={args.kind} N={problem.N} m={problem.m} "
          f"dims={list(problem.dims)} seed={seed} {summary}")
    return EXIT_OK


def cmd_certify(args) -> int:
    instance = _load_instance(args.input)
    rho = _positive(args.rho, "--rho")
    gamma = _positive(args.gamma, "--gamma")
    policy = build_policy(args.policy, args.tau)
    # Out of (0, 2) an "auto" request has no weights to resolve to; the failed
    # certificate still goes to disk, and names any concrete policy.
    if gamma >= 2.0 and getattr(policy, "tau", None) == "auto":
        policy = None
    cert = certify(instance.problem, rho, gamma, policy, seed=instance.seed)
    cert.save(args.output)
    if cert.passed:
        print(f"certified: sigma={cert.sigma:.12g} s={cert.s:.6g} mu_s={cert.mu_s:.6g}")
        return EXIT_OK
    if cert.failure == "GammaOutOfRange":
        print("certification failed: gamma out of (0,2)", file=sys.stderr)
        return EXIT_CERT
    print(f"certification failed: {cert.failure}", file=sys.stderr)
    for key, val in cert.margins.items():
        print(f"  {key} = {val}", file=sys.stderr)
    return EXIT_CERT


def cmd_solve(args) -> int:
    instance = _load_instance(args.input)
    problem = instance.problem
    rho = _positive(args.rho, "--rho")
    gamma = _positive(args.gamma, "--gamma")
    max_iters = _at_least(args.max_iters, 1, "--max-iters")
    tol = _nonnegative(args.tol, "--tol")
    policy = build_policy(args.policy, args.tau)
    # Only a method that reads P_i (jprox) is certified: the baselines run without a certificate.
    cert = (certify(problem, rho, gamma, policy, instance.seed) if METHODS[args.method].proximal
            else None)
    params = SolverParams(rho=rho, gamma=gamma, policy=cert.proximal if cert else None,
                          max_iters=max_iters, dis_tol=tol)
    reference = instance.optimum()
    u0 = reference.copy() if args.u0 == "reference" else PrimalDualPoint.zeros(problem)
    trace = run(problem, params, u0, reference=reference,
                phi_context=PhiWeights.certified(problem, cert) if cert else None,
                method=args.method)
    write_trace_csv(trace, args.output)
    if args.plot:
        plot_path = Path(args.output).with_suffix(".svg")
        line_plot_svg(plot_path, [(args.method, trace.ks, trace.dis)],
                      title=f"rho={rho:g} gamma={gamma:g}")
    if trace.failure is not None:
        print(trace.failure, file=sys.stderr)
    print(f"status={trace.status} iters={trace.ks[-1]} final_dis={trace.dis[-1]:.17g}")
    if trace.status == DIVERGED:
        return EXIT_DIVERGED
    return EXIT_OK


def cmd_sweep(args) -> int:
    instance = _load_instance(args.input)
    seeds = [instance.seed]
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip() != ""]
        except ValueError:
            _fail_flags("invalid --seeds: expected a comma-separated list of integers")
        if not seeds:
            _fail_flags("invalid --seeds: list is empty")
        seeds = [_at_least(s, 0, "--seeds") for s in seeds]
        repeated = [s for i, s in enumerate(seeds) if s in seeds[:i]]
        if repeated:
            _fail_flags(f"invalid --seeds: seed {repeated[0]} listed twice")
    rho_grid = instance.rho_grid
    gamma_grid = exp.GAMMA_GRID
    if args.rho_grid:
        rho_grid = _positive_list(args.rho_grid, "--rho-grid")
    if args.gamma_grid:
        gamma_grid = _positive_list(args.gamma_grid, "--gamma-grid")
    max_iters = _at_least(args.max_iters, 1, "--max-iters")

    try:
        instances = [instance if seed == instance.seed else instance.redraw(seed)
                     for seed in seeds]
    except InvalidParameter as exc:
        _fail_flags(f"invalid --seeds: {exc}")

    sweep = exp.SweepConfig(rho_grid=rho_grid, gamma_grid=gamma_grid, max_iters=max_iters)
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    entries = []
    # Each cell's trace was written by the process that ran it.
    exp.run_sweep(instances, sweep, on_cell=lambda cell: entries.append(cell.to_dict()),
                  trace_dir=outdir)
    manifest = {
        "input": str(args.input),
        "rho_grid": list(rho_grid),
        "gamma_grid": list(gamma_grid),
        "seeds": seeds,
        "max_iters": max_iters,
        "workers": exp.sweep_workers(len(entries)),
        "cells": sorted(entries, key=lambda e: (e["rho"], e["gamma"], e["seed"])),
    }
    succeeded = sum(entry["trace"] is not None for entry in entries)
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
    print(f"sweep: {succeeded}/{len(entries)} cells completed -> {outdir}")
    return EXIT_OK if succeeded else EXIT_IO


#: Keys ``report`` reads from a sweep manifest and from each of its cells.
MANIFEST_KEYS = ("rho_grid", "gamma_grid", "cells")
CELL_KEYS = ("rho", "gamma", "seed", "status")
#: JSON number types; ``bool`` is left out, though a subclass of ``int``.
NUMBER = (int, float)
NULL = type(None)
#: JSON types of the cell fields ``report`` reads; ``a.b`` is key ``b`` of the object at ``a``.
CELL_TYPES = {"rho": NUMBER, "gamma": NUMBER, "seed": (int,), "trace": (str, NULL),
              "trace_sha256": (str, NULL), "certificate": (dict, NULL),
              "certificate.sigma": NUMBER + (NULL,), "certificate.passed": (bool,),
              "dis_rate": (dict, NULL), "dis_rate.rate": NUMBER + (NULL,),
              "phi_rate": (dict, NULL), "phi_rate.rate": NUMBER + (NULL,)}


def _wrong_cell_fields(cell: dict) -> list:
    """The keys of :data:`CELL_TYPES` whose value in ``cell`` has another JSON type."""
    wrong = []
    for key, types in CELL_TYPES.items():
        outer, _, inner = key.partition(".")
        value = cell.get(outer)
        if inner and type(value) is not dict:
            continue  # a null object has no keys; any other type is reported as ``outer``
        if type(value.get(inner) if inner else value) not in types:
            wrong.append(key)
    return wrong


def _read_manifest(path: Path) -> dict:
    """A sweep manifest with every key ``report`` reads, of the JSON type it reads."""
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise IOError(f"malformed manifest {path}: {exc}")
    if not isinstance(manifest, dict):
        raise IOError(f"malformed manifest {path}: expected a JSON object")
    missing = [key for key in MANIFEST_KEYS if key not in manifest]
    if missing:
        raise IOError(f"malformed manifest {path}: missing {', '.join(missing)}")
    for key in ("rho_grid", "gamma_grid"):
        if not isinstance(manifest[key], list) or any(type(v) not in NUMBER for v in manifest[key]):
            raise IOError(f"malformed manifest {path}: {key} is not a list of numbers")
    if not isinstance(manifest["cells"], list):
        raise IOError(f"malformed manifest {path}: cells is not a list")
    if not manifest["cells"]:
        raise IOError(f"{path} lists no cells")
    for i, cell in enumerate(manifest["cells"]):
        missing = [key for key in CELL_KEYS if not isinstance(cell, dict) or key not in cell]
        if missing:
            raise IOError(f"malformed manifest {path}: cell {i} lacks {', '.join(missing)}")
        wrong = _wrong_cell_fields(cell)
        if wrong:
            raise IOError(f"malformed manifest {path}: cell {i}: wrong type for {', '.join(wrong)}")
    return manifest


def cmd_report(args) -> int:
    indir = Path(args.input)
    manifest_path = indir / "manifest.json"
    if not manifest_path.exists():
        raise IOError(f"no manifest.json in {indir}")
    manifest = _read_manifest(manifest_path)
    cells = manifest["cells"]
    outdir = Path(args.output) if args.output else indir
    outdir.mkdir(parents=True, exist_ok=True)

    plot_seed = min(cell["seed"] for cell in cells)
    # Every trace is checked against its digest; only the plotted seed's k and dis are parsed.
    traces = {}
    for cell in cells:
        if cell.get("trace"):
            path = indir / cell["trace"]
            if not path.exists():
                raise IOError(f"missing trace file {path}")
            plotted = cell["seed"] == plot_seed
            try:
                if cell.get("trace_sha256") is None:
                    raise ValueError("the manifest records no trace_sha256 for it")
                data = read_trace_csv(path, ("k", "dis") if plotted else (), cell["trace_sha256"])
            except ValueError as exc:  # includes UnicodeDecodeError
                raise IOError(f"malformed trace file {path}: {exc}")
            if plotted:
                traces[(cell["rho"], cell["gamma"])] = (data["k"], data["dis"])
    rho_grid = manifest["rho_grid"]
    gamma_grid = manifest["gamma_grid"]

    def series_for(fixed: str, value: float) -> list:
        out = []
        varying = rho_grid if fixed == "gamma" else gamma_grid
        for v in varying:
            key = (v, value) if fixed == "gamma" else (value, v)
            if key not in traces:
                continue
            label = f"rho={v:g}" if fixed == "gamma" else f"gamma={v:g}"
            out.append((label, *traces[key]))
        return out

    written = 0
    for gamma in gamma_grid:
        svg = outdir / f"fixed_gamma{gamma:g}.svg"
        line_plot_svg(svg, series_for("gamma", gamma), title=f"gamma={gamma:g}, seed {plot_seed}")
        written += 1
    for rho in rho_grid:
        svg = outdir / f"fixed_rho{rho:g}.svg"
        line_plot_svg(svg, series_for("rho", rho), title=f"rho={rho:g}, seed {plot_seed}")
        written += 1

    lines = ["rho gamma seed status sigma dis_rate phi_rate within_bound"]
    for cell in cells:
        cert = cell.get("certificate") or {}
        sigma = cert.get("sigma")
        phi_rate = (cell.get("phi_rate") or {}).get("rate")
        dis_rate = (cell.get("dis_rate") or {}).get("rate")
        within = ""
        if sigma is not None and phi_rate is not None and cert.get("passed"):
            within = "yes" if phi_rate <= sigma + 0.02 else "NO"
        lines.append(
            f"{cell['rho']:g} {cell['gamma']:g} {cell['seed']} {cell['status']} "
            f"{'' if sigma is None else repr(sigma)} "
            f"{'' if dis_rate is None else format(dis_rate, '.6g')} "
            f"{'' if phi_rate is None else format(phi_rate, '.6g')} {within}"
        )
    table = "\n".join(lines) + "\n"
    (outdir / "rates.txt").write_text(table, encoding="utf-8")
    print(table, end="")
    print(f"report: wrote {written} SVG files to {outdir}")
    return EXIT_OK


# -- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jprox",
        description="Parallel proximal multi-block ADMM: generate, certify, solve, sweep, report.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate a seeded instance file")
    gen.add_argument("kind", choices=list(GENERATORS))
    gen.add_argument("--N", type=int, required=True, help="number of blocks")
    gen.add_argument("--m", type=int, default=1, help="constraint rows (lcqp)")
    gen.add_argument("--n", type=int, default=1, help="per-block dimension (lcqp)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", default="instance.npz")

    def parameter_flags(p):
        p.add_argument("--rho", type=float, default=1.0)
        p.add_argument("--gamma", type=float, default=1.0)
        p.add_argument("--policy", choices=[*WEIGHT_POLICIES, "none"],
                       default=StandardProximal.kind)
        p.add_argument("--tau", default="auto",
                       help="positive number, or 'auto' for certified weights")

    cer = sub.add_parser("certify", help="certify (rho, gamma, policy) for an instance")
    cer.add_argument("--input", required=True)
    cer.add_argument("--output", default="certificate.json")
    parameter_flags(cer)

    sol = sub.add_parser("solve", help="run a solver and write a CSV trace")
    sol.add_argument("--input", required=True)
    sol.add_argument("--output", default="trace.csv")
    sol.add_argument("--method", choices=list(METHODS), default="jprox")
    sol.add_argument("--u0", choices=["zeros", "reference"], default="zeros")
    sol.add_argument("--plot", action="store_true")
    parameter_flags(sol)
    sol.add_argument("--max-iters", dest="max_iters", type=int, default=4000)
    sol.add_argument("--tol", type=float, default=1e-10)

    swp = sub.add_parser("sweep", help="run a (rho, gamma) grid campaign")
    swp.add_argument("--input", required=True)
    swp.add_argument("--output", default="sweep")
    swp.add_argument("--seeds", default="",
                     help="comma-separated seeds to run, in place of the instance's own "
                          "seed (default: the instance's seed only)")
    swp.add_argument("--rho-grid", dest="rho_grid", default="")
    swp.add_argument("--gamma-grid", dest="gamma_grid", default="")
    swp.add_argument("--max-iters", dest="max_iters", type=int, default=4000)

    rep = sub.add_parser("report", help="render SVGs and a rate table from a sweep directory")
    rep.add_argument("--input", required=True)
    rep.add_argument("--output", default="")
    return parser


def _validate_tau(args) -> None:
    tau = getattr(args, "tau", None)
    if tau is None or tau == "auto":
        return
    try:
        value = float(tau)
    except ValueError:
        _fail_flags("invalid --tau: expected a number or 'auto'")
    args.tau = _positive(value, "--tau")


COMMANDS = {
    "generate": cmd_generate,
    "certify": cmd_certify,
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def main(argv=None) -> int:
    """Run the command line ``argv`` and return its exit code, argparse's own included.

    With ``argv=None`` it reads ``sys.argv`` and exits the process with the code.
    """
    try:
        args = build_parser().parse_args(argv)
        _validate_tau(args)
        code = COMMANDS[args.command](args)
    except SystemExit as exc:  # argparse's own exit: 2 for a bad flag, 0 for --help
        code = exc.code
    except FlagError as exc:
        print(str(exc), file=sys.stderr)
        code = EXIT_FLAGS
    except (IOError, OSError, json.JSONDecodeError) as exc:
        print(str(exc), file=sys.stderr)
        code = EXIT_IO
    except JproxError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        code = EXIT_IO
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
