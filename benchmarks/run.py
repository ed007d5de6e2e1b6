"""jprox benchmark: seeded, closed-loop CLI sessions.

Usage (from the root of a checkout):

    python3 benchmarks/run.py --workload lcqp-pipeline --seed 0 --seconds 60 --trace 0

Each session is one fresh Python child (``session.py``) that runs the
workload's CLI commands one after another, with ``JPROX_THREADS`` unset so
the sweep uses its default pool. This parent never imports ``jprox``: it
writes the child's plan, times it from spawn, and checks the files the
session left behind (``checks.py``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` runs one untraced session (plus a serial sweep with
``JPROX_THREADS=1``) and one traced session, and reports the per-module
metrics of ``tracer.py``. The last line of standard output is one JSON
object; the lines before it list every metric with its unit, the output
checks, the result digest and the environment. ``README.md`` beside this
file says why each workload exists and which metric each module should move.
"""

from __future__ import annotations

import argparse
import compileall
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from tracer import TARGETS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: A run stops at this many seconds whatever --seconds asks for.
RUN_LIMIT_S = 170.0
#: An untraced run times at least this many sessions and reports medians.
MIN_SESSIONS = 2
#: Set-up (spawn, import, generate) is timed this many times per run.
SETUP_SAMPLES = 7

METHODS = ("jprox", "jacobi-plain", "gauss-seidel", "dual-decomp")
#: The default sweep grid of an instance with fewer than 10 blocks.
RHO_GRID = (0.03, 1.0, 5.0, 10.0)
GAMMA_GRID = (0.1, 0.5, 1.5, 1.9)
GRID_CELLS = len(RHO_GRID) * len(GAMMA_GRID)

#: ra-pipeline is not listed in BENCHMARK.json: its session time varies by a
#: factor of two between seeds (see README.md), so it is run by hand.
WORKLOADS = {
    "lcqp-pipeline": {"session": "pipeline",
                      "generate": ["lcqp", "--N", "3", "--m", "100", "--n", "40"]},
    "ra-pipeline": {"session": "pipeline", "generate": ["ra", "--N", "6"]},
    "certify-grid": {"session": "certify-grid",
                     "generate": ["lcqp", "--N", "3", "--m", "400", "--n", "150"]},
}
#: Sizes for the smoke check, which asserts the output's shape, not timings.
TINY = {
    "lcqp-pipeline": ["lcqp", "--N", "3", "--m", "6", "--n", "3"],
    "ra-pipeline": ["ra", "--N", "3"],
    "certify-grid": ["lcqp", "--N", "3", "--m", "12", "--n", "5"],
}
TINY_ITERS = ["--max-iters", "100"]

END_TO_END = (("setup_s", "s"), ("total_s", "s"), ("peak_rss_mb", "MB"))
#: Summed wall time of each kind of command in a session. Printed beside the
#: end-to-end metrics and reported with the per-module ones: they are 0 on a
#: workload that does not run the command, and one ~0.1 s certify call of a
#: pipeline is too short to time steadily on a shared machine.
COMMAND_METRICS = (("certify_s", "certify"), ("solve_s", "solve"), ("sweep_s", "sweep"),
                   ("report_s", "report"))


class BenchError(Exception):
    """The benchmark could not run or the program could not be started."""


def per_layer_names() -> list:
    """(name, unit) of every per-module metric, in report order."""
    out = []
    for name, *_ in TARGETS:
        out += [(f"{name}.s", "s"), (f"{name}.self_s", "s"), (f"{name}.calls", "count")]
    out += [
        ("solvers.iterations", "count"), ("solvers.us_per_iter", "us"),
        ("certify.eigs_per_tau", "ratio"),
        ("experiments.sweep_cpu_util", "ratio"), ("experiments.pool_speedup", "ratio"),
        ("experiments.cells_error", "count"), ("cli.trace_rows", "count"),
        ("trace.overhead_s", "s"),
    ]
    out += [(metric, "s") for metric, _ in COMMAND_METRICS] + [("failed_frac", "ratio")]
    return out


# -- session plans ----------------------------------------------------------------

def session_plan(workload: str, seed: int, tiny: bool) -> list:
    spec = WORKLOADS[workload]
    gen = ["generate"] + (TINY[workload] if tiny else spec["generate"])
    cmds = [{"name": "generate", "role": "generate",
             "argv": gen + ["--seed", str(seed), "--output", "instance.json"]}]
    iters = TINY_ITERS if tiny else []
    if spec["session"] == "certify-grid":
        for rho in RHO_GRID:
            for gamma in GAMMA_GRID:
                out = f"cert_rho{rho:g}_gamma{gamma:g}.json"
                cmds.append({"name": f"certify rho={rho:g} gamma={gamma:g}", "role": "certify",
                             "output": out,
                             "argv": ["certify", "--input", "instance.json", "--rho", repr(rho),
                                      "--gamma", repr(gamma), "--tau", "auto", "--output", out]})
        return cmds
    cmds.append({"name": "certify", "role": "certify", "output": "cert.json",
                 "argv": ["certify", "--input", "instance.json", "--tau", "auto",
                          "--output", "cert.json"]})
    for method in METHODS:
        out = f"solve_{method}.csv"
        plot = method == "jprox"
        cmds.append({"name": f"solve {method}", "role": "solve", "output": out, "plot": plot,
                     "method": method,
                     "argv": ["solve", "--input", "instance.json", "--method", method,
                              "--output", out] + (["--plot"] if plot else []) + iters})
    cmds.append({"name": "sweep", "role": "sweep", "output": "sweep",
                 "argv": ["sweep", "--input", "instance.json", "--output", "sweep"] + iters})
    cmds.append({"name": "report", "role": "report", "output": "report",
                 "argv": ["report", "--input", "sweep", "--output", "report"]})
    return cmds


def serial_sweep_cmd(tiny: bool) -> dict:
    return {"name": "sweep-serial", "role": "sweep", "output": "sweep_serial", "extra": True,
            "env": {"JPROX_THREADS": "1"},
            "argv": ["sweep", "--input", "instance.json", "--output", "sweep_serial"]
            + (TINY_ITERS if tiny else [])}


# -- child processes --------------------------------------------------------------

class Runner:
    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.count = 0

    def spawn(self, commands: list, trace: bool = False, env_record: bool = False) -> dict:
        """Run one child session; return its result with ``spawn`` and ``dir`` added."""
        self.count += 1
        wd = self.workdir / f"child{self.count}"
        wd.mkdir(parents=True)
        plan = {"src": str(SRC), "workdir": str(wd), "commands": commands, "trace": trace,
                "env_record": env_record, "spans_path": str(wd / "spans.json")}
        (wd / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        env = dict(os.environ)
        env.pop("JPROX_THREADS", None)
        env["PYTHONPATH"] = str(SRC)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"run limit of {RUN_LIMIT_S:g} s reached")
        spawn = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "session.py"), str(wd / "plan.json"),
                 str(wd / "result.json")],
                cwd=wd, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"session child passed the run limit of {RUN_LIMIT_S:g} s")
        if proc.returncode != 0 or not (wd / "result.json").is_file():
            raise BenchError(f"session child exited {proc.returncode}: {proc.stderr[-2000:]}")
        result = json.loads((wd / "result.json").read_text(encoding="utf-8"))
        result["spawn"] = spawn
        result["dir"] = wd
        for cmd, rec in zip(commands, result["commands"]):
            rec["extra"] = bool(cmd.get("extra"))
        return result


def setup_s(result: dict) -> float:
    return result["commands"][0]["end"] - result["spawn"]


def session_times(result: dict) -> dict:
    recs = [r for r in result["commands"] if not r["extra"]]
    times = {"total_s": recs[-1]["end"] - recs[0]["end"], "peak_rss_mb": result["peak_rss_mb"]}
    for metric, cmd in COMMAND_METRICS:
        times[metric] = sum((r["end"] - r["start"] for r in recs if r["argv"][0] == cmd), 0.0)
    return times


def check_session(commands: list, result: dict):
    """Check one session's outputs.

    Returns (operations of the session, operations of extra commands, digest
    lines of the session, digest lines of extra commands).
    """
    ops, extra_ops, lines, extra_lines = [], [], [], []
    cert, cells = None, 0
    wd = result["dir"]
    for cmd, rec in zip(commands, result["commands"]):
        role = cmd["role"]
        if role == "generate":
            o, l = checks.check_generate(rec, wd, "instance.json")
        elif role == "certify":
            o, l, c = checks.check_certify(rec, wd, cmd["output"], cmd["name"])
            cert = c if cert is None else cert
        elif role == "solve":
            sigma = checks.sigma_of(cert) if cmd["method"] == "jprox" else None
            o, l = checks.check_solve(rec, wd, cmd["output"], cmd["plot"], sigma)
        elif role == "sweep":
            o, l, n = checks.check_sweep(rec, wd, cmd["output"], GRID_CELLS)
            cells = cells if cmd.get("extra") else n
        else:
            o, l = checks.check_report(rec, wd, cmd["output"], cells)
        (extra_ops if cmd.get("extra") else ops).extend(o)
        (extra_lines if cmd.get("extra") else lines).extend(l)
    return ops, extra_ops, lines, extra_lines


# -- environment ------------------------------------------------------------------

def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def cpu_steal_s() -> float:
    """CPU time the hypervisor has taken from this machine, summed over its
    CPUs (Linux ``/proc/stat``; 0 where it cannot be read). A run records how
    much grew while it ran, because on a shared host it explains slow runs."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            return int(stat.readline().split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return 0.0


def environment(seed: int, child_env: dict) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return "absent"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": child_env.get("numpy", version("numpy")),
        "scipy": child_env.get("scipy", version("scipy")),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset"),
        "blas_threads": child_env.get("blas_threads", {}),
        "JPROX_THREADS": "unset in the sessions (parent had "
                         + os.environ.get("JPROX_THREADS", "unset") + ")",
        "git_commit": git_commit(),
        "seed": seed,
    }


# -- runs -------------------------------------------------------------------------

def measure(runner: Runner, plan: list, seconds: float):
    """Untraced sessions of one instance: at least ``MIN_SESSIONS``, and more
    while the next one is expected to end within ``seconds``. Then set-up
    samples. Returns the session results and the set-up times."""
    runner.spawn([])  # warm-up: fills the file cache for the imports; not timed
    sessions = []
    start = time.monotonic()
    while True:
        sessions.append(runner.spawn(plan, env_record=not sessions))
        used = time.monotonic() - start
        if len(sessions) >= MIN_SESSIONS and used * (len(sessions) + 1) / len(sessions) > seconds:
            break
    setups = [setup_s(result) for result in sessions]
    while len(setups) < SETUP_SAMPLES:
        setups.append(setup_s(runner.spawn(plan[:1])))
    return sessions, setups


def per_layer(traced: dict, untraced: dict, t_times: dict, u_times: dict) -> dict:
    totals = {}
    for agg in traced["aggregates"]:
        entry = totals.setdefault(agg["name"], [0, 0.0, 0.0])
        entry[0] += agg["calls"]
        entry[1] += agg["s"]
        entry[2] += agg["self_s"]
    metrics = {}
    for name, *_ in TARGETS:
        calls, secs, self_secs = totals.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.s"] = secs
        metrics[f"{name}.self_s"] = self_secs
        metrics[f"{name}.calls"] = calls
    counters = traced["counters"]
    iters = counters["solvers.iterations"]
    metrics["solvers.iterations"] = iters
    metrics["solvers.us_per_iter"] = 1e6 * metrics["solvers.run.s"] / iters if iters else 0.0
    taus = metrics["certify.smallest_certified_tau.calls"]
    eigs = sum(a["calls"] for a in traced["aggregates"]
               if a["name"] == "linalg.min_eigenvalue_sym"
               and a["parent"] == "certify.smallest_certified_tau")
    metrics["certify.eigs_per_tau"] = eigs / taus if taus else 0.0
    sweeps = {r["name"]: r for r in untraced["commands"] if r["argv"][0] == "sweep"}
    if "sweep" in sweeps:
        wall = sweeps["sweep"]["end"] - sweeps["sweep"]["start"]
        serial = sweeps["sweep-serial"]["end"] - sweeps["sweep-serial"]["start"]
        metrics["experiments.sweep_cpu_util"] = sweeps["sweep"]["cpu_s"] / wall
        metrics["experiments.pool_speedup"] = serial / wall
    else:
        metrics["experiments.sweep_cpu_util"] = 0.0
        metrics["experiments.pool_speedup"] = 0.0
    metrics["experiments.cells_error"] = counters["experiments.cells_error"]
    metrics["cli.trace_rows"] = counters["cli.trace_rows"]
    metrics["trace.overhead_s"] = t_times["total_s"] - u_times["total_s"]
    for metric, _ in COMMAND_METRICS:
        metrics[metric] = u_times[metric]
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    if not (SRC / "jprox" / "cli.py").is_file():
        raise BenchError(f"no program to measure: {SRC / 'jprox' / 'cli.py'} is missing")
    compileall.compile_dir(str(SRC / "jprox"), quiet=1)
    plan = session_plan(workload, seed, tiny)
    workdir = WORK / f"{workload}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    runner = Runner(workdir, time.monotonic() + RUN_LIMIT_S)
    steal = cpu_steal_s()
    try:
        if trace:
            u_plan = plan + ([serial_sweep_cmd(tiny)] if any(c["role"] == "sweep" for c in plan)
                             else [])
            runner.spawn([])  # warm-up, as in an untraced run
            untraced = runner.spawn(u_plan, env_record=True)
            traced = runner.spawn(plan, trace=True)
            checked = [(u_plan, untraced, True), (plan, traced, False)]
        else:
            sessions, setups = measure(runner, plan, seconds)
            checked = [(plan, result, True) for result in sessions]
        # failed_frac counts the untraced sessions only, without the serial sweep.
        ops, frac_ops, mismatches, digest_lines, samples = [], [], [], None, {}
        for cmds, result, untraced_session in checked:
            s_ops, x_ops, lines, x_lines = check_session(cmds, result)
            ops += s_ops + x_ops
            if untraced_session:
                frac_ops += s_ops
            if digest_lines is None:
                digest_lines = lines
            elif lines != digest_lines:
                mismatches.append("two sessions of one seed gave different results")
            cells = [l for l in lines if l.startswith("rho=")]
            if x_lines and [l for l in x_lines if l.startswith("rho=")] != cells:
                mismatches.append("serial sweep cells differ from the default sweep's")
        env = environment(seed, checked[0][1].get("env", {}))
        env["cpu_steal_s"] = cpu_steal_s() - steal
        if trace:
            u_times, t_times = session_times(untraced), session_times(traced)
            metrics = per_layer(traced, untraced, t_times, u_times)
            OUT.mkdir(exist_ok=True)
            shutil.copyfile(traced["dir"] / "spans.json",
                            OUT / f"spans-{workload}-seed{seed}.json")
        else:
            times = [session_times(result) for result in sessions]
            metrics = {"setup_s": statistics.median(setups)}
            samples = {"setup_s": setups, "total_s": [t["total_s"] for t in times]}
            for name in ("total_s", "peak_rss_mb") + tuple(m for m, _ in COMMAND_METRICS):
                metrics[name] = statistics.median(t[name] for t in times)
        metrics["failed_frac"] = sum(not op.ok for op in frac_ops) / len(frac_ops)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "digest": checks.digest(digest_lines), "digest_lines": digest_lines,
            "metrics": metrics, "samples": samples, "ops": ops, "mismatches": mismatches,
            "sessions": len(checked), "setup_samples": 0 if trace else len(setups)}


def report(res: dict) -> dict:
    """Print the human-readable lines and return the final JSON object."""
    units = dict(per_layer_names()) if res["trace"] else \
        dict(END_TO_END + tuple((m, "s") for m, _ in COMMAND_METRICS) + (("failed_frac", "ratio"),))
    reported = dict(per_layer_names()) if res["trace"] else dict(END_TO_END)
    ops = res["ops"]
    failed = [op for op in ops if not op.ok]
    print(f"workload {res['workload']} seed {res['seed']} trace {int(res['trace'])}: "
          f"{res['sessions']} session(s), {res['setup_samples']} set-up sample(s)")
    for name, unit in units.items():
        print(f"  {name} = {res['metrics'][name]!r} {unit}")
    for name, values in res["samples"].items():
        print(f"  {name} samples ({len(values)}): {' '.join(f'{v:.4f}' for v in values)}")
    print(f"  operations: {len(ops)} attempted, {len(failed)} failed")
    for op in failed:
        print(f"    FAILED {op.name} ({op.kind}): {'; '.join(op.problems)}")
    for why in res["mismatches"]:
        print(f"    MISMATCH {why}")
    print(f"  digest {res['digest']}")
    print(f"  env {json.dumps(res['env'], sort_keys=True)}")
    correct = not res["mismatches"] and all(op.kind != "check" for op in failed)
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {name: {"value": res["metrics"][name], "unit": unit}
                    for name, unit in reported.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-check sizes; timings are meaningless")
    args = parser.parse_args(argv)
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace), args.tiny)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    summary = report(res)
    OUT.mkdir(exist_ok=True)
    record = {k: v for k, v in res.items() if k != "ops"}
    record["failed_ops"] = [{"name": op.name, "kind": op.kind, "problems": op.problems}
                            for op in res["ops"] if not op.ok]
    record["result"] = summary
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str), encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
