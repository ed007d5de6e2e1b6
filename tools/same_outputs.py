#!/usr/bin/env python3
"""Run one fixed list of jprox commands on two source trees and compare every output.

    python tools/same_outputs.py TREE_A TREE_B [--quick] [--workdir DIR]

A tree is a checkout whose ``src`` directory holds the ``jprox`` package, for
example a copy of the parent commit and the working tree.  Every command runs
in a fresh process, ``python -m jprox.cli ...``, with ``PYTHONPATH`` set to the
tree's ``src``, in one directory per tree (``DIR/a`` and ``DIR/b``), so the
relative paths the outputs name are the same on both sides.

The commands generate LCQP ``(3,100,40)`` and ``(3,20,8)`` and RA ``N = 6``
instances at seeds 0 and 1; certify every default-grid cell of each with the
standard, prox-linear and no proximal policy; solve each with the four
methods; sweep each family over seeds 0 and 1, once pinned to one CPU (before
numpy loads, so its BLAS starts one thread) and once to two; and report on
each sweep.  A few ``--policy explicit`` commands check that that request
keeps its exit code.  ``--quick`` runs a short list of the same kinds on
one LCQP instance.

Compared: each command's exit code, stdout and stderr, and every file the
commands leave.  Only what is expected to differ is normalized: the
``elapsed_seconds`` column of a trace CSV; each manifest cell's ``timings``,
``wall_s`` and ``trace_sha256``; and the zip timestamps of an instance
archive, which is compared member by member.  One line per command and per
file says ``match`` or what differs; for a trace that differs, that is each
side's last ``k``, the largest ``dis`` difference over ``max(dis_0, dis_k)``
(the scale of the engine tests, so a round-off move near the optimum reads
as round-off), and every other column's largest relative difference.  The
last line is a summary.  The exit status is 0 when everything matches, else 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import zipfile
from pathlib import Path

#: Pins the process to the CPUs in ``argv[1]``, then becomes ``python -m jprox.cli argv[2:]``,
#: so numpy and its BLAS load on those CPUs only.
PINNED = ("import os, sys; os.sched_setaffinity(0, {int(c) for c in sys.argv[1].split(',')}); "
          "os.execv(sys.executable, [sys.executable, '-m', 'jprox.cli', *sys.argv[2:]])")

#: The cells of the default grids of both families' small instances.
RHO_GRID = ("0.03", "1", "5", "10")
GAMMA_GRID = ("0.1", "0.5", "1.5", "1.9")
POLICIES = ("standard", "proxlinear", "none")
METHODS = ("jprox", "jacobi-plain", "gauss-seidel", "dual-decomp")

#: Manifest cell fields that hold times or the digests of traces that hold times.
MANIFEST_TIMES = ("timings", "wall_s", "trace_sha256")


def commands(quick: bool, cpus: list) -> list:
    """``(label, argv, cpus)`` of every command, in order; ``cpus`` pins a sweep (else ``None``)."""
    if quick:
        instances = {"lcqp_3_20_8": ("lcqp", "--N", "3", "--m", "20", "--n", "8")}
        seeds, cells, iters = ("0",), [("1", "1")], ("--max-iters", "100")
        grid = ("--rho-grid", "1,5", "--gamma-grid", "0.5,1.5")
    else:
        instances = {"lcqp_3_100_40": ("lcqp", "--N", "3", "--m", "100", "--n", "40"),
                     "lcqp_3_20_8": ("lcqp", "--N", "3", "--m", "20", "--n", "8"),
                     "ra_6": ("ra", "--N", "6")}
        seeds, iters, grid = ("0", "1"), (), ()
        cells = [(rho, gamma) for rho in RHO_GRID for gamma in GAMMA_GRID]
    out = []
    files = []
    for name, flags in instances.items():
        for seed in seeds:
            path = f"{name}_s{seed}.npz"
            files.append((name, path))
            out.append((f"generate {path}", ["generate", *flags, "--seed", seed, "--output", path],
                        None))
    for name, path in files:
        stem = path[:-4]
        for rho, gamma in cells:
            for policy in POLICIES:
                cert = f"cert_{stem}_{policy}_rho{rho}_gamma{gamma}.json"
                out.append((f"certify {cert}", ["certify", "--input", path, "--rho", rho,
                                                "--gamma", gamma, "--policy", policy,
                                                "--output", cert], None))
        if name.startswith("lcqp"):
            cert = f"cert_{stem}_explicit.json"
            out.append((f"certify {cert}", ["certify", "--input", path, "--policy", "explicit",
                                            "--output", cert], None))
        runs = [(method, ["--method", method]) for method in METHODS]
        if not quick:
            runs += [("reference", ["--u0", "reference"]), ("none", ["--policy", "none"]),
                     ("proxlinear", ["--policy", "proxlinear"]), ("tau2", ["--tau", "2"])]
        for tag, extra in runs:
            trace = f"solve_{stem}_{tag}.csv"
            out.append((f"solve {trace}", ["solve", "--input", path, *extra, "--plot", *iters,
                                           "--output", trace], None))
    if not quick:
        out.append(("solve explicit", ["solve", "--input", files[0][1], "--policy", "explicit",
                                       "--output", "solve_explicit.csv"], None))
    pins = [("1cpu", cpus[:1])] + ([("2cpu", cpus[:2])] if len(cpus) >= 2 else [])
    for name in instances:
        for tag, pin in pins:
            sweep = f"sweep_{name}_{tag}"
            out.append((f"sweep {sweep}", ["sweep", "--input", f"{name}_s0.npz", "--seeds", "0,1",
                                           *grid, *iters, "--output", sweep], pin))
            out.append((f"report {sweep}", ["report", "--input", sweep,
                                            "--output", f"report_{name}_{tag}"], None))
    return out


def run_side(tree: Path, workdir: Path, cmds: list) -> list:
    """Run ``cmds`` in ``workdir`` on ``tree``: ``(exit code, stdout, stderr)`` per command."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(tree.resolve() / "src"))
    results = []
    for _, argv, pin in cmds:
        full = ([sys.executable, "-c", PINNED, ",".join(map(str, pin)), *argv] if pin
                else [sys.executable, "-m", "jprox.cli", *argv])
        done = subprocess.run(full, cwd=workdir, env=env, capture_output=True, timeout=600)
        results.append((done.returncode, done.stdout, done.stderr))
    return results


def _archive_members(path: Path) -> dict:
    with zipfile.ZipFile(path) as archive:
        return {name: archive.read(name) for name in archive.namelist()}


def _trace_columns(data: bytes) -> tuple:
    """``(header, rows)`` of a trace CSV without its ``elapsed_seconds`` column."""
    lines = data.decode("utf-8").splitlines()
    header = lines[0].split(",")
    keep = [j for j, name in enumerate(header) if name != "elapsed_seconds"]
    rows = [[row.split(",")[j] for j in keep] for row in lines[1:]]
    return [header[j] for j in keep], rows


def _relative_difference(a: str, b: str) -> float:
    if a == b:
        return 0.0
    if not a or not b:
        return math.inf
    x, y = float(a), float(b)
    return abs(x - y) / max(abs(x), abs(y))


def _scaled_dis_difference(a: list, b: list) -> float:
    """Largest ``|dis_a[k] - dis_b[k]|`` over ``max(dis_0, dis_k)`` of both sides, on the rows
    both have: the scale of the engine tests, on which a round-off move near the optimum stays
    at round-off.  ``inf`` where only one side has a value."""
    worst = 0.0
    for x, y in zip(a, b):
        if x == y:
            continue
        if "" in (x, y, a[0], b[0]):
            return math.inf
        scale = max(abs(float(v)) for v in (a[0], b[0], x, y))
        worst = max(worst, abs(float(x) - float(y)) / scale)
    return worst


def compare_file(rel: str, a: Path, b: Path) -> str:
    """``"match"``, or what differs between the two copies of output file ``rel``."""
    if not a.exists() or not b.exists():
        return f"only in {'a' if a.exists() else 'b'}"
    da, db = a.read_bytes(), b.read_bytes()
    if rel.endswith(".npz"):
        ma, mb = _archive_members(a), _archive_members(b)
        notes = [f"member {name} only in {'a' if name in ma else 'b'}"
                 for name in sorted(set(ma) ^ set(mb))]
        notes += [f"member {name} differs" for name in ma if name in mb and ma[name] != mb[name]]
        if not notes and list(ma) != list(mb):
            notes.append("member order differs")
        return "; ".join(notes) or "match"
    if rel.endswith(".csv") and da.startswith(b"k,"):
        (ha, ra), (hb, rb) = _trace_columns(da), _trace_columns(db)
        if (ha, ra) == (hb, rb):
            return "match"
        if ha != hb:
            return "header differs"
        notes = [f"last k {ra[-1][0] if ra else None} / {rb[-1][0] if rb else None}"]
        for j, name in enumerate(ha):
            if name == "dis":
                worst = _scaled_dis_difference([x[j] for x in ra], [y[j] for y in rb])
                if worst:
                    notes.append(f"dis max diff {worst:.3g} of max(dis_0, dis_k)")
                continue
            worst = max((_relative_difference(x[j], y[j]) for x, y in zip(ra, rb)), default=0.0)
            if worst:
                notes.append(f"{name} max rel diff {worst:.3g}")
        return "; ".join(notes)
    if Path(rel).name == "manifest.json":
        ja, jb = json.loads(da), json.loads(db)
        for manifest in (ja, jb):
            for cell in manifest.get("cells", []):
                for key in MANIFEST_TIMES:
                    cell.pop(key, None)
        if ja == jb:
            return "match"
        moved = [f"cell {i} {key}" for i, (x, y) in enumerate(zip(ja["cells"], jb["cells"]))
                 for key in sorted(set(x) | set(y)) if x.get(key) != y.get(key)]
        return "differs: " + (", ".join(moved[:5]) or "top-level fields")
    return "match" if da == db else "differs"


def _describe(ra: tuple, rb: tuple) -> str:
    parts = [name for name, x, y in zip(("exit", "stdout", "stderr"), ra, rb) if x != y]
    if not parts:
        return "match"
    return "differs: " + ", ".join(f"exit {ra[0]} != {rb[0]}" if p == "exit" else p for p in parts)


def compare(tree_a: Path, tree_b: Path, workdir: Path, quick: bool) -> bool:
    """Run both sides in ``workdir`` and print the comparison; ``True`` when all matches."""
    cmds = commands(quick, sorted(os.sched_getaffinity(0)))
    sides = [run_side(tree, workdir / side, cmds) for tree, side in ((tree_a, "a"), (tree_b, "b"))]
    cmd_same = 0
    for (label, _, _), ra, rb in zip(cmds, *sides):
        verdict = _describe(ra, rb)
        cmd_same += verdict == "match"
        print(f"command {label}: {verdict}")
    files = sorted({str(p.relative_to(workdir / side)) for side in "ab"
                    for p in (workdir / side).rglob("*") if p.is_file()})
    file_same = 0
    for rel in files:
        verdict = compare_file(rel, workdir / "a" / rel, workdir / "b" / rel)
        file_same += verdict == "match"
        print(f"file {rel}: {verdict}")
    print(f"same_outputs: {cmd_same}/{len(cmds)} commands and {file_same}/{len(files)} files "
          f"match ({len(cmds) - cmd_same} commands and {len(files) - file_same} files differ)")
    return cmd_same == len(cmds) and file_same == len(files)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree_a", type=Path)
    parser.add_argument("tree_b", type=Path)
    parser.add_argument("--quick", action="store_true", help="run the short command list")
    parser.add_argument("--workdir", type=Path,
                        help="keep the outputs here (a new directory); default: a temporary one")
    args = parser.parse_args(argv)
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="same_outputs_"))
    try:
        same = compare(args.tree_a, args.tree_b, workdir, args.quick)
    finally:
        if args.workdir is None:
            shutil.rmtree(workdir, ignore_errors=True)
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
