"""One benchmark session, run in a fresh child process by ``run.py``.

Usage: python3 session.py PLAN.json RESULT.json

The plan lists CLI argument vectors. They run one after another (a closed
loop with one client) through ``jprox.cli.main`` in this process, so the
interpreter start, ``import jprox`` and the first command (``generate``)
make up the set-up that ``run.py`` times from the moment it spawned us.
Each command's start and end are taken on the system-wide monotonic
clock, so the parent can subtract its own spawn time.

With ``"trace": true`` the public functions of every module are wrapped
(see ``tracer.py``) before the first command runs, and the spans are
written to the plan's ``spans_path`` when the session ends.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_threads() -> dict:
    """Threads of the OpenBLAS copies bundled with numpy and scipy, if found."""
    import ctypes
    import glob

    import numpy
    import scipy

    found = {}
    for pkg in (numpy, scipy):
        libs = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in glob.glob(str(libs / "lib*openblas*")):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                        "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def _run_command(cli, argv, tracer) -> dict:
    out, err = io.StringIO(), io.StringIO()
    span = tracer.span("cli." + argv[0]) if tracer else contextlib.nullcontext()
    start, cpu0 = time.monotonic(), time.process_time()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), span:
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects flags by exiting
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the session must go on; the traceback is kept as the outcome
        code = "exception: " + traceback.format_exc(limit=3).strip().splitlines()[-1]
        err.write(traceback.format_exc())
    end, cpu1 = time.monotonic(), time.process_time()
    lines = out.getvalue().strip().splitlines()
    return {"argv": argv, "code": code, "start": start, "end": end, "cpu_s": cpu1 - cpu0,
            "stdout_last": lines[-1] if lines else "", "stderr": err.getvalue()[-2000:]}


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    tracer = None
    if plan.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
    import jprox
    import jprox.cli as cli

    src = Path(plan["src"]).resolve()
    if src not in Path(jprox.__file__).resolve().parents:
        print(f"jprox imported from {jprox.__file__}, not from {src}", file=sys.stderr)
        return 2
    if tracer is not None:
        tracer.install()

    os.chdir(plan["workdir"])
    commands = []
    for cmd in plan["commands"]:
        saved = {key: os.environ.get(key) for key in cmd.get("env", {})}
        os.environ.update(cmd.get("env", {}))
        try:
            record = _run_command(cli, cmd["argv"], tracer)
        finally:
            for key, value in saved.items():
                if value is None:
                    os.environ.pop(key, None)
                else:
                    os.environ[key] = value
        record["name"] = cmd["name"]
        commands.append(record)

    result = {"commands": commands,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if plan.get("env_record"):
        import numpy
        import scipy

        result["env"] = {"numpy": numpy.__version__, "scipy": scipy.__version__,
                         "blas_threads": _blas_threads()}
    if tracer is not None:
        exported = tracer.export()
        Path(plan["spans_path"]).write_text(json.dumps(exported), encoding="utf-8")
        result["aggregates"] = exported["aggregates"]
        result["counters"] = exported["counters"]
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        print(__doc__.splitlines()[2], file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1], sys.argv[2]))
