"""Output checks and the result digest of one benchmark session.

These checks read only the files and exit codes a session left behind and
share no code with ``jprox``: CSV and JSON are parsed here with the
standard library, and the tolerances below restate the CLI's documented
defaults. Each CLI command is one operation and so is each sweep cell; an
operation fails on an exit code outside the contract (0 = done, 5 =
diverged with its trace written), on a missing output file, on a sweep cell
with status ``error``, or on a failed output check.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

#: ``jprox solve`` stops at this ``dis`` by default (its ``--tol`` flag).
SOLVE_DIS_TOL = 1e-10
#: ``jprox sweep`` has no tolerance flag; its cells stop at this ``dis``.
SWEEP_DIS_TOL = 1e-12
#: ``jprox report`` writes one SVG per fixed gamma and one per fixed rho.
REPORT_SVGS = 8

CSV_HEADER = ["k", "dis", "phi", "primal_residual", "elapsed_seconds"]


class Op:
    """Outcome of one operation. ``kind`` is ``exit`` when only the exit
    code broke the contract and ``check`` when an output is missing or wrong."""

    def __init__(self, name: str):
        self.name = name
        self.problems = []
        self.kind = None

    def fail(self, kind: str, why: str) -> None:
        self.problems.append(why)
        if self.kind != "check":
            self.kind = kind

    @property
    def ok(self) -> bool:
        return not self.problems


def _read_trace(path: Path) -> dict:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != CSV_HEADER:
        raise ValueError(f"{path.name}: unexpected header")
    if len(rows) < 2:
        raise ValueError(f"{path.name}: no rows")
    return {
        "k": [int(r[0]) for r in rows[1:]],
        "dis": [float(r[1]) if r[1] else None for r in rows[1:]],
        "phi": [float(r[2]) if r[2] else None for r in rows[1:]],
    }


def _contraction_violation(phi, sigma: float):
    """First k with ``phi[k+1] > sigma*phi[k] + 1e-12*(1+phi[k])``, else None."""
    for k in range(len(phi) - 1):
        if phi[k + 1] > sigma * phi[k] + 1e-12 * (1.0 + phi[k]):
            return k
    return None


def _check_trace(op: Op, path: Path, status: str, tol: float, sigma=None) -> list:
    """Check one trace file; return its digest fields."""
    try:
        tr = _read_trace(path)
    except (OSError, ValueError, IndexError) as exc:
        op.fail("check", f"unreadable trace: {exc}")
        return [status, "?", "?"]
    final = tr["dis"][-1]
    if status == "converged" and (final is None or final > tol):
        op.fail("check", f"converged but final dis {final} > {tol:g}")
    if sigma is not None:
        phi = tr["phi"]
        if not phi or any(p is None for p in phi):
            op.fail("check", "certified run without a full phi column")
        else:
            k = _contraction_violation(phi, sigma)
            if k is not None:
                op.fail("check", f"phi[{k + 1}] breaks the certified contraction sigma={sigma!r}")
    return [status, str(tr["k"][-1]), "-" if final is None else f"{final:.6g}"]


def _exit_ok(op: Op, record: dict, diverged_ok: bool = False) -> bool:
    code = record["code"]
    if code == 0 or (diverged_ok and code == 5):
        return True
    op.fail("exit", f"exit code {code}: {record['stderr'].strip().splitlines()[:1]}")
    return False


def sigma_of(cert):
    return cert.get("sigma") if cert and cert.get("passed") else None


def _cert_fields(cert) -> list:
    if not cert:
        return ["nocert"]
    sigma = cert.get("sigma")
    return ["pass" if cert.get("passed") else "fail",
            "-" if sigma is None else f"{sigma:.12g}"]


def check_generate(record: dict, workdir: Path, output: str):
    op = Op("generate")
    if _exit_ok(op, record) and not (workdir / output).is_file():
        op.fail("check", f"{output} not written")
    return [op], [f"generate {record['code']}"]


def check_certify(record: dict, workdir: Path, output: str, name: str = "certify"):
    op = Op(name)
    cert = None
    if _exit_ok(op, record):
        try:
            cert = json.loads((workdir / output).read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            op.fail("check", f"certificate unreadable: {exc}")
    return [op], [" ".join([name, str(record["code"])] + _cert_fields(cert))], cert


def check_solve(record: dict, workdir: Path, output: str, plot: bool, sigma=None):
    """``sigma`` is the certified factor the run's phi column must respect."""
    op = Op(record["name"])
    fields = [record["name"], str(record["code"])]
    code = record["code"]
    path = workdir / output
    if _exit_ok(op, record, diverged_ok=True):
        if not path.is_file():
            op.fail("check", f"{output} not written (exit {code})")
        else:
            # stdout's last line is "status=<s> iters=<k> final_dis=<d>".
            words = dict(w.split("=", 1) for w in record["stdout_last"].split() if "=" in w)
            status = words.get("status", "?")
            if (code == 5) != (status == "diverged"):
                op.fail("check", f"exit {code} with status {status}")
            fields += _check_trace(op, path, status, SOLVE_DIS_TOL, sigma)
            if plot and not path.with_suffix(".svg").is_file():
                op.fail("check", "--plot wrote no SVG")
    return [op], [" ".join(fields)]


def check_sweep(record: dict, workdir: Path, outdir: str, expected_cells: int):
    op = Op(record["name"])
    ops, lines = [op], [f"{record['name']} {record['code']}"]
    manifest = None
    if _exit_ok(op, record):
        try:
            manifest = json.loads((workdir / outdir / "manifest.json").read_text(encoding="utf-8"))
        except (OSError, ValueError) as exc:
            op.fail("check", f"manifest unreadable: {exc}")
    cells = manifest.get("cells", []) if manifest else []
    if manifest is not None and len(cells) != expected_cells:
        op.fail("check", f"{len(cells)} cells, expected {expected_cells}")
    for cell in cells:
        key = f"rho={cell['rho']:g} gamma={cell['gamma']:g} seed={cell['seed']}"
        cop = Op(f"{record['name']} {key}")
        status = cell.get("status")
        cert = cell.get("certificate")
        fields = [key, str(status)]
        if status == "error":
            cop.fail("exit", f"status error: {cell.get('error')}")
        elif not cell.get("trace") or not (workdir / outdir / cell["trace"]).is_file():
            cop.fail("check", "no trace file")
        else:
            fields = [key] + _check_trace(cop, workdir / outdir / cell["trace"], status,
                                          SWEEP_DIS_TOL, sigma_of(cert))
        ops.append(cop)
        lines.append(" ".join(fields + _cert_fields(cert)))
    return ops, lines, len(cells)


def check_report(record: dict, workdir: Path, outdir: str, cells: int):
    op = Op("report")
    rows = svgs = 0
    if _exit_ok(op, record):
        rates = workdir / outdir / "rates.txt"
        if not rates.is_file():
            op.fail("check", "rates.txt not written")
        else:
            rows = len(rates.read_text(encoding="utf-8").strip().splitlines()) - 1
            if rows != cells:
                op.fail("check", f"rates.txt has {rows} rows for {cells} cells")
        svgs = len(list((workdir / outdir).glob("*.svg")))
        if svgs != REPORT_SVGS:
            op.fail("check", f"{svgs} SVG files, expected {REPORT_SVGS}")
    return [op], [f"report {record['code']} rows={rows} svgs={svgs}"]


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]
