"""The same-outputs tool (``tools/same_outputs.py``): what it normalizes, and one tree on both
sides matching in every command and file."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def tool():
    path = ROOT / "tools" / "same_outputs.py"
    spec = importlib.util.spec_from_file_location("same_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_pair(tmp_path, name, a, b):
    (tmp_path / "a").mkdir(exist_ok=True)
    (tmp_path / "b").mkdir(exist_ok=True)
    for side, data in (("a", a), ("b", b)):
        path = tmp_path / side / name
        if isinstance(data, dict):
            with open(path, "wb") as fh:
                np.savez(fh, **data)
        else:
            path.write_bytes(data.encode() if isinstance(data, str) else data)
    return tmp_path / "a" / name, tmp_path / "b" / name


TRACE = "k,dis,phi,primal_residual,elapsed_seconds\n0,1,,0.5,{}\n1,0.5,,0.25,{}\n"


@pytest.mark.parametrize("name, a, b, verdict", [
    ("t.csv", TRACE.format(0.1, 0.2), TRACE.format(0.3, 0.4), "match"),
    ("t.csv", TRACE.format(0.1, 0.2), TRACE.format(0.1, 0.2).replace("0.5,,", "0.75,,"),
     "last k 1 / 1; dis max diff 0.25 of max(dis_0, dis_k)"),
    ("t.csv", TRACE.format(0.1, 0.2), TRACE.format(0.1, 0.2) + "2,0.1,,0.1,0.3\n",
     "last k 1 / 2"),
    # A round-off move near the optimum: 0.0193 relative to the row, 2e-13 of dis_0.
    ("t.csv", TRACE.format(0.1, 0.2).replace("0.5,,", "1.04e-11,,"),
     TRACE.format(0.1, 0.2).replace("0.5,,", "1.06e-11,,"),
     "last k 1 / 1; dis max diff 2e-13 of max(dis_0, dis_k)"),
    ("t.csv", TRACE.format(0.1, 0.2), TRACE.format(0.1, 0.2).replace("1,0.5,,", "1,,,"),
     "last k 1 / 1; dis max diff inf of max(dis_0, dis_k)"),
    ("manifest.json", json.dumps({"cells": [{"status": "x", "wall_s": 1.0, "timings": {"a": 1},
                                             "trace_sha256": "ab"}]}),
     json.dumps({"cells": [{"status": "x", "wall_s": 2.0, "timings": {"a": 2},
                            "trace_sha256": "cd"}]}), "match"),
    ("manifest.json", json.dumps({"cells": [{"status": "x"}]}),
     json.dumps({"cells": [{"status": "y"}]}), "differs: cell 0 status"),
    ("manifest.json", json.dumps({"cells": [{"seed": 0, "status": "x", "wall_s": 1.0,
                                             "certificate": {"rho": 1, "gamma": 2}}]}),
     json.dumps({"cells": [{"seed": 0, "wall_s": 2.0, "status": "x",
                            "certificate": {"gamma": 2, "rho": 1}}]}),
     "differs: cell 0 key order"),
    ("i.npz", {"A": np.ones(2), "P": np.zeros(2)}, {"A": np.ones(2)}, "member P.npy only in a"),
    ("i.npz", {"A": np.ones(2)}, {"A": np.zeros(2)}, "member A.npy differs"),
    ("rates.txt", "rho gamma\n", "rho gamma\n", "match"),
    ("rates.txt", "rho gamma\n", "rho  gamma\n", "differs"),
], ids=["trace-elapsed", "trace-dis", "trace-rows", "trace-dis-at-round-off",
        "trace-dis-on-one-side", "manifest-times", "manifest-status", "manifest-key-order",
        "archive-member-only-in-a", "archive-member-differs", "text-same", "text-differs"])
def test_compare_file_normalizes_only_times_and_zip_timestamps(tmp_path, tool, name, a, b,
                                                               verdict):
    assert tool.compare_file(name, *write_pair(tmp_path, name, a, b)) == verdict


def test_archives_that_differ_only_in_timestamps_match(tmp_path, tool):
    # np.savez stamps each member with the time it was written.
    import zipfile

    a, b = write_pair(tmp_path, "i.npz", {"A": np.arange(3.0)}, b"")
    with zipfile.ZipFile(a) as src, zipfile.ZipFile(b, "w") as dst:
        for info in src.infolist():
            dst.writestr(zipfile.ZipInfo(info.filename, (1999, 1, 1, 0, 0, 0)),
                         src.read(info.filename))
    assert a.read_bytes() != b.read_bytes()
    assert tool.compare_file("i.npz", a, b) == "match"


def test_one_tree_on_both_sides_matches_everything(tmp_path, tool, capsys):
    assert tool.main([str(ROOT), str(ROOT), "--quick", "--workdir", str(tmp_path / "w")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines[:-1] if not line.endswith(": match")] == []
    commands = [line for line in lines if line.startswith("command ")]
    assert any("sweep" in line for line in commands) and any("report" in line for line in commands)
    assert lines[-1].startswith(f"same_outputs: {len(commands)}/{len(commands)} commands and ")
