"""Command-line tests: exit codes, file formats, determinism."""

import dataclasses
import json
import zipfile

import numpy as np
import pytest
from conftest import child_pids, exit_in_worker

import jprox.experiments as exp
from jprox.cli import CSV_HEADER, main, read_trace_csv


def run_cli(*argv):
    return main(list(argv))


def read_members(path) -> dict:
    """Every member of the instance archive at ``path``."""
    with np.load(path, allow_pickle=False) as archive:
        return {name: archive[name] for name in archive.files}


def write_members(path, members: dict) -> None:
    with open(path, "wb") as fh:
        np.savez(fh, **members)


def edit_members(edit):
    """A file corruption that applies ``edit`` to the archive's member dict."""
    def corrupt(path):
        members = read_members(path)
        edit(members)
        write_members(path, members)
    return corrupt


def drop_spectra(members):
    """Remove the recorded spectra, as in an archive written before they were recorded."""
    for name in [name for name in members if name.startswith("spectra_")]:
        del members[name]


def make_instance(tmp_path, kind="lcqp", **kw):
    path = tmp_path / f"{kind}.json"
    if kind == "lcqp":
        args = ["generate", "lcqp", "--N", str(kw.get("N", 3)), "--m", str(kw.get("m", 6)),
                "--n", str(kw.get("n", 4)), "--seed", str(kw.get("seed", 0)),
                "--output", str(path)]
    else:
        args = ["generate", "ra", "--N", str(kw.get("N", 6)),
                "--seed", str(kw.get("seed", 0)), "--output", str(path)]
    assert run_cli(*args) == 0
    return path


# -- generate ---------------------------------------------------------------------

def test_generate_lcqp_writes_blocks(tmp_path):
    path = make_instance(tmp_path, "lcqp", N=3, m=10, n=4, seed=0)
    data = read_members(path)
    assert data["kind"].item() == "lcqp" and data["seed"].item() == 0
    assert sorted(k for k in data if k.startswith("A_")) == ["A_0", "A_1", "A_2"]
    assert all(data[f"H_{i}"].shape == (4, 4) and data[f"q_{i}"].shape == (4,) for i in range(3))
    assert "xstar_2" in data and data["lambdastar"].shape == (10,)


def test_generate_lcqp_takes_the_stacked_svd_once(tmp_path, count_calls, capsys):
    from jprox.linalg import smallest_singular_value_stacked

    svd = count_calls("jprox.linalg", "smallest_singular_value_stacked")
    assert run_cli("generate", "lcqp", "--N", "3", "--m", "12", "--n", "5",
                   "--output", str(tmp_path / "x.json")) == 0
    assert len(svd) == 1
    assert "c_A=" in capsys.readouterr().out
    problem = exp.generate_lcqp(3, 12, 5, 0).problem
    cached = problem.stacked_singular_value()
    fresh = smallest_singular_value_stacked(problem.A)
    assert cached.hex() == fresh.hex()


def test_generate_ra_writes_scalar_blocks(tmp_path):
    path = make_instance(tmp_path, "ra", N=6, seed=0)
    data = read_members(path)
    assert data["kind"].item() == "resource_alloc"
    assert [data[f"A_{i}"].tolist() for i in range(6)] == [[[1.0]]] * 6 and "A_6" not in data
    assert all(data[key].shape == (6,) for key in ("a", "b", "cshift", "dshift"))
    assert data["c"].tolist() == [0.0]


def test_generate_writes_exactly_the_output_path(tmp_path):
    # np.savez appends ".npz" to a path string; generate writes the path it is given.
    out = tmp_path / "instance.json"
    assert run_cli("generate", "lcqp", "--N", "2", "--m", "4", "--n", "3",
                   "--output", str(out)) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["instance.json"]
    assert zipfile.is_zipfile(out)
    assert run_cli("certify", "--input", str(out), "--tau", "auto",
                   "--output", str(tmp_path / "cert.json")) == 0


def test_generate_rejects_bad_block_count(tmp_path, capsys):
    code = run_cli("generate", "lcqp", "--N", "0", "--m", "4", "--n", "3",
                   "--output", str(tmp_path / "x.json"))
    assert code == 2
    assert "--N" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["lcqp", "ra"])
def test_generate_rejects_a_negative_seed(tmp_path, capsys, kind):
    out = tmp_path / "x.json"
    assert run_cli("generate", kind, "--N", "2", "--seed", "-1", "--output", str(out)) == 2
    assert "invalid --seed: must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_unknown_flag_exits_2(tmp_path):
    with pytest.raises(SystemExit) as info:
        run_cli("generate", "lcqp", "--N", "2", "--frobnicate", "1")
    assert info.value.code == 2



@pytest.mark.parametrize("flag, value", [("--tol", "1"), ("--max-iters", "5")])
def test_certify_has_no_run_flags(tmp_path, flag, value):
    # certify runs no solver, so it takes no stopping tolerance or iteration budget.
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    out = tmp_path / "cert.json"
    with pytest.raises(SystemExit) as info:
        run_cli("certify", "--input", str(inst), "--output", str(out), flag, value)
    assert info.value.code == 2
    assert not out.exists()

# -- certify ----------------------------------------------------------------------

def test_certify_success(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    out = tmp_path / "cert.json"
    assert run_cli("certify", "--input", str(inst), "--rho", "1", "--gamma", "1",
                   "--output", str(out)) == 0
    cert = json.loads(out.read_text())
    assert cert["passed"] is True
    assert 0.0 < cert["sigma"] < 1.0


@pytest.mark.parametrize("command, flags", [
    ("certify", ("--tau", "auto")),
    ("solve", ("--tau", "auto")),
    ("sweep", ("--max-iters", "20")),  # the 16-cell default grid
], ids=["certify", "solve", "sweep"])
def test_command_estimates_constants_once(tmp_path, count_calls, cpus, command, flags):
    cpus(1)  # sweep cells run in this process, where their calls are counted
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    edit_members(drop_spectra)(inst)
    svd = count_calls("jprox.linalg", "smallest_singular_value_stacked")
    assert run_cli(command, "--input", str(inst), *flags,
                   "--output", str(tmp_path / "out")) == 0
    assert len(svd) == 1


def test_certify_prox_linear_auto_on_one_block_at_small_gamma(tmp_path):
    # The certified weight is raised to rho*||A||^2, so the policy is PSD.
    inst = make_instance(tmp_path, "lcqp", N=1, m=6, n=3, seed=0)
    out = tmp_path / "cert.json"
    assert run_cli("certify", "--input", str(inst), "--gamma", "0.1", "--policy",
                   "proxlinear", "--output", str(out)) == 0
    assert json.loads(out.read_text())["passed"] is True


def test_certify_gamma_out_of_range(tmp_path, capsys):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=1)
    code = run_cli("certify", "--input", str(inst), "--rho", "1", "--gamma", "2.5",
                   "--output", str(tmp_path / "cert.json"))
    assert code == 4
    assert "gamma out of (0,2)" in capsys.readouterr().err


@pytest.mark.parametrize("flags, policy", [
    (("--tau", "auto"), {"kind": "none"}),
    (("--tau", "1"), {"kind": "standard", "tau": 1.0}),
    (("--policy", "explicit"), {"kind": "explicit"}),
], ids=["auto", "tau-1", "explicit"])
def test_certify_gamma_out_of_range_records_the_concrete_policy(tmp_path, flags, policy):
    # Only an "auto" request has no weights to resolve to out of (0, 2).
    inst = exp.load_instance(make_instance(tmp_path, "lcqp", N=3, m=6, n=3, seed=0))
    path = tmp_path / "explicit.json"
    exp.save_instance(dataclasses.replace(inst, proximal_source=(np.eye(3),) * 3), path)
    out = tmp_path / "cert.json"
    assert run_cli("certify", "--input", str(path), "--gamma", "2.5", *flags,
                   "--output", str(out)) == 4
    cert = json.loads(out.read_text())
    assert (cert["passed"], cert["failure"], cert["policy"]) == (False, "GammaOutOfRange", policy)


def test_certify_missing_input_exits_3(tmp_path):
    code = run_cli("certify", "--input", str(tmp_path / "nope.json"),
                   "--output", str(tmp_path / "cert.json"))
    assert code == 3


def test_certify_corrupt_input_exits_3(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = run_cli("certify", "--input", str(bad), "--output", str(tmp_path / "c.json"))
    assert code == 3


def object_member(members):
    members["q_1"] = np.array([1.0, "x", None], dtype=object)


def raw_member(path):
    # A member that is not a .npy file at all.
    members = read_members(path)
    del members["c"]
    write_members(path, members)
    with zipfile.ZipFile(path, "a") as archive:
        archive.writestr("c.npy", b"not an array")


def truncate(path):
    path.write_bytes(path.read_bytes()[:-100])


def single_array(path):
    with open(path, "wb") as fh:
        np.save(fh, np.zeros(3))


# Each JSON-era fault id names its archive counterpart: an old-format file
# (list-format), an undecodable member (bad-base64), a member whose size does
# not fit its block (byte-count), a member of the wrong rank (no-shape), a
# missing member (no-f8) and a non-finite entry (nan-q).
@pytest.mark.parametrize("corrupt, message", [
    (lambda path: path.write_text('{"N": 2, "m": 4, "blocks": []}'), "regenerate it from its seed"),
    (edit_members(object_member), "q_1: unreadable member"),
    (edit_members(lambda d: d.update(q_1=np.zeros(5))), "q_1: expected shape 3, got (5,)"),
    (edit_members(lambda d: d.update(q_1=d["q_1"][None])), "q_1: expected shape 3, got (1, 3)"),
    (edit_members(lambda d: d.pop("q_1")), "q_1: missing member"),
    (edit_members(lambda d: d["q_1"].__setitem__(0, np.nan)), "q_1: entries must be finite"),
    (edit_members(lambda d: d.update(q_1=d["q_1"].astype(np.float32))),
     "q_1: expected float64 entries, got dtype float32"),
    (edit_members(lambda d: d.update(P_1=d["P_1"][:2])), "P_1: expected shape 3 x 3"),
    (edit_members(lambda d: d.update(H_1=-d["H_1"])), "H_1: QuadraticBlock.H must be positive"),
    (raw_member, "c: not a .npy array"),
    (truncate, "not an .npz instance archive"),
    (lambda path: path.write_bytes(b"\x00" * 64), "not an .npz instance archive"),
], ids=["list-format", "bad-base64", "byte-count", "no-shape", "no-f8", "nan-q", "float32-q",
        "short-P", "indefinite-H", "raw-member", "truncated", "not-zip"])
def test_certify_malformed_payload_exits_3(tmp_path, capsys, corrupt, message):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=1)
    corrupt(inst)
    code = run_cli("certify", "--input", str(inst), "--output", str(tmp_path / "c.json"))
    err = capsys.readouterr().err
    assert code == 3
    assert f"malformed instance file {inst}: " in err and message in err


# Each JSON-era fault id names its archive counterpart: a coefficient of the
# wrong rank (list-coefficient), a file that is one array and not an archive
# (top-level-list), a coupling member that is a number (blocks-number) or an
# integer array (block-number), and a seed that is a list (seed-list).
@pytest.mark.parametrize("corrupt, message", [
    (edit_members(lambda d: d.update(a=d["a"][:, None])), "a: expected shape 3, got (3, 1)"),
    (single_array, "not an .npz instance archive"),
    (edit_members(lambda d: d.update(A_0=np.float64(1.0))), "A_0: expected shape 1 x 1, got ()"),
    (edit_members(lambda d: d.update(A_1=d["A_1"].astype(int))),
     "A_1: expected float64 entries, got dtype int"),
    (edit_members(lambda d: d.update(seed=d["seed"][None])), "seed: expected shape 0-d, got (1,)"),
    (edit_members(lambda d: d.update(seed=np.array(0.5))), "seed: expected integer entries, got dtype float64"),
    (edit_members(lambda d: d.update(kind=np.array("lp"))), "kind: unknown instance kind 'lp'"),
    (edit_members(lambda d: d["a"].__setitem__(1, -1.0)), "a: LogisticQuadBlock.a must be"),
], ids=["list-coefficient", "top-level-list", "blocks-number", "block-number", "seed-list",
        "seed-float", "unknown-kind", "negative-a"])
def test_certify_malformed_field_type_exits_3(tmp_path, capsys, corrupt, message):
    # A member of the wrong dtype or shape must not escape as a traceback.
    inst = make_instance(tmp_path, "ra", N=3, seed=0)
    corrupt(inst)
    code = run_cli("certify", "--input", str(inst), "--output", str(tmp_path / "c.json"))
    err = capsys.readouterr().err
    assert code == 3
    assert f"malformed instance file {inst}: " in err and message in err


def test_certify_auto_takes_one_gram_eigensolve_per_block(tmp_path, count_calls):
    inst = make_instance(tmp_path, "lcqp", N=3, m=12, n=5, seed=0)
    edit_members(drop_spectra)(inst)
    gram = count_calls("jprox.linalg", "gram_spectrum")
    pencil = count_calls("jprox.linalg", "generalized_max_eigenvalue")
    norms = count_calls("jprox.linalg", "spectral_norm")
    assert run_cli("certify", "--input", str(inst), "--tau", "auto",
                   "--output", str(tmp_path / "c.json")) == 0
    assert (len(gram), len(pencil), len(norms)) == (3, 0, 0)


@pytest.mark.parametrize("policy", ["standard", "proxlinear", "none"])
def test_certify_takes_no_svd_and_builds_no_coupling_matrix(tmp_path, count_calls, monkeypatch,
                                                            policy):
    # c_A comes from the Gram matrix and the coupling margins in closed form.
    inst = make_instance(tmp_path, "lcqp", N=3, m=12, n=5, seed=0)
    eigs = count_calls("jprox.linalg", "min_eigenvalue_sym")
    svd, real_svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **k: svd.append(a) or real_svd(*a, **k))
    assert run_cli("certify", "--input", str(inst), "--policy", policy,
                   "--output", str(tmp_path / "c.json")) in (0, 4)
    assert (eigs, svd) == ([], [])


def test_certify_auto_runs_the_weight_search_once(tmp_path, count_calls):
    inst = make_instance(tmp_path, "lcqp", N=3, m=12, n=5, seed=0)
    search = count_calls("jprox.certify", "smallest_certified_tau")
    assert run_cli("certify", "--input", str(inst), "--tau", "auto",
                   "--output", str(tmp_path / "auto.json")) == 0
    assert len(search) == 1
    search.clear()
    assert run_cli("certify", "--input", str(inst), "--tau", "2",
                   "--output", str(tmp_path / "two.json")) in (0, 4)
    assert search == []


def test_certify_explicit_policy_solves_one_pencil_per_block(tmp_path, count_calls):
    inst = exp.load_instance(make_instance(tmp_path, "lcqp", N=3, m=12, n=5, seed=0))
    path = tmp_path / "explicit.json"
    exp.save_instance(dataclasses.replace(inst, proximal_source=(200.0 * np.eye(5),) * 3), path)
    pencil = count_calls("jprox.linalg", "generalized_max_eigenvalue")
    assert run_cli("certify", "--input", str(path), "--policy", "explicit",
                   "--output", str(tmp_path / "c.json")) == 0
    assert len(pencil) == 3


# -- recorded spectra -------------------------------------------------------------

GRID = [(rho, gamma) for rho in (0.03, 1.0, 5.0, 10.0) for gamma in (0.1, 0.5, 1.5, 1.9)]

SPECTRA_SHAPES = {
    "lcqp-3x400x150": dict(kind="lcqp", N=3, m=400, n=150),
    "lcqp-3x100x40": dict(kind="lcqp", N=3, m=100, n=40),
    "lcqp-3x12x5": dict(kind="lcqp", N=3, m=12, n=5),
    "lcqp-wide": dict(kind="lcqp", N=3, m=4, n=6),  # m < n_i
    "ra-6": dict(kind="ra", N=6),
}


@pytest.fixture(scope="module", params=list(SPECTRA_SHAPES))
def archive_pair(request, tmp_path_factory):
    """A generated archive, and a copy of it without the recorded spectra."""
    tmp = tmp_path_factory.mktemp(request.param)
    recorded = make_instance(tmp, **SPECTRA_SHAPES[request.param])
    bare = tmp / "bare.npz"
    bare.write_bytes(recorded.read_bytes())
    edit_members(drop_spectra)(bare)
    return recorded, bare


def certificate_bytes(tmp_path, inst, *flags) -> list:
    """Exit code and certificate file of ``certify`` on ``inst`` at every default grid cell."""
    out = []
    for rho, gamma in GRID:
        path = tmp_path / "cert.json"
        code = run_cli("certify", "--input", str(inst), "--rho", repr(rho), "--gamma",
                       repr(gamma), *flags, "--output", str(path))
        out.append((rho, gamma, code, path.read_bytes()))
    return out


def test_recorded_spectra_give_the_certificates_of_computed_ones(tmp_path, archive_pair):
    recorded, bare = archive_pair
    policies = ["standard", "proxlinear"]
    if isinstance(exp.load_instance(recorded), exp.LcqpInstance):  # it stores P_i
        policies.append("explicit")
    for policy in policies:
        flags = ("--tau", "auto", "--policy", policy)
        assert certificate_bytes(tmp_path, recorded, *flags) == certificate_bytes(
            tmp_path, bare, *flags), policy


def test_recorded_spectra_are_the_computed_ones_bit_for_bit(archive_pair):
    recorded, bare = (exp.load_instance(path).problem for path in archive_pair)
    assert recorded._stacked_singular_value is not None and bare._stacked_singular_value is None
    assert recorded.stacked_singular_value().hex() == bare.stacked_singular_value().hex()
    for f, g in zip(recorded.objectives, bare.objectives):
        assert f.min_curvature.hex() == g.min_curvature.hex()
        assert f.max_curvature.hex() == g.max_curvature.hex()
    for f, g in zip(recorded.gram_spectra(), bare.gram_spectra()):
        assert list(map(float.hex, f.eigenvalues.tolist())) == list(
            map(float.hex, g.eigenvalues.tolist()))
        assert f.norm.hex() == g.norm.hex()
        assert not f.eigenvalues.flags.writeable


def swap_blocks(members):
    for name in ("A", "H", "q", "xstar", "P"):
        members[f"{name}_0"], members[f"{name}_1"] = members[f"{name}_1"], members[f"{name}_0"]


@pytest.mark.parametrize("edit", [
    lambda d: d.update(A_1=2.0 * d["A_1"]),
    lambda d: d.update(H_1=2.0 * d["H_1"]),
    swap_blocks,
], ids=["scaled-A", "scaled-H", "swapped-blocks"])
def test_edited_archive_is_certified_from_its_data(tmp_path, edit):
    # The spectra members stay as written: stale for the edited data.
    stale = make_instance(tmp_path, "lcqp", N=3, m=12, n=5, seed=0)
    flags = ("--tau", "auto")
    unedited = certificate_bytes(tmp_path, stale, *flags)
    edit_members(edit)(stale)
    bare = tmp_path / "bare.npz"
    bare.write_bytes(stale.read_bytes())
    edit_members(drop_spectra)(bare)
    edited = certificate_bytes(tmp_path, stale, *flags)
    assert edited == certificate_bytes(tmp_path, bare, *flags)
    assert edited != unedited
    problem = exp.load_instance(stale).problem
    assert problem._stacked_singular_value is None


def test_certify_on_recorded_spectra_makes_no_eigensolve(tmp_path, count_calls):
    inst = make_instance(tmp_path, "lcqp", N=3, m=12, n=5, seed=0)
    eigh = count_calls("numpy.linalg", "eigvalsh")
    gram = count_calls("jprox.linalg", "gram_spectrum")
    svd = count_calls("jprox.linalg", "smallest_singular_value_stacked")
    assert run_cli("certify", "--input", str(inst), "--tau", "auto",
                   "--output", str(tmp_path / "c.json")) == 0
    assert (len(eigh), len(gram), len(svd)) == (0, 0, 0)
    edit_members(drop_spectra)(inst)
    assert run_cli("certify", "--input", str(inst), "--tau", "auto",
                   "--output", str(tmp_path / "c.json")) == 0
    # Three curvature, three Gram and one stacked eigensolve: 2N + 1.
    assert (len(eigh), len(gram), len(svd)) == (7, 3, 1)


def test_spectra_members_cannot_pass_for_blocks(tmp_path):
    # N counts the A_i members and P_0 marks stored proximal matrices.
    inst = make_instance(tmp_path, "lcqp", N=3, m=12, n=5, seed=0)
    spectra = [name for name in read_members(inst) if name.startswith("spectra_")]
    assert spectra and not [name for name in spectra if name.startswith(("A_", "H_", "P_"))]
    edit_members(lambda d: [d.pop(f"P_{i}") for i in range(3)])(inst)
    loaded = exp.load_instance(inst)
    assert (loaded.problem.N, loaded.proximal_source) == (3, ())
    assert loaded.problem._stacked_singular_value is not None


@pytest.mark.parametrize("kind, edit, message", [
    ("lcqp", lambda d: d.update(spectra_gram=d["spectra_gram"][:-1]),
     "spectra_gram: expected shape 15, got (14,)"),
    ("lcqp", lambda d: d.update(spectra_norms=d["spectra_norms"].astype(np.float32)),
     "spectra_norms: expected float64 entries, got dtype float32"),
    ("lcqp", lambda d: d.update(spectra_c_A=np.array(np.inf)),
     "spectra_c_A: entries must be finite"),
    ("lcqp", lambda d: d["spectra_curvatures"].__setitem__((1, 0), np.nan),
     "spectra_curvatures: entries must be finite"),
    ("lcqp", lambda d: d.update(spectra_curvatures=d["spectra_curvatures"].T),
     "spectra_curvatures: expected shape 3 x 2, got (2, 3)"),
    ("lcqp", lambda d: d.pop("spectra_c_A"), "spectra_c_A: missing member"),
    ("lcqp", lambda d: d.update(spectra_sha256=np.array(1.0)),
     "spectra_sha256: expected string entries, got dtype float64"),
    ("ra", lambda d: d.update(spectra_gram=d["spectra_gram"][:, None]),
     "spectra_gram: expected shape 6, got (6, 1)"),
], ids=["short-gram", "float32-norms", "inf-c_A", "nan-curvature", "transposed-curvatures",
        "no-c_A", "float-digest", "ra-gram-rank"])
def test_malformed_spectra_under_a_matching_digest_exit_3(tmp_path, capsys, kind, edit, message):
    inst = make_instance(tmp_path, kind, N=3 if kind == "lcqp" else 6, m=12, n=5, seed=0)
    edit_members(edit)(inst)
    code = run_cli("certify", "--input", str(inst), "--output", str(tmp_path / "c.json"))
    assert code == 3
    assert f"malformed instance file {inst}: {message}" in capsys.readouterr().err


# -- solve ------------------------------------------------------------------------

def test_solve_writes_exact_header_and_converges(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    out = tmp_path / "trace.csv"
    code = run_cli("solve", "--input", str(inst), "--rho", "1", "--gamma", "1",
                   "--output", str(out), "--max-iters", "3000", "--tol", "1e-8")
    assert code == 0
    first_line = out.read_text().splitlines()[0]
    assert first_line == CSV_HEADER
    cols = read_trace_csv(out)
    assert cols["dis"][-1] <= 1e-8
    assert all(p is not None for p in cols["phi"])  # certified run records phi


def test_solve_from_reference_single_row(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=2)
    out = tmp_path / "trace.csv"
    code = run_cli("solve", "--input", str(inst), "--rho", "1", "--gamma", "1",
                   "--u0", "reference", "--output", str(out), "--tol", "1e-12")
    assert code == 0
    cols = read_trace_csv(out)
    assert len(cols["k"]) == 1
    assert cols["dis"][0] <= 1e-12


def test_solve_divergent_baseline_exits_5_and_writes_trace(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    out = tmp_path / "trace.csv"
    code = run_cli("solve", "--input", str(inst), "--rho", "5", "--gamma", "1",
                   "--method", "jacobi-plain", "--output", str(out))
    assert code == 5
    assert out.exists()
    cols = read_trace_csv(out)
    assert cols["dis"][-1] > 1e12


def test_solve_ra_with_unit_weight_exits_5_and_writes_trace(tmp_path):
    # Weight 1 lets resource allocation N=6, seed 0 blow up, with scalar solves
    # at magnitudes where the Newton tolerance is below float spacing; the run
    # must end as diverged and still write its trace.
    inst = make_instance(tmp_path, "ra", N=6, seed=0)
    out = tmp_path / "trace.csv"
    code = run_cli("solve", "--input", str(inst), "--tau", "1", "--output", str(out))
    assert code == 5
    cols = read_trace_csv(out)
    assert len(cols["k"]) >= 1


def test_solve_ra_reference_does_not_depend_on_the_solver_flags(tmp_path):
    # The reference is the instance's optimum, so the zero start sits at the
    # same distance from it whatever the run's weights; a diverging choice
    # records its whole run instead of stopping at a diverged reference.
    inst = make_instance(tmp_path, "ra", N=6, seed=0)
    rows = {}
    for name, flags, want in [("default", [], 0), ("tau1", ["--tau", "1"], 5),
                              ("none", ["--policy", "none"], None)]:
        out = tmp_path / f"{name}.csv"
        code = run_cli("solve", "--input", str(inst), "--output", str(out), *flags)
        if want is not None:
            assert code == want
        rows[name] = read_trace_csv(out)
    assert rows["default"]["dis"][0] == rows["tau1"]["dis"][0] == rows["none"]["dis"][0]
    assert len(rows["tau1"]["k"]) > 1


def test_sweep_manifest_records_cell_timings(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    sweep_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                   "--rho-grid", "1", "--gamma-grid", "0.5,1.5", "--max-iters", "100") == 0
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    for cell in manifest["cells"]:
        timings = cell["timings"]
        assert set(timings) == {"prepare", "step", "record"}
        assert all(v >= 0.0 for v in timings.values())
        assert sum(timings.values()) <= cell["wall_s"]


def test_solve_gauss_seidel_baseline(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    out = tmp_path / "gs.csv"
    code = run_cli("solve", "--input", str(inst), "--rho", "1", "--gamma", "1",
                   "--method", "gauss-seidel", "--output", str(out),
                   "--max-iters", "500", "--tol", "1e-8")
    assert code == 0
    cols = read_trace_csv(out)
    assert cols["dis"][-1] <= 1e-8


def test_solve_dual_decomposition_takes_a_step_that_does_not_diverge(tmp_path):
    # The derived step 1/L_d keeps dual ascent stable where a unit step blew up.
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=31)
    out = tmp_path / "dd.csv"
    code = run_cli("solve", "--input", str(inst), "--method", "dual-decomp",
                   "--output", str(out))
    assert code == 0
    assert np.isfinite(read_trace_csv(out)["dis"][-1])


def test_solve_dual_decomposition_converges_on_resource_allocation(tmp_path, capsys):
    inst = make_instance(tmp_path, "ra", N=6, seed=0)
    capsys.readouterr()
    code = run_cli("solve", "--input", str(inst), "--method", "dual-decomp",
                   "--output", str(tmp_path / "dd.csv"))
    assert code == 0
    assert capsys.readouterr().out.startswith("status=converged")


def test_solve_plot_writes_svg(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=3)
    out = tmp_path / "trace.csv"
    assert run_cli("solve", "--input", str(inst), "--output", str(out),
                   "--max-iters", "200", "--plot") == 0
    svg = out.with_suffix(".svg")
    assert svg.exists()
    assert svg.read_text().startswith("<svg")


def test_solve_rejects_bad_tau(tmp_path, capsys):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=3)
    code = run_cli("solve", "--input", str(inst), "--tau", "-3",
                   "--output", str(tmp_path / "t.csv"))
    assert code == 2
    assert "--tau" in capsys.readouterr().err


def test_solve_deterministic_apart_from_elapsed(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=4)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    for out in (out1, out2):
        assert run_cli("solve", "--input", str(inst), "--output", str(out),
                       "--max-iters", "100", "--tol", "1e-9") == 0
    rows1 = [line.rsplit(",", 1)[0] for line in out1.read_text().splitlines()]
    rows2 = [line.rsplit(",", 1)[0] for line in out2.read_text().splitlines()]
    assert rows1 == rows2


def test_solve_on_uncertifiable_instance_still_runs(tmp_path):
    # A block modulus at the floor: certification fails, the engine still runs.
    ra = make_instance(tmp_path, "ra", N=4, seed=0)
    data = read_members(ra)
    data["a"][0] = 1e-6
    write_members(ra, data)
    cert_out = tmp_path / "cert.json"
    assert run_cli("certify", "--input", str(ra), "--rho", "1", "--gamma", "1",
                   "--output", str(cert_out)) == 4
    cert = json.loads(cert_out.read_text())
    assert cert["failure"] == "NotStronglyConvex"
    out = tmp_path / "trace.csv"
    code = run_cli("solve", "--input", str(ra), "--rho", "1", "--gamma", "1",
                   "--output", str(out), "--max-iters", "60", "--tol", "0")
    assert code == 0
    cols = read_trace_csv(out)
    assert cols["k"][-1] == 60


BASELINES = ["jacobi-plain", "gauss-seidel", "dual-decomp"]


@pytest.mark.parametrize("method", BASELINES)
def test_solve_baseline_ignores_gamma_policy_and_tau(tmp_path, count_calls, method):
    # The baselines read neither P_i nor gamma: a gamma outside (0, 2) or a
    # weight request neither fails them nor starts the weight search.
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    search = count_calls("jprox.certify", "smallest_certified_tau")
    certs = count_calls("jprox.certify", "certify")
    rows = []
    for i, flags in enumerate([("--gamma", "1"), ("--gamma", "2.5"),
                               ("--gamma", "2.5", "--policy", "proxlinear", "--tau", "auto")]):
        out = tmp_path / f"trace{i}.csv"
        code = run_cli("solve", "--input", str(inst), "--method", method, *flags,
                       "--max-iters", "50", "--output", str(out))
        assert code in (0, 5)
        rows.append([line.rsplit(",", 1)[0] for line in out.read_text().splitlines()])
    assert rows[0] == rows[1] == rows[2]
    assert (search, certs) == ([], [])


@pytest.mark.parametrize("method", ["jprox"] + BASELINES)
def test_solve_explicit_policy_without_stored_matrices_exits_2(tmp_path, capsys, method):
    inst = make_instance(tmp_path, "ra", N=3, seed=0)
    code = run_cli("solve", "--input", str(inst), "--method", method, "--policy", "explicit",
                   "--output", str(tmp_path / "t.csv"))
    assert code == 2
    assert "--policy" in capsys.readouterr().err


@pytest.mark.parametrize("gamma", ["1", "2.5"])
def test_certify_explicit_policy_without_stored_matrices_exits_2(tmp_path, capsys, gamma):
    # The flags are checked before gamma is: a gamma outside (0, 2) does not hide them.
    inst = make_instance(tmp_path, "ra", N=3, seed=0)
    out = tmp_path / "c.json"
    code = run_cli("certify", "--input", str(inst), "--gamma", gamma, "--policy", "explicit",
                   "--output", str(out))
    assert code == 2
    assert "--policy" in capsys.readouterr().err
    assert not out.exists()


# -- sweep and report ----------------------------------------------------------------

def test_sweep_and_report_roundtrip(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    sweep_dir = tmp_path / "sweep"
    code = run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                   "--rho-grid", "0.5,1", "--gamma-grid", "0.5,1",
                   "--max-iters", "300")
    assert code == 0
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    assert len(manifest["cells"]) == 4
    for cell in manifest["cells"]:
        assert cell["trace"] is not None
        assert (sweep_dir / cell["trace"]).exists()
    report_dir = tmp_path / "report"
    assert run_cli("report", "--input", str(sweep_dir), "--output", str(report_dir)) == 0
    svgs = sorted(p.name for p in report_dir.glob("*.svg"))
    assert len(svgs) == 4  # 2 fixed-gamma + 2 fixed-rho families
    assert (report_dir / "rates.txt").exists()


def test_sweep_default_grid_has_sixteen_cells_and_eight_figures(tmp_path):
    # The default penalty/damping grids are 4 x 4; the report renders one
    # figure per fixed-damping family and one per fixed-penalty family.
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    sweep_dir = tmp_path / "sweep16"
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                   "--max-iters", "200") == 0
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    assert len(manifest["cells"]) == 16
    assert manifest["rho_grid"] == [0.03, 1.0, 5.0, 10.0]
    assert manifest["gamma_grid"] == [0.1, 0.5, 1.5, 1.9]
    report_dir = tmp_path / "report16"
    assert run_cli("report", "--input", str(sweep_dir), "--output", str(report_dir)) == 0
    assert len(list(report_dir.glob("*.svg"))) == 8


def test_report_on_empty_directory_exits_3(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("report", "--input", str(empty)) == 3


def test_report_on_missing_trace_exits_3(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    sweep_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                   "--rho-grid", "1", "--gamma-grid", "1", "--max-iters", "50") == 0
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    (sweep_dir / manifest["cells"][0]["trace"]).unlink()
    assert run_cli("report", "--input", str(sweep_dir)) == 3


def test_sweep_records_how_many_processes_ran_its_cells(tmp_path, cpus):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    rates = []
    for n, grid in ((1, "0.5,1"), (2, "0.5,1"), (2, "1")):
        cpus(n)
        sweep_dir = tmp_path / f"sweep{n}_{grid}"
        assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                       "--rho-grid", grid, "--gamma-grid", "1", "--max-iters", "50") == 0
        manifest = json.loads((sweep_dir / "manifest.json").read_text())
        assert manifest["workers"] == min(n, len(manifest["cells"]))
        if grid == "0.5,1":
            # report ignores the count: without it, rates.txt is the same.
            assert run_cli("report", "--input", str(sweep_dir)) == 0
            rates.append((sweep_dir / "rates.txt").read_text())
            del manifest["workers"]
            (sweep_dir / "manifest.json").write_text(json.dumps(manifest))
            assert run_cli("report", "--input", str(sweep_dir)) == 0
            assert (sweep_dir / "rates.txt").read_text() == rates[-1]
    assert rates[0] == rates[1]


def test_sweep_on_two_workers_writes_what_one_worker_writes(tmp_path, cpus):
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    written = []
    for n in (1, 2):
        cpus(n)
        sweep_dir = tmp_path / f"sweep{n}"
        before = child_pids()
        assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                       "--seeds", "0,1", "--max-iters", "200") == 0
        assert child_pids() <= before
        manifest = json.loads((sweep_dir / "manifest.json").read_text())
        for cell in manifest["cells"]:
            del cell["timings"], cell["wall_s"]
        del manifest["workers"], manifest["input"]
        traces = {path.name: [line.rsplit(",", 1)[0] for line in path.read_text().splitlines()]
                  for path in sweep_dir.glob("*.csv")}
        written.append((manifest, traces))
    assert len(written[0][1]) == 32
    assert written[1] == written[0]


def test_sweep_whose_worker_dies_exits_3_without_a_manifest(tmp_path, cpus, monkeypatch, capsys):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    cpus(2)
    monkeypatch.setattr(exp, "_run_cell", exit_in_worker)
    sweep_dir = tmp_path / "sweep"
    before = child_pids()
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                   "--rho-grid", "0.5,1", "--gamma-grid", "1", "--max-iters", "20") == 3
    assert "WorkerLost: a sweep worker process ended" in capsys.readouterr().err
    assert not (sweep_dir / "manifest.json").exists()
    assert child_pids() <= before


def test_report_on_a_malformed_trace_of_a_seed_it_does_not_plot_exits_3(tmp_path, capsys):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    sweep_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir), "--seeds", "0,1",
                   "--rho-grid", "1", "--gamma-grid", "1", "--max-iters", "50") == 0
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    name = next(cell["trace"] for cell in manifest["cells"] if cell["seed"] == 1)
    (sweep_dir / name).write_text(CSV_HEADER + "\n0,x,,1.0,0.0\n")
    assert run_cli("report", "--input", str(sweep_dir)) == 3
    assert name in capsys.readouterr().err


# -- flag and parse failures ------------------------------------------------------

@pytest.mark.parametrize("flag, value", [("--rho-grid", "abc"), ("--gamma-grid", "1,,2"),
                                         ("--rho-grid", "1,-2"), ("--gamma-grid", "nan"),
                                         ("--rho-grid", "1,1"), ("--gamma-grid", "0.5,0.5")])
def test_sweep_rejects_a_bad_grid(tmp_path, capsys, flag, value):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    code = run_cli("sweep", "--input", str(inst), "--output", str(tmp_path / "sweep"),
                   flag, value)
    assert code == 2
    assert f"invalid {flag}" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--rho-grid", "1,1.0000001", "values 1 and 1.0000001 both format as 1"),
    ("--gamma-grid", "0.5, 1.5, 0.500000001", "values 0.5 and 0.500000001 both format as 0.5"),
], ids=["rho", "gamma"])
def test_sweep_rejects_grid_values_that_would_share_a_file_name(tmp_path, capsys, flag, value,
                                                                message):
    # The :g text of a grid value names its trace CSVs and report SVGs.
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    code = run_cli("sweep", "--input", str(inst), "--output", str(tmp_path / "sweep"),
                   "--max-iters", "5", flag, value)
    assert code == 2
    assert f"invalid {flag}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_rejects_a_seed_listed_twice(tmp_path, capsys, monkeypatch):
    from jprox import experiments

    def no_sweep(*args, **kwargs):
        raise AssertionError("no cell may run")

    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    monkeypatch.setattr(experiments, "run_sweep", no_sweep)
    code = run_cli("sweep", "--input", str(inst), "--output", str(tmp_path / "sweep"),
                   "--seeds", "0,0,1")
    assert code == 2
    assert "invalid --seeds: seed 0 listed twice" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_rejects_a_negative_seed(tmp_path, capsys):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    code = run_cli("sweep", "--input", str(inst), "--output", str(tmp_path / "sweep"),
                   "--seeds", "1,-2")
    assert code == 2
    assert "invalid --seeds: must be at least 0" in capsys.readouterr().err
    assert not (tmp_path / "sweep").exists()


def test_sweep_rejects_extra_seeds_for_blocks_of_differing_sizes(tmp_path, capsys):
    from jprox.problem import BlockProblem, QuadraticBlock

    inst = exp.load_instance(make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0))
    f0 = inst.problem.objectives[0]
    problem = BlockProblem((QuadraticBlock(f0.H[:2, :2], f0.q[:2]), inst.problem.objectives[1]),
                           (inst.problem.A[0][:, :2], inst.problem.A[1]), inst.problem.c)
    path = tmp_path / "mixed.json"
    exp.save_instance(dataclasses.replace(inst, problem=problem, proximal_source=(),
                                          xstar=(inst.xstar[0][:2], inst.xstar[1])), path)
    code = run_cli("sweep", "--input", str(path), "--output", str(tmp_path / "sweep"),
                   "--seeds", "0,1", "--rho-grid", "1", "--gamma-grid", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert "invalid --seeds" in err and "(2, 3)" in err
    assert not (tmp_path / "sweep").exists()


@pytest.mark.parametrize("command", ["solve"])
@pytest.mark.parametrize("value", ["nan", "-1", "inf"])
def test_command_rejects_a_bad_tol(tmp_path, capsys, command, value):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    out = tmp_path / "out"
    code = run_cli(command, "--input", str(inst), "--tol", value, "--output", str(out))
    assert code == 2
    assert "invalid --tol" in capsys.readouterr().err
    assert not out.exists()


def small_sweep(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    sweep_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                   "--rho-grid", "1", "--gamma-grid", "1", "--max-iters", "50") == 0
    return sweep_dir, json.loads((sweep_dir / "manifest.json").read_text())


@pytest.mark.parametrize("key", ["rho_grid", "gamma_grid", "cells"])
def test_report_on_a_manifest_without_a_key_exits_3(tmp_path, capsys, key):
    sweep_dir, manifest = small_sweep(tmp_path)
    del manifest[key]
    (sweep_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("report", "--input", str(sweep_dir)) == 3
    err = capsys.readouterr().err
    assert "manifest.json" in err and key in err


def test_report_on_a_cell_without_its_rho_exits_3(tmp_path, capsys):
    sweep_dir, manifest = small_sweep(tmp_path)
    del manifest["cells"][0]["rho"]
    (sweep_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("report", "--input", str(sweep_dir)) == 3
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("where, key, value", [
    ("cell", "rho", "1"), ("cell", "gamma", None), ("cell", "seed", 0.5), ("cell", "seed", True),
    ("manifest", "rho_grid", "1"), ("manifest", "gamma_grid", [1, "0.5"]),
    ("manifest", "cells", {"rho": 1}),
    ("cell", "certificate", [0.5]),
    ("cell", "certificate", {"sigma": "0.5", "passed": True}),
    ("cell", "certificate", {"sigma": 0.5, "passed": "yes"}),
    ("cell", "dis_rate", {"rate": True}),
    ("cell", "phi_rate", {"rate": "0.9"}),
    ("cell", "phi_rate", 0.9),
    ("cell", "trace", 7),
])
def test_report_on_a_value_of_the_wrong_type_exits_3(tmp_path, capsys, where, key, value):
    sweep_dir, manifest = small_sweep(tmp_path)
    (manifest["cells"][0] if where == "cell" else manifest)[key] = value
    (sweep_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("report", "--input", str(sweep_dir)) == 3
    err = capsys.readouterr().err
    assert f"malformed manifest {sweep_dir / 'manifest.json'}" in err and key in err


def test_report_on_an_unparsable_manifest_exits_3(tmp_path, capsys):
    sweep_dir, _ = small_sweep(tmp_path)
    (sweep_dir / "manifest.json").write_text("{not json")
    assert run_cli("report", "--input", str(sweep_dir)) == 3
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("content", ["k,dis\n0,1.0\n", "", CSV_HEADER + "\n0,x,,1.0,0.0\n"])
def test_report_on_a_malformed_trace_exits_3(tmp_path, capsys, content):
    sweep_dir, manifest = small_sweep(tmp_path)
    name = manifest["cells"][0]["trace"]
    (sweep_dir / name).write_text(content)
    assert run_cli("report", "--input", str(sweep_dir)) == 3
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("row", ["1,0.5", "0,1.0,,1.0,0.0,7"])
def test_report_rejects_a_trace_row_of_the_wrong_length(tmp_path, capsys, row):
    sweep_dir, manifest = small_sweep(tmp_path)
    path = sweep_dir / manifest["cells"][0]["trace"]
    path.write_text(f"{CSV_HEADER}\n0,1.0,,1.0,0.0\n{row}\n")
    assert run_cli("report", "--input", str(sweep_dir)) == 3
    assert f"malformed trace file {path}" in capsys.readouterr().err


def test_sweep_manifest_records_the_engine(tmp_path):
    lcqp = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    ra = make_instance(tmp_path, "ra", N=4, seed=0)
    for inst, engine in ((lcqp, "affine"), (ra, "sweep")):
        sweep_dir = tmp_path / f"sweep_{engine}"
        assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                       "--rho-grid", "1", "--gamma-grid", "0.5,1.5", "--max-iters", "100") == 0
        manifest = json.loads((sweep_dir / "manifest.json").read_text())
        assert [cell["engine"] for cell in manifest["cells"]] == [engine, engine]
