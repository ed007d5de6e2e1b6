"""Command-line tests: exit codes, file formats, determinism."""

import dataclasses
import hashlib
import json
import sys
import zipfile

import numpy as np
import pytest
from conftest import child_pids, exit_in_worker

import jprox.experiments as exp
from jprox.cli import main, read_trace_csv
from jprox.experiments import CSV_HEADER


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
    assert data["dims"].tolist() == [4, 4, 4] and data["A"].shape == (10, 12)
    assert data["H"].shape == (48,) and data["q"].shape == (12,)
    assert data["xstar"].shape == (12,) and data["lambdastar"].shape == (10,)


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
    assert data["dims"].tolist() == [1] * 6 and data["A"].tolist() == [[1.0] * 6]
    assert all(data[key].shape == (6,) for key in ("a", "b", "cshift", "dshift"))
    assert data["c"].tolist() == [0.0]


def test_generate_writes_instance_npz_by_default(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_cli("generate", "ra", "--N", "3") == 0
    assert [p.name for p in tmp_path.iterdir()] == ["instance.npz"]
    assert capsys.readouterr().out.startswith("wrote instance.npz: kind=ra N=3 ")
    assert exp.load_instance(tmp_path / "instance.npz").problem.N == 3


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
    assert run_cli("generate", "lcqp", "--N", "2", "--frobnicate", "1") == 2


@pytest.mark.parametrize("argv, code", [(["generate", "lcqp", "--frobnicate", "1"], 2),
                                        (["sweep", "--help"], 0)])
def test_main_without_argv_exits_the_process_with_argparse_codes(monkeypatch, argv, code):
    monkeypatch.setattr(sys, "argv", ["jprox", *argv])
    with pytest.raises(SystemExit) as info:
        main()
    assert info.value.code == code


@pytest.mark.parametrize("flag, value", [("--tol", "1"), ("--max-iters", "5")])
def test_certify_has_no_run_flags(tmp_path, flag, value):
    # certify runs no solver, so it takes no stopping tolerance or iteration budget.
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    out = tmp_path / "cert.json"
    assert run_cli("certify", "--input", str(inst), "--output", str(out), flag, value) == 2
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
], ids=["auto", "tau-1"])
def test_certify_gamma_out_of_range_records_the_concrete_policy(tmp_path, flags, policy):
    # Only an "auto" request has no weights to resolve to out of (0, 2).
    path = make_instance(tmp_path, "lcqp", N=3, m=6, n=3, seed=0)
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
    members["q"] = np.array([1.0, "x", None], dtype=object)


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


def per_block_layout(path):
    """An instance file of the layout of earlier versions: one member per block of each array."""
    inst = exp.generate_lcqp(2, 4, 3, seed=1)
    p = inst.problem
    members = {"seed": np.array(1), "c": p.c, **{f"A_{i}": Ai for i, Ai in enumerate(p.A)},
               "kind": np.array("lcqp")}
    for i, (f, x) in enumerate(zip(p.objectives, inst.xstar)):
        members.update({f"H_{i}": f.H, f"q_{i}": f.q, f"xstar_{i}": x})
    write_members(path, {**members, "lambdastar": inst.lambdastar})


def foreign_zip(path):
    with zipfile.ZipFile(path, "w") as archive:
        archive.writestr("readme.txt", "not an instance")


#: The one refusal of a file that is not an instance archive of the current layout.
REGENERATE = "regenerate it from its seed with `jprox generate`"


# Each JSON-era fault id names its archive counterpart: an old-format file
# (list-format), an undecodable member (bad-base64), a member whose size does
# not fit its blocks (byte-count), a member of the wrong rank (no-shape), a
# missing member (no-f8) and a non-finite entry (nan-q).
@pytest.mark.parametrize("corrupt, message", [
    (lambda path: path.write_text('{"N": 2, "m": 4, "blocks": []}'), REGENERATE),
    (edit_members(object_member), "q: unreadable member"),
    (edit_members(lambda d: d.update(q=np.zeros(5))), "q: expected shape 6, got (5,)"),
    (edit_members(lambda d: d.update(q=d["q"][None])), "q: expected shape 6, got (1, 6)"),
    (edit_members(lambda d: d.pop("q")), "q: missing member"),
    (edit_members(lambda d: d["q"].__setitem__(0, np.nan)), "q: entries must be finite"),
    (edit_members(lambda d: d.update(q=d["q"].astype(np.float32))),
     "q: expected float64 entries, got dtype float32"),
    (edit_members(lambda d: d["H"][9:].__imul__(-1.0)),
     "H: block 1: QuadraticBlock.H must be positive definite"),
    (raw_member, "c: not a .npy array"),
    (truncate, REGENERATE),
    (lambda path: path.write_bytes(b"\x00" * 64), REGENERATE),
    (per_block_layout, REGENERATE),
    (foreign_zip, REGENERATE),
], ids=["list-format", "bad-base64", "byte-count", "no-shape", "no-f8", "nan-q", "float32-q",
        "indefinite-H", "raw-member", "truncated", "not-zip", "per-block-layout",
        "foreign-zip"])
def test_certify_malformed_payload_exits_3(tmp_path, capsys, corrupt, message):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=1)
    corrupt(inst)
    code = run_cli("certify", "--input", str(inst), "--output", str(tmp_path / "c.json"))
    err = capsys.readouterr().err
    assert code == 3
    assert f"malformed instance file {inst}: " in err and message in err


def empty_constraint(members):
    """No constraint row: ``c`` and ``A`` without entries, and no digest to vouch for spectra."""
    members.update(c=np.zeros(0), A=np.zeros((0, members["A"].shape[1])))
    del members[exp.SPECTRA_DIGEST]


def wide_scalar_block(members):
    """Two scalar blocks, the first of them given two columns of ``A``."""
    members.update(dims=np.array([2, 1]), **{name: members[name][:2]
                                            for name in ("a", "b", "cshift", "dshift")})


# Each JSON-era fault id names its archive counterpart: a coefficient of the
# wrong rank (list-coefficient), a file that is one array and not an archive
# (top-level-list), a coupling member that is a number (blocks-number) or an
# integer array (block-number), and a seed that is a list (seed-list).
@pytest.mark.parametrize("corrupt, message", [
    (edit_members(lambda d: d.update(a=d["a"][:, None])), "a: expected shape 3, got (3, 1)"),
    (single_array, REGENERATE),
    (edit_members(lambda d: d.update(A=np.float64(1.0))), "A: expected shape 1 x 3, got ()"),
    (edit_members(lambda d: d.update(A=d["A"].astype(int))),
     "A: expected float64 entries, got dtype int"),
    (edit_members(lambda d: d.update(seed=d["seed"][None])), "seed: expected shape 0-d, got (1,)"),
    (edit_members(lambda d: d.update(seed=np.array(0.5))), "seed: expected integer entries, got dtype float64"),
    (edit_members(lambda d: d.update(kind=np.array("lp"))), "kind: unknown instance kind 'lp'"),
    (edit_members(lambda d: d["a"].__setitem__(1, -1.0)),
     "a: block 1: LogisticQuadBlock.a must be nonnegative"),
    (edit_members(empty_constraint), "c: expected at least one entry"),
    (edit_members(lambda d: d.update(dims=np.array([1, 0, 2]))),
     "dims: expected at least one block, each of size at least 1"),
    (edit_members(lambda d: d.update(dims=np.array([1.0, 1.0, 1.0]))),
     "dims: expected integer entries, got dtype float64"),
    (edit_members(wide_scalar_block), "dims: A[0] has 2 columns but block 0 has dimension 1"),
], ids=["list-coefficient", "top-level-list", "blocks-number", "block-number", "seed-list",
        "seed-float", "unknown-kind", "negative-a", "empty-c", "zero-dim", "float-dims",
        "wide-scalar-block"])
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


@pytest.mark.parametrize("flags", [(), ("--tau", "2"), ("--policy", "none"),
                                   ("--policy", "proxlinear")],
                         ids=["auto", "fixed-tau", "no-proximal-term", "prox-linear-auto"])
def test_certify_forms_no_gram_matrix(tmp_path, count_calls, flags):
    # certify reads the recorded Gram spectra; only a run's phi weights read A_i'A_i.
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    grams = count_calls("jprox.problem", "BlockProblem.gram_matrices")
    assert run_cli("certify", "--input", str(inst), "--output", str(tmp_path / "c.json"),
                   *flags) in (0, 4)
    assert grams == []


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
    for policy in ("standard", "proxlinear"):
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
    """Swap blocks 0 and 1 of three blocks of 5 columns in every block-wise member."""
    for name, n in (("A", 5), ("H", 25), ("q", 5), ("xstar", 5)):
        a = members[name]
        members[name] = np.concatenate((a[..., n:2 * n], a[..., :n], a[..., 2 * n:]), axis=-1)


@pytest.mark.parametrize("edit", [
    lambda d: d["A"][:, 5:10].__imul__(2.0),
    lambda d: d["H"][25:50].__imul__(2.0),
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
    # N is the length of dims.
    inst = make_instance(tmp_path, "lcqp", N=3, m=12, n=5, seed=0)
    spectra = [name for name in read_members(inst) if name.startswith("spectra_")]
    assert spectra and not set(spectra) & {"dims", "A", "H"}
    loaded = exp.load_instance(inst)
    assert loaded.problem.N == 3
    assert loaded.problem._stacked_singular_value is not None


def with_stored_P(members):
    """The archive layout of earlier versions: a ``P`` member after ``lambdastar``, laid out
    as ``H``, holding a symmetric PSD matrix per block."""
    rng = np.random.default_rng(7)
    P = []
    for n in members["dims"].tolist():
        B = rng.standard_normal((n, n))
        P.append((B @ B.T).ravel())
    names = list(members)
    at = names.index("lambdastar") + 1
    reordered = {name: members[name] for name in names[:at]}
    reordered["P"] = np.concatenate(P)
    reordered.update((name, members[name]) for name in names[at:])
    members.clear()
    members.update(reordered)


def test_an_archive_with_stored_P_loads_as_the_one_without(tmp_path):
    # No code reads P: the problem, optimum, spectra and certificates are those without it.
    plain = make_instance(tmp_path, "lcqp", N=3, m=12, n=5, seed=0)
    old = tmp_path / "old.npz"
    old.write_bytes(plain.read_bytes())
    edit_members(with_stored_P)(old)
    assert len(read_members(plain)) == 14 and len(read_members(old)) == 15
    a, b = exp.load_instance(plain), exp.load_instance(old)
    for x, y in [(a.problem.c, b.problem.c), (a.lambdastar, b.lambdastar),
                 *zip(a.problem.A, b.problem.A), *zip(a.xstar, b.xstar),
                 *[(f.H, g.H) for f, g in zip(a.problem.objectives, b.problem.objectives)],
                 *[(f.q, g.q) for f, g in zip(a.problem.objectives, b.problem.objectives)],
                 *zip(a.optimum().x, b.optimum().x), (a.optimum().lam, b.optimum().lam),
                 *[(f.eigenvalues, g.eigenvalues)
                   for f, g in zip(a.problem.gram_spectra(), b.problem.gram_spectra())]]:
        assert x.tobytes() == y.tobytes()
    assert b.problem._stacked_singular_value is not None
    assert a.problem.stacked_singular_value() == b.problem.stacked_singular_value()
    for f, g in zip(a.problem.objectives, b.problem.objectives):
        assert (f.min_curvature, f.max_curvature) == (g.min_curvature, g.max_curvature)
    for policy in ("standard", "proxlinear", "none"):
        flags = ("--tau", "auto", "--policy", policy)
        assert certificate_bytes(tmp_path, plain, *flags) == certificate_bytes(
            tmp_path, old, *flags), policy


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
    assert not np.isnan(cols["phi"]).any()  # certified run records phi


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


def test_a_sweep_cell_is_its_manifest_entry():
    # The manifest entry is SweepCell.to_dict(), so report reads only fields sweep writes.
    from jprox.certify import Certificate, RateFit
    from jprox.cli import CELL_KEYS, CELL_TYPES, _wrong_cell_fields
    from jprox.solvers import StandardProximal

    cert = Certificate(rho=1.0, gamma=0.5, proximal=StandardProximal([2.0, 3.0]), passed=False)
    cell = exp.SweepCell(1.0, 0.5, 3, status="max_iters", certificate=cert,
                         dis_rate=RateFit(0.9, 0.99), trace="t.csv", trace_sha256="ab",
                         timings={"step": 0.1}, engine="affine", wall_s=0.2)
    entry = cell.to_dict()
    assert list(entry) == ["rho", "gamma", "seed", "status", "certificate", "dis_rate",
                           "phi_rate", "error", "trace", "trace_sha256", "timings", "engine",
                           "wall_s"]
    assert entry["certificate"] == cert.to_dict()
    assert entry["dis_rate"] == {"rate": 0.9, "r_squared": 0.99, "flat": False}
    assert entry["phi_rate"] is None
    assert json.loads(json.dumps(entry)) == entry
    assert _wrong_cell_fields(entry) == []
    fields = {f.name for f in dataclasses.fields(exp.SweepCell)}
    assert set(CELL_KEYS) | {key.partition(".")[0] for key in CELL_TYPES} <= fields


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


# No instance stores proximal matrices, and --policy has no "explicit" choice.
@pytest.mark.parametrize("method", ["jprox"] + BASELINES)
def test_solve_explicit_policy_without_stored_matrices_exits_2(tmp_path, capsys, method):
    inst = make_instance(tmp_path, "ra", N=3, seed=0)
    out = tmp_path / "t.csv"
    assert run_cli("solve", "--input", str(inst), "--method", method, "--policy", "explicit",
                   "--output", str(out)) == 2
    assert "--policy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("gamma", ["1", "2.5"])
def test_certify_explicit_policy_without_stored_matrices_exits_2(tmp_path, capsys, gamma):
    # The flags are checked before gamma is: a gamma outside (0, 2) does not hide them.
    inst = make_instance(tmp_path, "ra", N=3, seed=0)
    out = tmp_path / "c.json"
    assert run_cli("certify", "--input", str(inst), "--gamma", gamma, "--policy", "explicit",
                   "--output", str(out)) == 2
    assert "--policy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "solve", "sweep"])
def test_explicit_policy_exits_2_and_writes_no_file(tmp_path, capsys, command):
    # The choice is gone from certify and solve, and sweep never took --policy.
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    out = tmp_path / "out"
    assert run_cli(command, "--input", str(inst), "--policy", "explicit", "--output",
                   str(out)) == 2
    assert "--policy" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == [inst.name]


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


def test_report_prints_each_sigma_as_the_manifest_holds_it(tmp_path):
    # A passed sigma within 1e-6 of 1 printed as "1" with six significant digits.
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    sweep_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                   "--rho-grid", "0.5,1", "--gamma-grid", "0.5,1", "--max-iters", "50") == 0
    assert run_cli("report", "--input", str(sweep_dir)) == 0
    cells = json.loads((sweep_dir / "manifest.json").read_text())["cells"]
    rows = (sweep_dir / "rates.txt").read_text().splitlines()[1:]
    assert len(rows) == len(cells) == 4
    for row, cell in zip(rows, cells):
        sigma = cell["certificate"]["sigma"]
        assert f"{sigma:.6g}" != repr(sigma)
        assert row.split(" ")[4] == repr(sigma) and float(row.split(" ")[4]) == sigma


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
        for cell in manifest["cells"]:  # the digest covers elapsed_seconds
            del cell["timings"], cell["wall_s"], cell["trace_sha256"]
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


def test_sweep_manifest_records_the_digest_of_each_trace(tmp_path):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    sweep_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                   "--rho-grid", "0.5,1", "--gamma-grid", "1", "--max-iters", "50") == 0
    for cell in json.loads((sweep_dir / "manifest.json").read_text())["cells"]:
        data = (sweep_dir / cell["trace"]).read_bytes()
        assert cell["trace_sha256"] == hashlib.sha256(data).hexdigest()


def test_report_on_an_edited_trace_of_a_seed_it_does_not_plot_exits_3(tmp_path, capsys):
    # One digit of a phi value: a well-formed trace, but not the one the sweep wrote.
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    sweep_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir), "--seeds", "0,1",
                   "--rho-grid", "1", "--gamma-grid", "1", "--max-iters", "50") == 0
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    path = sweep_dir / next(cell["trace"] for cell in manifest["cells"] if cell["seed"] == 1)
    header, first, *rest = path.read_text().splitlines()
    k, dis, phi, *tail = first.split(",")
    digit = next(i for i, ch in enumerate(phi) if ch in "123456789")
    phi = phi[:digit] + str(int(phi[digit]) % 9 + 1) + phi[digit + 1:]
    path.write_text("\n".join([header, ",".join([k, dis, phi, *tail]), *rest]) + "\n")
    read_trace_csv(path)  # the parser alone accepts it
    capsys.readouterr()
    assert run_cli("report", "--input", str(sweep_dir)) == 3
    assert f"malformed trace file {path}: its SHA-256 digest" in capsys.readouterr().err


def test_report_on_a_listed_trace_without_its_digest_exits_3(tmp_path, capsys):
    sweep_dir, manifest = small_sweep(tmp_path)
    del manifest["cells"][0]["trace_sha256"]
    (sweep_dir / "manifest.json").write_text(json.dumps(manifest))
    assert run_cli("report", "--input", str(sweep_dir)) == 3
    path = sweep_dir / manifest["cells"][0]["trace"]
    assert f"malformed trace file {path}: the manifest records no trace_sha256" in \
        capsys.readouterr().err


@pytest.mark.parametrize("n", [1, 2])
def test_sweep_that_cannot_write_a_trace_exits_3_without_a_manifest(tmp_path, cpus, capsys, n):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    cpus(n)
    sweep_dir = tmp_path / "sweep"
    blocked = sweep_dir / "trace_rho1_gamma1_seed0.csv"
    blocked.mkdir(parents=True)
    before = child_pids()
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir),
                   "--rho-grid", "0.5,1", "--gamma-grid", "1", "--max-iters", "20") == 3
    assert str(blocked) in capsys.readouterr().err
    assert not (sweep_dir / "manifest.json").exists()
    assert child_pids() <= before


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


def test_sweep_seeds_replace_the_instance_seed(tmp_path, capsys):
    inst = make_instance(tmp_path, "lcqp", N=2, m=4, n=3, seed=0)
    sweep_dir = tmp_path / "sweep"
    assert run_cli("sweep", "--input", str(inst), "--output", str(sweep_dir), "--seeds", "1",
                   "--rho-grid", "1", "--gamma-grid", "1", "--max-iters", "20") == 0
    manifest = json.loads((sweep_dir / "manifest.json").read_text())
    assert manifest["seeds"] == [1] and [cell["seed"] for cell in manifest["cells"]] == [1]
    capsys.readouterr()
    assert run_cli("sweep", "--help") == 0
    assert "seeds to run, in place of the instance's own seed" in " ".join(
        capsys.readouterr().out.split())


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
    exp.save_instance(dataclasses.replace(inst, problem=problem,
                                          xstar=(inst.xstar[0][:2], inst.xstar[1])), path)
    code = run_cli("sweep", "--input", str(path), "--output", str(tmp_path / "sweep"),
                   "--seeds", "0,1", "--rho-grid", "1", "--gamma-grid", "1")
    assert code == 2
    err = capsys.readouterr().err
    assert err == "invalid --seeds: the generator cannot redraw blocks of differing sizes (2, 3)\n"
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


# -- the exit contract at extreme parameters ----------------------------------------

UNDERFLOW = "InvalidParameter: 2*gamma*rho*s underflows to 0"


def test_a_sweep_cell_whose_sigma_product_underflows_is_an_error_cell(tmp_path, cpus, capsys):
    # The other cells still run, and the sweep exits 0.
    cpus(1)
    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    assert run_cli("sweep", "--input", str(inst), "--rho-grid", "1e-300,1", "--gamma-grid",
                   "1e-300", "--max-iters", "10", "--output", str(tmp_path / "sweep")) == 0
    cells = json.loads((tmp_path / "sweep" / "manifest.json").read_text())["cells"]
    assert [(cell["rho"], cell["status"]) for cell in cells] == [(1e-300, "error"),
                                                                 (1.0, "max_iters")]
    assert cells[0]["error"].startswith(UNDERFLOW) and cells[0]["trace"] is None
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags, code, message, wrote", [
    (("certify", "--rho", "1e-300", "--gamma", "1e-300"), 3, UNDERFLOW, None),
    (("solve", "--rho", "1e-300", "--gamma", "1e-300"), 3, UNDERFLOW, None),
    (("sweep", "--rho", "1e-300", "--gamma", "1e-300", "--max-iters", "10"), 3, "",
     "manifest.json"),
    (("certify", "--rho", "1e300"), 3, "InvalidParameter: s must be finite and positive", None),
    (("certify", "--tau", "1e300"), 4, "certification failed: XiConditionFailed", ""),
], ids=["certify-underflow", "solve-underflow", "sweep-underflow", "certify-rho-1e300",
        "certify-tau-1e300"])
def test_extreme_parameters_leave_only_the_message_on_stderr(tmp_path, flags, code, message,
                                                             wrote):
    # A fresh process, so that a RuntimeWarning or a traceback would reach its stderr.  A
    # sweep in which no cell completes exits 3 with its manifest written.
    import os
    import subprocess
    from pathlib import Path

    inst = make_instance(tmp_path, "lcqp", N=3, m=6, n=4, seed=0)
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("PYTHONWARNINGS", None)
    command, *rest = flags
    done = subprocess.run([sys.executable, "-m", "jprox.cli", command, "--input", str(inst),
                           *rest, "--output", str(tmp_path / "out")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == code, done.stderr
    assert done.stderr.startswith(message)
    assert "Traceback" not in done.stderr and "Warning" not in done.stderr
    out = tmp_path / "out"
    assert (out / wrote).exists() if wrote is not None else not out.exists()
