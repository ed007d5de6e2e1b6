"""Every import and every private top-level name of a package module is read in that module.

The package's runtime imports are the standard library, numpy and the package itself.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "jprox"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unread_name():
    source = "import os\nimport numpy as np\nfrom math import pi, tau\nnp.zeros(pi)\n"
    assert unused_imports(source) == ["os", "tau"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def dead_private_names(source: str) -> list:
    """Module-level private names of ``source`` that no expression reads.

    A name is private when it starts with one underscore (dunders such as
    ``__all__`` are not); it counts when a top-level ``def``, ``class`` or
    assignment binds it.
    """
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    private = {name for name in bound if name.startswith("_") and not name.startswith("__")}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(private - read)


def test_dead_private_names_finds_an_unread_name():
    source = (
        "__all__ = ['run']\n_LIMIT, _SPARE = 1, 2\n_cache: dict = {}\n"
        "def _helper():\n    return _LIMIT\n"
        "def _unused():\n    _local = 3\n    return _local\n"
        "class _Shape:\n    pass\n"
        "def run():\n    return _helper()\n"
    )
    assert dead_private_names(source) == ["_SPARE", "_Shape", "_cache", "_unused"]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_dead_private_names(path):
    assert dead_private_names(path.read_text(encoding="utf-8")) == []


def imported_modules(source: str) -> set:
    """The top-level module of each import in ``source``; a relative import counts as ``"."``."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            names.add(node.module.split(".")[0] if node.level == 0 else ".")
    return names


def foreign_imports(source: str) -> list:
    """Top-level modules imported by ``source`` outside the standard library, numpy and jprox."""
    return sorted(imported_modules(source) - set(sys.stdlib_module_names) - {"numpy", "jprox", "."})


def test_foreign_imports_finds_a_third_party_module():
    source = "import os.path\nimport scipy.linalg\nfrom numpy import linalg\nfrom . import errors\n"
    assert foreign_imports(source) == ["scipy"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_stdlib_numpy_and_jprox(path):
    assert foreign_imports(path.read_text(encoding="utf-8")) == []


def test_cli_commands_run_without_loading_scipy(tmp_path):
    script = f"""
import sys
import jprox
from jprox.cli import main
inst, out = {str(tmp_path / "inst.json")!r}, {str(tmp_path)!r}
assert main(["generate", "lcqp", "--N", "2", "--m", "4", "--n", "3", "--output", inst]) == 0
assert main(["certify", "--input", inst, "--output", out + "/cert.json"]) == 0
assert main(["solve", "--input", inst, "--method", "gauss-seidel", "--max-iters", "50",
             "--output", out + "/trace.csv"]) == 0
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "[]"


TRACER = SRC.parents[1] / "benchmarks" / "tracer.py"


def tracer_target_names() -> set:
    """The first attribute name of each ``benchmarks/tracer.py`` target: ``SpdFactor.solve`` gives
    ``SpdFactor``."""
    spec = importlib.util.spec_from_file_location("jprox_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {attr.split(".")[0] for _, _, attr, _, _ in module.TARGETS}


def exported_names(source: str) -> list:
    """Names that the ``from .module import ...`` statements of ``source`` bind."""
    return [alias.asname or alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.level == 1 for alias in node.names]


def read_names(source: str) -> set:
    """Names ``source`` reads: loaded ``ast.Name`` nodes and attribute names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_exported_names_and_read_names_find_their_names():
    assert exported_names("from .a import x, y as z\nfrom numpy import w\n") == ["x", "z"]
    assert read_names("v = x + np.y\n") == {"x", "np", "y"}


def test_every_export_is_read_by_the_package_or_traced():
    """An export that no other package module reads and the tracer does not wrap is dead."""
    read = set().union(*(read_names(p.read_text(encoding="utf-8")) for p in MODULES))
    exports = exported_names((SRC / "__init__.py").read_text(encoding="utf-8"))
    assert sorted(set(exports) - read - tracer_target_names()) == []


def policy_kind_literals(source: str) -> list:
    """Lines of ``source`` that hold the string constant ``"standard"`` or ``"proxlinear"``.

    Docstrings and other bare string statements do not count.
    """
    tree = ast.parse(source)
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Constant) and node.value in ("standard", "proxlinear")
                  and id(node) not in bare)


def test_policy_kind_literals_skips_docstrings():
    source = ('"""standard"""\ndef f(kind="standard"):\n    """proxlinear"""\n'
              '    return {"proxlinear": 1, "standard normal": 2}\n')
    assert policy_kind_literals(source) == [2, 4]


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "solvers.py"],
                         ids=lambda p: p.name)
def test_policy_kinds_are_named_only_in_solvers(path):
    """A weight policy's name is its class's ``kind``; no other module spells it out."""
    assert policy_kind_literals(path.read_text(encoding="utf-8")) == []


INSTANCE_CLASSES = {"LcqpInstance", "ResourceAllocInstance"}
INSTANCE_KIND_NAMES = ("lcqp", "resource_alloc")
#: Where an instance family may be told apart: its class, the table of the classes, and
#: ``generate``'s mapping of ``--m`` and ``--n`` to a generator.
FAMILY_SCOPES = INSTANCE_CLASSES | {"INSTANCE_KINDS", "GENERATORS", "cmd_generate"}


def family_branches(source: str) -> list:
    """Lines of ``source``, outside :data:`FAMILY_SCOPES`, that hold a family's ``kind`` string
    or check ``isinstance`` against an instance class or the table of them.

    Docstrings and other bare string statements do not count.
    """
    tree = ast.parse(source)
    bare = {id(node.value) for node in ast.walk(tree) if isinstance(node, ast.Expr)}
    lines = []

    def visit(node, allowed: bool) -> None:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = allowed or node.name in FAMILY_SCOPES
        elif isinstance(node, ast.Assign):
            allowed = allowed or any(isinstance(t, ast.Name) and t.id in FAMILY_SCOPES
                                     for t in node.targets)
        elif (not allowed and isinstance(node, ast.Constant)
              and node.value in INSTANCE_KIND_NAMES and id(node) not in bare):
            lines.append(node.lineno)
        elif (not allowed and isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "isinstance" and len(node.args) == 2
              and read_names(ast.unparse(node.args[1])) & (INSTANCE_CLASSES | {"INSTANCE_KINDS"})):
            lines.append(node.lineno)
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(tree, False)
    return sorted(lines)


def test_family_branches_finds_kind_strings_and_isinstance_checks():
    source = (
        '"""lcqp"""\n'
        'class LcqpInstance:\n    kind = "lcqp"\n'
        'INSTANCE_KINDS = {"lcqp": LcqpInstance}\n'
        'def cmd_generate(args):\n    return args.kind == "lcqp"\n'
        'def save(inst):\n    """resource_alloc"""\n'
        '    if isinstance(inst, exp.LcqpInstance):\n        return "resource_alloc"\n'
        '    return isinstance(inst, tuple(INSTANCE_KINDS.values())) or isinstance(inst, dict)\n'
    )
    assert family_branches(source) == [9, 10, 11]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_instance_families_are_told_apart_only_by_their_classes(path):
    """A family's ``kind``, optimum, redraw, grid and archive members live on its class."""
    assert family_branches(path.read_text(encoding="utf-8")) == []


def test_cli_names_no_instance_class():
    assert read_names((SRC / "cli.py").read_text(encoding="utf-8")) & INSTANCE_CLASSES == set()


#: Names of the explicit-proximal policy, which left the package: no module may bind or read them.
REMOVED_NAMES = {"ExplicitProximal", "proximal_source", "compute_mu_s", "_repair_psd"}


def identifiers(source: str) -> set:
    """Every name ``source`` binds or reads: names, attributes, definitions, arguments, keyword
    arguments and imported names."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.arg):
            names.add(node.arg)
        elif isinstance(node, ast.keyword) and node.arg:
            names.add(node.arg)
        elif isinstance(node, ast.alias):
            names.update({node.name.split(".")[-1], node.asname} - {None})
    return names


def test_identifiers_finds_every_kind_of_name():
    source = ("from .solvers import ExplicitProximal as EP\n"
              "class Inst:\n    proximal_source: tuple = ()\n"
              "def _repair_psd(S, *, compute_mu_s=None):\n    return f(x=S).attr\n")
    assert REMOVED_NAMES <= identifiers(source)
    assert {"EP", "Inst", "S", "f", "x", "attr"} <= identifiers(source)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_the_explicit_policy_is_gone(path):
    """Every ``P_i`` is a weight policy or none; the stored matrices and their checks are gone."""
    assert identifiers(path.read_text(encoding="utf-8")) & REMOVED_NAMES == set()


def test_the_dense_oracle_imports_no_jprox_module():
    """The oracle shares no code with the closed forms it checks."""
    assert imported_modules("import jprox.linalg\nfrom . import x\n") == {"jprox", "."}
    oracle = Path(__file__).with_name("oracle.py").read_text(encoding="utf-8")
    assert imported_modules(oracle) <= {"numpy", "scipy"}
