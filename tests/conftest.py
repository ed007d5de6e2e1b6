"""Shared pytest hooks, fixtures and helpers: FAIL lines for the acceptance criteria, call
counting, the CPU count a sweep sees and its worker processes, and the ``dis`` distance of the
engine tests."""

import importlib
import multiprocessing
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from jprox.problem import block_distance


def dis(u, ref) -> float:
    """Largest block-wise primal distance or multiplier distance of ``u`` from ``ref``."""
    offsets = np.cumsum([0] + [xi.size for xi in u.x])
    return block_distance(np.concatenate(u.x) - np.concatenate(ref.x), u.lam - ref.lam, offsets)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when != "call" or not report.failed:
        return
    match = re.match(r"test_criterion_(\d+)", item.name)
    if match and "test_acceptance" in str(item.fspath):
        print(f"\nACCEPTANCE {match.group(1)}: FAIL - {item.name}")


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(module, name)``: a list that grows by one per call of that function.

    The function is replaced in ``module`` and in every ``jprox`` module
    namespace that holds it, so calls through any import of it are counted,
    and so are calls through ``module`` itself (``np.linalg.eigvalsh``).
    """
    def install(module_name: str, name: str) -> list:
        importlib.import_module("jprox.cli")  # loads every module that could hold it
        owner = importlib.import_module(module_name)
        original = getattr(owner, name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key == "jprox" or key.startswith("jprox."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        monkeypatch.setattr(owner, name, counting)
        return calls

    return install


@pytest.fixture
def cpus(monkeypatch):
    """``cpus(n)``: this process may run on ``n`` CPUs, so a sweep runs on ``min(n, cells)`` workers.

    ``cpus(1)`` keeps a sweep's cells in the test's process, where calls inside
    them can be counted; ``cpus(2)`` forks two workers on any machine.
    """
    def set_count(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_count


#: The test process; a forked sweep worker has another pid.
TEST_PID = os.getpid()


def child_pids() -> set:
    """Process ids of this process's children: those the kernel lists, and multiprocessing's."""
    listed = {int(pid) for path in Path("/proc/self/task").glob("*/children")
              for pid in path.read_text().split()}
    return listed | {p.pid for p in multiprocessing.active_children()}


def exit_in_worker(*task):
    """A sweep cell that ends its worker process at once; it never runs in the test process."""
    assert os.getpid() != TEST_PID, "a pooled cell ran in the test process"
    os._exit(1)
