"""Shared pytest hooks, fixtures and helpers: FAIL lines for the acceptance criteria, call
counting, and the ``dis`` distance of the engine tests."""

import importlib
import re
import sys

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
