"""Shared pytest hooks and fixtures: FAIL lines for the acceptance criteria, call counting."""

import importlib
import re
import sys

import pytest


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

    The function is replaced in every ``jprox`` module namespace that holds
    it, so calls through any import of it are counted.
    """
    def install(module_name: str, name: str) -> list:
        importlib.import_module("jprox.cli")  # loads every module that could hold it
        original = getattr(importlib.import_module(module_name), name)
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for key, module in list(sys.modules.items()):
            if key == "jprox" or key.startswith("jprox."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        return calls

    return install
