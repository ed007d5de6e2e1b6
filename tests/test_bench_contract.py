"""The traced benchmark run wraps functions by name; each must still exist, and the counters
its hooks read off their results must dump as JSON."""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("jprox_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = load_tracer().TARGETS


@pytest.mark.parametrize("target", TARGETS, ids=[t[0] for t in TARGETS])
def test_tracer_target_resolves(target):
    _, module_name, attr, _, _ = target
    owner = importlib.import_module(module_name)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_tracer_counters_of_a_real_run_dump_as_json(tmp_path):
    # The benchmark session writes the counters with json.dumps, which refuses
    # a numpy integer: the last of Trace.ks must be a Python int.
    from jprox.experiments import generate_lcqp, write_trace_csv
    from jprox.problem import PrimalDualPoint
    from jprox.solvers import SolverParams, StandardProximal, run

    tracer = load_tracer()
    problem = generate_lcqp(2, 4, 3, seed=0).problem
    params = SolverParams(rho=1.0, gamma=1.0, policy=StandardProximal(10.0), max_iters=70)
    trace = run(problem, params, PrimalDualPoint.zeros(problem))
    path = tmp_path / "trace.csv"
    counters = dict.fromkeys(tracer.COUNTERS, 0)
    tracer._add_iterations(counters, (problem, params), trace)
    tracer._add_trace_rows(counters, (trace, path), write_trace_csv(trace, path))
    assert json.loads(json.dumps(counters)) == {
        "solvers.iterations": 70, "cli.trace_rows": 71, "experiments.cells_error": 0}
