import ast
import dataclasses
import importlib
import types
from pathlib import Path

import crepcond
from crepcond import crep, empirical, linalg, problems, tensor, tucker

MODULES = (crep, empirical, linalg, problems, tensor, tucker)


def test_public_names_are_the_modules_all():
    public = {
        name
        for name, value in vars(crepcond).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set().union(*(module.__all__ for module in MODULES))
    for module in MODULES:
        for name in module.__all__:
            assert getattr(crepcond, name) is getattr(module, name), name


def test_benchmark_tracer_targets_exist():
    # perfbench/tracer.py wraps library functions and record fields by name.  Its tables are read
    # with ast, without importing perfbench, so a rename fails here and not only in a traced run.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    nodes = {
        node.targets[0].id: node.value
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
    }
    targets = ast.literal_eval(nodes["TARGETS"])
    assert targets
    for module, attr, _ in targets:
        # The tracer skips a module it cannot import and raises on a missing attribute.
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
    fields = {f.name for f in dataclasses.fields(crep.CrepProblem)}
    assert set(ast.literal_eval(nodes["PROBLEM_FIELDS"])) <= fields
    # The payloads read record fields off the result ``r`` of the wrapped call.
    payloads = dict(zip((k.value for k in nodes["PAYLOADS"].keys), nodes["PAYLOADS"].values))
    for span, record in (("resolve", empirical.ResolveResult), ("certify", crep.RankCertificate)):
        read = {
            n.attr for n in ast.walk(payloads[span])
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "r"
        }
        assert read and read <= {f.name for f in dataclasses.fields(record)}, span
