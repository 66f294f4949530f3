"""The benchmark's tracer (benchmarks/tracing.py) wraps package functions by
the name under which a livlr module binds them. A binding that stops
resolving only prints "tracing: not bound" and reads 0, so a rename in the
package must fail here instead. The workloads also call package names
directly; a rename of one of those must fail here too, not in a benchmark
run."""
import ast
import importlib
import importlib.util
import sys
from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
TRACING = BENCHMARKS / "tracing.py"


def tracer_bindings():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.BINDINGS


def test_every_tracer_binding_resolves():
    bindings = tracer_bindings()
    assert bindings
    missing = []
    for owner, attr, _layer in bindings:
        mod_name, _, cls_name = owner.partition(":")
        # import_module, not getattr: the package's train attribute is the function
        target = importlib.import_module(mod_name)
        if cls_name:
            target = getattr(target, cls_name)
            found = callable(vars(target).get(attr))
        else:
            found = callable(getattr(target, attr, None))
        if not found:
            missing.append(f"{owner}.{attr}")
    assert not missing, f"tracer bindings that no longer resolve: {missing}"


def _package_names(tree) -> set[tuple[str, str]]:
    """(module, attribute) for every ``livlr.attr``, ``from livlr.x import
    attr`` and ``sys.modules["livlr.x"].attr`` in a parsed file."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("livlr"):
            names.update((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id == "livlr":
                names.add(("livlr", node.attr))
            elif (isinstance(base, ast.Subscript) and isinstance(base.slice, ast.Constant)
                  and str(base.slice.value).startswith("livlr")):
                names.add((base.slice.value, node.attr))
    return names


def test_every_package_name_the_workloads_use_resolves():
    used = set()
    for script in ("workloads.py", "worker.py"):
        used |= _package_names(ast.parse((BENCHMARKS / script).read_text(encoding="utf-8")))
    # the calls the workloads cannot do without, so the scan cannot go blind
    assert {("livlr", "no_grad"), ("livlr", "backward"), ("livlr.tensor", "tape_size"),
            ("livlr", "load_model_from"), ("livlr", "save_checkpoint")} <= used
    missing = sorted(
        f"{mod}.{attr}" for mod, attr in used
        if not hasattr(importlib.import_module(mod), attr)
    )
    assert not missing, f"package names the benchmark uses that no longer resolve: {missing}"


def test_audit_workload_oracle_check_runs(monkeypatch):
    # audit-tiny's collect step reads DaVL's parameters and calls the loop
    # oracle by name; a rename there must fail here, not in a benchmark run
    from types import SimpleNamespace

    from oracles import max_rel_err

    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location("benchmark_workloads", BENCHMARKS / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclass looks itself up
    spec.loader.exec_module(workloads)
    audit = workloads.AuditTiny()
    st = audit.setup(seed=0, workdir="")
    stub = SimpleNamespace(entries=[], passed=True, tolerance=audit.TOLERANCE)
    evidence = audit.collect(st, [[stub] * len(st.cfgs)])
    assert [c["setting"] for c in evidence["combos"]] == ["OE", "MC"]
    for combo in evidence["combos"]:
        assert max_rel_err(combo["integrate"], combo["oracle"]) <= 1e-6, combo["setting"]
