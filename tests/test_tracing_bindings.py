"""The benchmark's tracer (benchmarks/tracing.py) wraps package functions by
the name under which a livlr module binds them. A binding that stops
resolving only prints "tracing: not bound" and reads 0, so a rename in the
package must fail here instead."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"


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
