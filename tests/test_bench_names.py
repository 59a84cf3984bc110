"""The library functions that the benchmark's tracer wraps by name exist.

`bench/tracer.py` looks each name up at install time; a renamed or deleted
function would only show up when the benchmark runs, so it is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_callable_of_its_module():
    tracer = _load_tracer()
    names = [(mod, fn) for mod, fns in tracer.LAYER_FUNCTIONS.items() for fn in fns]
    # `parse_args` is wrapped on `argparse.ArgumentParser`, not looked up in cli.
    names += [("cli", fn) for fns in tracer.CLI_PHASES.values() for fn in fns if fn != "parse_args"]
    for mod, fn in names:
        module = importlib.import_module(f"{tracer.PACKAGE}.{mod}")
        assert callable(getattr(module, fn, None)), f"{mod}.{fn}"
    linear_system = importlib.import_module(f"{tracer.PACKAGE}.linear_system")
    assert callable(linear_system.enumerate_monomials.cache_info)
