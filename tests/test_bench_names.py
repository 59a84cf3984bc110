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


# One op per command, which together reach every traced function.
_OPS = (
    ["inspect", "40", "33"], ["flip", "2"], ["nef", "5", "4", "1", "-2"], ["bundle", "1", "10", "10"],
    ["moduli", "22"], ["kobayashi", "9", "8"], ["monomials", "10"], ["classify", "40", "40", "--d0", "33"],
)


def test_every_traced_name_is_called_by_one_op_per_command(monkeypatch, capsys):
    # The order test derives a pattern's verdict once per process, so the
    # local support is reached only with the verdicts forgotten.  The parser
    # keeps the handlers it was built with, so it is built anew under the
    # tracer, and again after it.
    tracer = _load_tracer()
    cli = importlib.import_module(f"{tracer.PACKAGE}.cli")
    singularities = importlib.import_module(f"{tracer.PACKAGE}.singularities")
    monkeypatch.setattr(singularities, "_VERDICTS", {})
    spans = tracer.Tracer()
    cli.build_parser.cache_clear()
    spans.install()
    try:
        codes = [cli.main(["-f", "json", *argv]) for argv in _OPS]
    finally:
        spans.uninstall()
        cli.build_parser.cache_clear()
    capsys.readouterr()
    assert codes == [0] * len(_OPS)
    calls = spans.summary()["calls"]
    for mod, fns in tracer.LAYER_FUNCTIONS.items():
        for fn in fns:
            assert calls.get(f"{mod}.{fn}", 0) >= 1, f"{mod}.{fn}"
    for fn in (fn for fns in tracer.CLI_PHASES.values() for fn in fns):
        assert calls.get(f"cli.{fn}", 0) >= 1, f"cli.{fn}"
    # `cli.serialize`, which lists no name, is the `cmd_*` handlers.
    assert sum(n for name, n in calls.items() if name.startswith("cli.cmd_")) >= 1
