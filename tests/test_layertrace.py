"""The benchmark's layer tracer names the functions it wraps by module and
attribute, so a rename in ramseykit would break `--trace 1` only when that
runs.  The tracer is loaded by path and never installed here."""

import importlib
import importlib.util
from pathlib import Path

from ramseykit.ledger import Ledger

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "layertrace.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("layertrace", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    tracer = _load_tracer()
    for mod, attr, _, _ in tracer.FUNCTIONS:
        module = importlib.import_module(f"ramseykit.{mod}")
        assert callable(getattr(module, attr, None)), f"ramseykit.{mod}.{attr}"
    for attr, _, _ in tracer.LEDGER_METHODS:
        assert callable(getattr(Ledger, attr, None)), f"Ledger.{attr}"
    # install() also wraps these two by name
    assert isinstance(Ledger.__dict__["load"], classmethod)
    assert callable(Ledger.derive_closure)
