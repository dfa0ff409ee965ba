"""The benchmark's span tracer (``perfbench/spans.py``) wraps adncount
functions where the engine looks them up, by reading
``owner.__dict__[attr]``. A renamed or deleted name would surface only as a
KeyError under ``perfbench/run.py --trace 1``, so every name is checked
here, without installing the tracer."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    spans = load_spans()
    hooks = [(owner, attr) for owner, attr, _ in (*spans.LOOKUPS, *spans.FIRST_BUILDS)]
    assert len(hooks) > 20
    missing = [f"{owner.__name__}.{attr}" for owner, attr in hooks if attr not in vars(owner)]
    assert missing == []
