"""Every target the frozen benchmark probes still exists under its name.

``perfbench/tracing.py`` instruments the program by replacing the
functions and methods listed in its ``PROBES`` table with timing shims,
resolving each one as ``owner.__dict__[attr]`` (so an inherited or
renamed method does not count).  A deleted target breaks every traced
benchmark run.  This test reads ``perfbench/`` and never edits it.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _probes() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PROBES


PROBES = _probes()


@pytest.mark.parametrize(
    "module_name,owner_name,attr",
    [probe[:3] for probe in PROBES],
    ids=[".".join(p for p in probe[:3] if p) for probe in PROBES],
)
def test_probe_target_resolves(module_name, owner_name, attr):
    # The same lookup as ``instrumented()``.
    module = importlib.import_module(module_name)
    owner = getattr(module, owner_name) if owner_name else module
    original = owner.__dict__[attr] if owner_name else getattr(owner, attr)
    assert callable(original)
