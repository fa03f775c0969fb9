"""The names the benchmark tracer rebinds still exist.

``bench/tracer.py`` wraps public functions at their owner and at each
module that imports them.  A refactor that drops or renames one of
those names would otherwise show up only in a traced benchmark run.
The tracer module is loaded from its file and nothing is installed.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = load_targets()


@pytest.mark.parametrize("name, owner, attr, sites",
                         [t[:4] for t in TARGETS], ids=[t[0] for t in TARGETS])
def test_traced_name_is_bound(name, owner, attr, sites):
    for target in [owner] + sites:
        assert attr in target.__dict__, (name, target.__name__)
