import pytest

import gabp
from gabp import analysis, cones, engine, network, oracle


@pytest.mark.parametrize("module", [gabp, network, engine, oracle, analysis, cones])
def test_every_exported_name_resolves(module):
    # The benchmark's tracer wraps each entry, so a stale one would crash it.
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
