"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Each criterion prints its one-line verdict (visible with -s or in the
failure report); the suite fails if any criterion fails.
"""

import sys

import pytest

from minsurf import acceptance
from minsurf.acceptance import REGISTRY

NAMES = [name for name, _ in REGISTRY]


@pytest.mark.parametrize("name", NAMES)
def test_criterion(name):
    result = acceptance.run_all([name])[0]
    print(result.line())
    assert result.passed, result.line()


def test_run_all_immerses_each_chart_size_once(monkeypatch):
    # the immersion cache is shared across the session: start it empty
    acceptance._immersed.cache_clear()
    sizes = []
    real = sys.modules["minsurf.immersion"].immerse

    def counting(s, *args, **kwargs):
        sizes.append(s.spec.ny)
        return real(s, *args, **kwargs)

    # every minsurf module that imported immerse by name calls the counter
    for name, mod in list(sys.modules.items()):
        if name.startswith("minsurf") and getattr(mod, "immerse", None) is real:
            monkeypatch.setattr(mod, "immerse", counting)
    acceptance.run_all()
    assert sorted(sizes) == [32, 64, 128]


def test_lanes_partition_the_registry():
    # a new criterion must be placed in exactly one lane
    placed = [name for lane in acceptance.LANES.values() for name in lane]
    assert sorted(placed) == sorted(NAMES)
    assert len(set(placed)) == len(placed)
