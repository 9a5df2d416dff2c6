"""Acceptance gate: every numbered criterion runs at its stated tolerance.

Each criterion prints its one-line verdict (visible with -s or in the
failure report); the suite fails if any criterion fails.
"""

import sys

import pytest

from minsurf import acceptance
from minsurf.acceptance import REGISTRY
from minsurf.fields import ScalarField

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


def _criterion_07():
    return acceptance.run_all(["07-curvature-rates-at-zero-locus"])[0]


def test_criterion_07_checks_the_centre_value_and_the_sign_at_negative_t():
    d = _criterion_07().details
    assert d["centre_error_vs_1_minus_t"] <= d["centre_tolerance"] == 1e-5
    assert d["lambda_plus_at_negative_t"] > 1.0


def test_criterion_07_fails_for_the_negated_field(monkeypatch):
    # the flows are cached across the session: flow the negated field on an
    # empty cache, and leave none of its flows behind
    bump = acceptance._bump

    def negated(n):
        b = bump(n)
        return ScalarField(b.spec, -b.values)

    monkeypatch.setattr(acceptance, "_bump", negated)
    acceptance._curvatures.cache_clear()
    try:
        r = _criterion_07()
    finally:
        acceptance._curvatures.cache_clear()
    assert not r.passed
    # each of the two checks on lambda+ fails on its own
    assert r.details["centre_error_vs_1_minus_t"] > 1e-5
    assert r.details["lambda_plus_at_negative_t"] < 1.0


def test_run_all_flows_each_chart_and_time_once(monkeypatch):
    # the flow cache is shared across the session: start it empty
    acceptance._curvatures.cache_clear()
    flows = []
    inner = acceptance.normal_flow

    def counted(g, f, t):
        flows.append((g.spec.ny, t))
        return inner(g, f, t)

    monkeypatch.setattr(acceptance, "normal_flow", counted)
    acceptance.run_all()
    assert sorted(flows) == sorted(
        [(128, t) for t in acceptance._SWEEP] + [(128, -1e-3), (64, 1e-3)])
