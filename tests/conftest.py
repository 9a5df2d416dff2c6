"""Shared fixtures: ODE profiles and charts reused across test modules.

Everything here is deterministic; session scope only saves rebuild time.
"""

import numpy as np
import pytest

from minsurf.fields import GridSpec, ScalarField
from minsurf import invariant_ode as iode
from minsurf import immersion as imm
from minsurf.geometry import SurfaceData


@pytest.fixture(scope="session")
def sol0():
    d = iode.estimate_delta(0.0)
    return iode.integrate(0.0, 0.9 * d, rtol=1e-10)


@pytest.fixture(scope="session")
def sol05():
    d = iode.estimate_delta(0.5)
    return iode.integrate(0.5, 0.9 * d, rtol=1e-10)


def _chart(sol, n: int) -> SurfaceData:
    spec = GridSpec.strip(1.0, n + 1, n)
    return iode.to_surface(sol, spec)


@pytest.fixture(scope="session")
def chart32(sol0):
    return _chart(sol0, 32)


@pytest.fixture(scope="session")
def chart64(sol0):
    return _chart(sol0, 64)


@pytest.fixture(scope="session")
def imm32(chart32):
    return imm.immerse(chart32)


@pytest.fixture(scope="session")
def imm64(chart64):
    return imm.immerse(chart64)


@pytest.fixture(scope="session")
def flat_chart():
    # u = 0 on a plain rectangle; quadratic test profiles are not periodic,
    # so this one stays non-periodic
    spec = GridSpec(nx=33, ny=33, hx=1 / 32, hy=1 / 32,
                    origin=(-0.5, -0.5), periodic_y=False)
    return SurfaceData(ScalarField.zeros(spec))
