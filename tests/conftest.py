"""Shared fixtures: cached micro/small worlds and observatories.

World construction is deterministic and cached per process (see
``repro.world.scenarios``), so the suite builds each scale once.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.world.observe import Observatory
from repro.world.scenarios import (
    micro_world,
    small_observatory,
    small_world,
)


@pytest.fixture(scope="session")
def world():
    """Micro-scale world for unit tests."""
    return micro_world()


@pytest.fixture(scope="session")
def observatory():
    """Observation cache over the micro world."""
    return Observatory(micro_world())


@pytest.fixture(scope="session")
def day0(observatory):
    """The first observed day of the micro world."""
    return observatory.day(0)


@pytest.fixture(scope="session")
def integration_world():
    """Small-scale world for integration tests."""
    return small_world()


@pytest.fixture(scope="session")
def integration_observatory():
    """Observation cache over the small world."""
    return small_observatory()


@pytest.fixture()
def rng():
    """Fresh deterministic RNG per test."""
    return np.random.default_rng(1234)
