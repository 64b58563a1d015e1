"""Shared fixtures: cached micro/small worlds and observatories.

World construction is deterministic and cached per process (see
``repro.world.scenarios``), so the suite builds each scale once.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from repro.world.observe import Observatory
from repro.world.scenarios import (
    micro_world,
    small_observatory,
    small_world,
)

#: ``--hypothesis-profile=sanitizers``: the native kernels run under
#: ASan + UBSan, several times slower, so no deadline, and ten times the
#: examples to reach the edges parity rarely draws.  Tests that set
#: their own ``max_examples`` get ten times that (see
#: :func:`pytest_collection_modifyitems`).
settings.register_profile(
    "sanitizers",
    max_examples=10 * settings.get_profile("default").max_examples,
    deadline=None,
)


def pytest_collection_modifyitems(items):
    """Scale each property test's own ``max_examples`` by the loaded
    profile's multiple of the default one (1 unless a profile such as
    ``sanitizers`` raises it)."""
    scale = (
        settings.default.max_examples
        // settings.get_profile("default").max_examples
    )
    if scale <= 1:
        return
    seen = set()
    for item in items:
        test = getattr(item, "obj", None)
        test = getattr(test, "__func__", test)
        if getattr(test, "_hypothesis_state_machine_class", None):
            owner, name = item.cls, "settings"
        elif getattr(test, "is_hypothesis_test", False):
            owner, name = test, "_hypothesis_internal_use_settings"
        else:
            continue
        own = getattr(owner, name)
        # A test without its own settings already runs the profile.
        if id(owner) in seen or own is settings.default:
            continue
        seen.add(id(owner))
        setattr(
            owner, name, settings(own, max_examples=own.max_examples * scale)
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
