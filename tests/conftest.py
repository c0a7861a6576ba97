"""Shared fixtures: small app instances and tilings used across suites."""

import pytest
from hypothesis import settings

from repro.apps import adi, jacobi, sor

# The nightly job's profile (``--hypothesis-profile nightly``): the ring
# property tests of tests/runtime/test_schedule_property.py read its
# name and draw ten times their tier-1 examples, from the seed
# ``--hypothesis-seed`` fixes; a failure prints its reproduce blob.
# Tier-1 runs the default profile.
settings.register_profile("nightly", print_blob=True)


@pytest.fixture(scope="session")
def sor_small():
    return sor.app(4, 6)


@pytest.fixture(scope="session")
def jacobi_small():
    return jacobi.app(3, 5, 5)


@pytest.fixture(scope="session")
def adi_small():
    return adi.app(4, 5)


@pytest.fixture(scope="session")
def sor_reference_small():
    return sor.reference(4, 6)


@pytest.fixture(scope="session")
def jacobi_reference_small():
    return jacobi.reference(3, 5, 5)


@pytest.fixture(scope="session")
def adi_reference_small():
    return adi.reference(4, 5)


def values_close(a, b, tol=1e-11):
    """Dict-to-dict comparison with exact key sets."""
    return set(a) == set(b) and all(abs(a[k] - b[k]) < tol for k in a)
