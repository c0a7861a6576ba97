"""Shared fixtures: small app instances and tilings used across suites."""

import os
import tempfile

import pytest
from hypothesis import settings

from repro.apps import adi, jacobi, sor
from repro.native.compile import (
    NativeCompileError,
    compile_shared_object,
    find_compiler,
)

# The nightly job's profile (``--hypothesis-profile nightly``): the ring
# property tests of tests/runtime/test_schedule_property.py read its
# name and draw ten times their tier-1 examples, from the seed
# ``--hypothesis-seed`` fixes; a failure prints its reproduce blob.
# Tier-1 runs the default profile.
settings.register_profile("nightly", print_blob=True)


def _cc_usable():
    """True iff a working C compiler is present (probe compile).

    Under ``CC=/bin/false`` (the supported degradation drill) every
    compiled run skips and the rest still runs, so the suites stay
    green without a toolchain.
    """
    cc = find_compiler()
    if cc is None:
        return False
    try:
        with tempfile.TemporaryDirectory() as tmp:
            compile_shared_object(
                cc, "int repro_probe(void) { return 0; }\n",
                os.path.join(tmp, "probe.so"))
    except NativeCompileError:
        return False
    return True


#: Marks a test that compiles and runs C: the native engine's kernels
#: or the sequential tiled text.
requires_cc = pytest.mark.skipif(
    not _cc_usable(), reason="no working C compiler")


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
