import pytest

from modskein.bundles import (sweedler_bundle, trivial_bundle, uqsl2_bundle,
                              z2_bundle, z4_bundle)


@pytest.fixture(scope="session")
def z2():
    return z2_bundle()


@pytest.fixture(scope="session")
def sweedler():
    return sweedler_bundle()


@pytest.fixture(scope="session")
def z4():
    return z4_bundle()


@pytest.fixture(scope="session")
def trivial():
    return trivial_bundle()


@pytest.fixture(scope="session")
def uqsl2_p2():
    return uqsl2_bundle(2)


try:
    from hypothesis import settings
except ImportError:  # a test extra: only the property tests need it
    pass
else:
    # A fixed seed and no per-example deadline: the tier-1 run draws the same
    # examples every time, and a busy machine cannot turn slowness into a
    # failure.  No example database, so a run writes nothing into the tree.
    settings.register_profile("modskein", derandomize=True, deadline=None,
                              database=None)
    settings.load_profile("modskein")
