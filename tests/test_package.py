"""The package namespace: every public name resolves lazily to its home."""

import pytest

import oscmap
from oscmap import analysis, phasemap, schemes, series, sim

SUBMODULES = (series, schemes, phasemap, analysis, sim)


@pytest.mark.parametrize("name", [n for n in oscmap.__all__ if n != "__version__"])
def test_public_name_is_its_home_modules_object(name):
    homes = [m for m in SUBMODULES if name in m.__all__]
    assert len(homes) == 1, homes
    assert getattr(oscmap, name) is getattr(homes[0], name)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from oscmap import *", namespace)
    assert set(oscmap.__all__) <= set(namespace)
    assert all(namespace[n] is getattr(oscmap, n) for n in oscmap.__all__)


def test_dir_lists_the_public_names():
    assert {"__all__", *oscmap.__all__} <= set(dir(oscmap))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'nope'"):
        oscmap.nope  # noqa: B018
    assert not hasattr(oscmap, "nope")
