"""`tractvar.__all__` names exactly the package's public API."""

import types

import tractvar


def test_every_exported_name_resolves():
    assert len(set(tractvar.__all__)) == len(tractvar.__all__)
    missing = [name for name in tractvar.__all__ if not hasattr(tractvar, name)]
    assert missing == []


def test_every_public_name_is_exported():
    public = {
        name
        for name, value in vars(tractvar).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public | {"__version__"} == set(tractvar.__all__)


def test_star_import_runs():
    namespace = {}
    exec("from tractvar import *", namespace)
    assert set(tractvar.__all__) <= set(namespace)
