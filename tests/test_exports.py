"""`maxmaxflow.__all__` against the names the package binds: each entry once,
each entry importable, and each public name of `maxmaxflow/__init__.py` listed,
so an export that is half removed fails here."""
from types import ModuleType

import maxmaxflow


def test_all_has_no_duplicates():
    assert len(maxmaxflow.__all__) == len(set(maxmaxflow.__all__))


def test_every_export_resolves():
    assert [name for name in maxmaxflow.__all__ if not hasattr(maxmaxflow, name)] == []


def test_every_public_name_is_exported():
    # the submodules are bound as attributes by the imports, and are not exports
    public = {
        name for name, value in vars(maxmaxflow).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert sorted(public - set(maxmaxflow.__all__)) == []
