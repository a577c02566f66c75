"""The package's public names: each is written once, in ``_EXPORTS``, and
imported from its module the first time it is asked for."""

from importlib import import_module

import pytest

import citemetrics


def test_a_star_import_binds_exactly_all():
    namespace = {}
    exec("from citemetrics import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(citemetrics.__all__)
    assert citemetrics.__all__ == list(citemetrics._EXPORTS)


@pytest.mark.parametrize("name", sorted(citemetrics._EXPORTS))
def test_each_name_is_the_object_of_its_defining_module(name):
    module = import_module(f"citemetrics.{citemetrics._EXPORTS[name]}")
    value = getattr(citemetrics, name)
    assert value is getattr(module, name)
    assert getattr(value, "__module__", module.__name__) == module.__name__
    assert name in dir(citemetrics)


def test_the_ledger_is_defined_by_the_matrix_and_still_found_in_ingest():
    from citemetrics import ingest, matrix

    assert citemetrics.PublicationLedger is matrix.PublicationLedger is ingest.PublicationLedger
    assert citemetrics.__dict__["PublicationLedger"] is matrix.PublicationLedger  # kept after first use
    assert ingest.MAX_COUNT is matrix.MAX_COUNT


def test_an_unknown_name_raises_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="^module 'citemetrics' has no attribute 'no_such_name'$"):
        citemetrics.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from citemetrics import no_such_name", {})
