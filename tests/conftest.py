import json
import pathlib

import pytest
from hypothesis import settings

from citemetrics import fixture
from citemetrics.fixture import load_fixture

DATA = pathlib.Path(__file__).parent / "data"

# A long run of the property tests, for a CI step of its own:
# pytest --hypothesis-profile=fuzz. The default profile keeps tier-1 in seconds.
settings.register_profile("fuzz", max_examples=10_000, deadline=None)


@pytest.fixture(scope="session")
def mjm():
    """The bundled sample dataset: a five-by-seven year matrix with both
    unique-new-journal blocks."""
    return load_fixture(DATA / "mjm_fixture.json")


@pytest.fixture()
def mjm_doc():
    """Raw fixture document, reloaded per test so mutation is safe."""
    return json.loads((DATA / "mjm_fixture.json").read_text())


@pytest.fixture(scope="session")
def golden_report_csv():
    return (DATA / "mjm_report_golden.csv").read_text()


@pytest.fixture(scope="session")
def golden_report_json():
    """stdout of ``citemetrics report --format structured`` on the bundled
    sample, byte for byte."""
    return (DATA / "mjm_report_golden.json").read_text()


@pytest.fixture()
def decodes(monkeypatch):
    """Empty load_fixture's slot, then count the JSON documents it decodes
    (one entry per call to ``json.load``)."""
    monkeypatch.setattr(fixture, "_last", None)
    calls = []
    real = json.load

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "load", counting)
    return calls
