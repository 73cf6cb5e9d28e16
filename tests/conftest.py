import pathlib

import pytest
from hypothesis import settings

from annote_kb import load_facts

# CI selects this profile with --hypothesis-profile=ci: the default example
# counts and deadlines, drawn from a seed fixed per test, so a red CI run
# replays locally with the same flag and the same examples.
settings.register_profile("ci", derandomize=True)

DATA = pathlib.Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def desk_text() -> str:
    return (DATA / "desk_fixture.facts").read_text(encoding="utf-8")


@pytest.fixture(scope="session")
def desk_canonical() -> str:
    return (DATA / "desk_fixture_canonical.facts").read_text(encoding="utf-8")


@pytest.fixture()
def desk_kb(desk_text):
    result = load_facts(desk_text)
    assert not result.diagnostics, result.diagnostics
    return result.kb
