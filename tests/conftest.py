"""Checks that hold after every test."""

import pytest

from helpers import no_children


@pytest.fixture(autouse=True)
def _no_child_process_outlives_a_test():
    # a fan-out reaps every sibling it forks, on success and on failure
    yield
    assert no_children(), "the test left a child process behind"
