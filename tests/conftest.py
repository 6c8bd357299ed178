"""Fixtures shared across the suites."""

import pytest


@pytest.fixture
def executor(request):
    """The executor a service test builds its service on: ``thread``,
    the default, or the ``executor`` of the test's class (see
    :func:`tests.executors.on_process`)."""
    return getattr(request.cls, "executor", "thread")
