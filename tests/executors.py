"""Run a service suite's executor-dependent tests on both executors.

A test that builds its service with ``executor=executor`` (the fixture
in ``tests/conftest.py``) runs on ``thread`` where it is defined.
:func:`on_process` collects the same function objects into one more
class whose ``executor`` is ``process``, so each test keeps its id on
the default executor and gains a twin on the other, and both answer to
one body.
"""


def on_process(*members):
    """A test class holding ``members`` — test functions and the
    helper methods they call — with ``executor = "process"``."""
    return type("TestOnProcessExecutor", (), {
        "__doc__": "The tests above, on the process executor.",
        "executor": "process",
        **{m.__name__: m for m in members},
    })
