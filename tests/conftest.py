import pytest

from oracles import children_left


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a child process, live or unreaped (and end and
    reap the child)."""
    yield
    left = children_left()
    if left:
        pytest.fail(f"child processes left: {left}")
