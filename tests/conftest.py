import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test that leaves a multiprocessing child running (and end the child)."""
    yield
    left = multiprocessing.active_children()
    for child in left:
        child.terminate()
        child.join(5)
    if left:
        pytest.fail(f"child processes left running: {left}")
