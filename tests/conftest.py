"""Suite-wide checks."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps the processes it starts (the field kernel's
    workers, fit_cube's pool): none may be left running or unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is left running" if pid == 0 else
                f"child process {pid} was left unreaped")
