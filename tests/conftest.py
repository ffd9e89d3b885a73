"""Suite-wide checks."""

import ast
import os

import pytest

from nvscope import fieldcore


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps the processes it starts (the workers that
    fieldcore.run_ranges forks for the field kernel, the frame fill, the
    sensitivity's repeats and the fit): none may be left running or
    unreaped."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail("a child process is left running" if pid == 0 else
                f"child process {pid} was left unreaped")


@pytest.fixture
def forks(monkeypatch):
    """The os.fork calls of this process during the test, counted:
    len(forks) is the number of workers forked so far. run_ranges is
    nvscope's one caller of os.fork (test_fieldcore checks it)."""
    calls = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


@pytest.fixture
def cpus(monkeypatch):
    """cpus(n) makes n the usable CPUs of every worker count
    (fieldcore.workers_for, nvscope's one reader of usable_cpus) for the
    rest of the test."""
    def set_cpus(n):
        monkeypatch.setattr(fieldcore, "usable_cpus", lambda: n)
    return set_cpus


@pytest.fixture
def references():
    """references(tree) yields the names that an ast tree reaches:
    attributes, names, imported names and hasattr/getattr strings."""
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.alias):
                yield node.name
            elif (isinstance(node, ast.Call) and getattr(
                    node.func, "id", None) in ("hasattr", "getattr")):
                yield from (arg.value for arg in node.args
                            if isinstance(arg, ast.Constant))
    return names
