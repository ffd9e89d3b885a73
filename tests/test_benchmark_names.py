"""The nvscope names that the benchmark scripts read must exist.

perfbench/ and benchmarks/ are parsed, not run: every attribute read on
an imported nvscope module (`analysis.fit_cube`, and the target of
`mock.patch.object(analysis, "fit_cube", ...)`), every
`from nvscope.m import X` name and every FIT_DTYPE field that the
rabi-fit workload reads off a fit record is looked up here. A change
that deletes or renames one of them fails this test, not the benchmark
run.
"""

import ast
import glob
import importlib
import os

from nvscope import analysis

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SCRIPTS = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py"))
                 + glob.glob(os.path.join(ROOT, "benchmarks", "*.py")))


def parse(path):
    with open(path) as fh:
        return ast.parse(fh.read(), filename=path)


def nvscope_names(tree):
    """(module, name) pairs the script reads from nvscope modules."""
    modules = {}  # local name -> nvscope module it is bound to
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module and (
                node.module.split(".")[0] == "nvscope"):
            for alias in node.names:
                names.add((node.module, alias.name))
                if node.module == "nvscope":
                    modules[alias.asname or alias.name] = (
                        f"nvscope.{alias.name}")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("nvscope.") and alias.asname:
                    modules[alias.asname] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            names.add((modules[node.value.id], node.attr))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "object" and len(node.args) >= 2
              and isinstance(node.args[0], ast.Name)
              and node.args[0].id in modules
              and isinstance(node.args[1], ast.Constant)):
            names.add((modules[node.args[0].id], node.args[1].value))
    return names


def record_fields(tree):
    """Attributes that RabiFit.run_unit reads off its comprehensions'
    loop variables, the fit records."""
    fields = set()
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and cls.name == "RabiFit"):
            continue
        for fn in cls.body:
            if not (isinstance(fn, ast.FunctionDef) and fn.name == "run_unit"):
                continue
            loops = {gen.target.id for gen in ast.walk(fn)
                     if isinstance(gen, ast.comprehension)
                     and isinstance(gen.target, ast.Name)}
            fields |= {node.attr for node in ast.walk(fn)
                       if isinstance(node, ast.Attribute)
                       and isinstance(node.value, ast.Name)
                       and node.value.id in loops}
    return fields


def exists(module, name):
    if hasattr(importlib.import_module(module), name):
        return True
    try:  # a submodule that nothing has imported yet
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_scripts_read_only_existing_nvscope_names():
    read = set()
    for path in SCRIPTS:
        read |= nvscope_names(parse(path))
    assert read
    missing = sorted(f"{module}.{name}" for module, name in read
                     if not exists(module, name))
    assert missing == []


def test_rabi_fit_workload_reads_only_fit_record_fields():
    fields = record_fields(parse(os.path.join(ROOT, "perfbench",
                                              "workloads.py")))
    assert fields
    assert sorted(fields - set(analysis.FIT_DTYPE.names)) == []
