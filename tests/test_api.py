"""Every name a module exports resolves, so deletions leave no dead
exports, no module imports a name it never reads, every record field is
read, no guard is an assert statement, every name the benchmark tracer
reads is still there, each runner reads exactly the config fields its
kind accepts, and the package raises three exception classes, one per CLI
exit code, which the CLI catches by name."""

import ast
import builtins
import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import gridhalo
from gridhalo import cli, config, experiments, maxop
from gridhalo.config import ExperimentConfig
from gridhalo.grid import DyadicGrid, GridSet, StepFunction

MODULES = sorted(m.name for m in pkgutil.iter_modules(gridhalo.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"gridhalo.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"gridhalo.{name}.__all__ names missing attributes: {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_read(name):
    # a name bound by an import must be read somewhere in the module, or
    # re-exported through __all__; a deletion that leaves its import behind
    # fails here (the package's __init__ imports only to re-export)
    module = importlib.import_module(f"gridhalo.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    unread = imported - read - set(getattr(module, "__all__", ()))
    assert not unread, f"gridhalo.{name} imports names it never reads: {sorted(unread)}"


def test_every_record_field_is_read():
    # a dataclass field must be read somewhere in the package: as an
    # attribute load, or as a string constant naming it (ExperimentConfig's
    # __post_init__ reads its fields through getattr); a field that is only
    # ever set fails here
    read = set()
    for path in Path(gridhalo.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                read.add(node.value)
    unread = [
        f"{cls.__module__}.{cls.__name__}.{field.name}"
        for name in MODULES
        for cls in vars(importlib.import_module(f"gridhalo.{name}")).values()
        if isinstance(cls, type) and dataclasses.is_dataclass(cls) and cls.__module__ == f"gridhalo.{name}"
        for field in dataclasses.fields(cls)
        if field.name not in read
    ]
    assert not unread, f"record fields nothing reads: {unread}"


def test_the_package_has_no_assert_statement():
    # python -O strips assert statements, so a guard written as one would
    # let the run go on unchecked; the package raises instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(gridhalo.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in gridhalo: {found}"


def _tracer():
    """``perfbench/tracer.py``, loaded from its path (perfbench is no package)."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_benchmark_tracer_finds_what_it_reads():
    # perfbench/run.py --trace 1 wraps every module of LAYERS and counts a
    # step function's mass through StepFunction.mode and .values, so a
    # deletion of any of them breaks the traced benchmark
    tracer = _tracer()
    for layer in tracer.LAYERS:
        importlib.import_module(f"gridhalo.{layer}")
    grid = DyadicGrid((2, 2))
    mask = np.zeros(grid.shape, dtype=bool)
    mask[1:3, 1:3] = True
    f = StepFunction.indicator(GridSet(grid, mask), Fraction(5, 2))
    assert f.mode == "rational" and f.values.shape == grid.shape
    assert tracer._cell_mass(f) == 10
    hooked = {"f", "shapes", "basis", "r", "ladder"}
    for name in ("max_field_fast", "max_field_brute"):
        assert hooked <= set(inspect.signature(getattr(maxop, name)).parameters)


def _fields_read(kind):
    """The config fields the ``kind`` runner reads, in its own body and in
    every private helper of ``experiments`` that it calls, transitively."""
    tree = ast.parse(Path(experiments.__file__).read_text())
    defs = {fn.name: fn for fn in tree.body if isinstance(fn, ast.FunctionDef)}
    read, seen, todo = set(), set(), [cli._RUNNERS[kind].__name__]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == "config":
                    read.add(node.attr)
            elif isinstance(node, ast.Name) and node.id.startswith("_") and node.id in defs:
                todo.append(node.id)
    return read


@pytest.mark.parametrize("kind", sorted(cli._RUNNERS))
def test_each_runner_reads_exactly_its_declared_fields(kind):
    # the read table decides which keys a run accepts, so a field the
    # runner reads but the table lacks could not be set, and one the table
    # lists but the runner never reads would be silently ignored; out is a
    # path every kind takes, kind picks the runner in cli
    assert _fields_read(kind) - {"kind", "out"} == set(config._READ_DEFAULTS[kind])


def test_no_runner_repeats_the_run_frame():
    # cli.main builds the report, times the runner call and writes the
    # report; a runner that built its own or kept a span of its own would
    # lose it or report a second total
    tree = ast.parse(Path(experiments.__file__).read_text())
    runners = {fn.__name__ for fn in cli._RUNNERS.values()}
    found = [
        f"{fn.name}:{node.lineno}"
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name in runners
        for node in ast.walk(fn)
        if (isinstance(node, ast.Attribute) and node.attr == "timings")
        or (isinstance(node, ast.Call) and ast.unparse(node.func).endswith("RunReport"))
        or (isinstance(node, ast.Return) and node.value is not None)
    ]
    assert not found, f"runners that repeat the frame: {found}"


def test_every_config_field_is_read_by_a_runner():
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    assert set(config._PARSERS) == fields - {"kind"}
    unread = fields - {"kind", "out"} - set().union(*config._READ_DEFAULTS.values())
    assert not unread, f"config fields no runner reads: {sorted(unread)}"


# the CLI exits 2, 3 and 4 on these
EXIT_CLASSES = {"ConfigError", "InfeasibleError", "VerificationError"}


def test_the_package_defines_one_exception_class_per_exit_code():
    # a class derives from an exception when one of its bases is a builtin
    # exception or a class found so far; an infeasible condition raised
    # under a class of its own would leave the CLI with a traceback
    builtin = {
        name
        for name, obj in vars(builtins).items()
        if isinstance(obj, type) and issubclass(obj, BaseException)
    }
    classes = [
        (f"{path.stem}.{node.name}", node.name, {ast.unparse(b).split(".")[-1] for b in node.bases})
        for path in sorted(Path(gridhalo.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    found = []
    while new := [c for c in classes if c not in found and c[2] & (builtin | {n for _, n, _ in found})]:
        found += new
    assert sorted(where for where, _, _ in found) == [
        "config.ConfigError",
        "grid.InfeasibleError",
        "grid.VerificationError",
    ]


def test_cli_main_catches_exactly_the_three_classes():
    tree = ast.parse(Path(cli.__file__).read_text())
    (main,) = [n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "main"]
    caught = {
        ast.unparse(h.type) if h.type else "<bare>"
        for h in ast.walk(main)
        if isinstance(h, ast.ExceptHandler)
    }
    assert caught == EXIT_CLASSES
