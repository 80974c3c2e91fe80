import ast
import importlib
import sys
from pathlib import Path

import ordist

ROOT = Path(__file__).parent.parent
SOURCES = sorted((ROOT / "src" / "ordist").glob("*.py"))


def _assert_statements(paths):
    return [
        f"{path.name}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]


def test_no_assert_statements_in_the_package():
    """Invariants raise explicitly, so they survive python -O."""
    assert len(SOURCES) >= 10
    assert _assert_statements(SOURCES) == []


def test_no_assert_statements_in_the_test_helpers():
    """pytest rewrites asserts only in test modules and conftest, so under
    python -O an assert in a helper oracle would vanish silently."""
    helpers = [ROOT / "tests" / name for name in ("helpers.py", "strategies.py")]
    assert _assert_statements(helpers) == []


def test_the_package_imports_only_itself_and_the_standard_library():
    """pyproject declares no dependencies, so every import in the package
    names ordist (relative imports included) or a standard-library module."""
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "ordist" and top not in sys.stdlib_module_names:
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert found == []


def test_the_package_reads_no_environment_variables():
    """Behaviour is set by arguments alone: no module names os.environ or
    getenv, as an attribute, a bare name or an import."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for field in ("attr", "id", "name")
        if getattr(node, field, None) in ("environ", "environb", "getenv", "getenvb")
    ]
    assert found == []


def test_the_package_reads_no_clock():
    """Every report depends on the inputs alone, so no module imports time,
    timeit or datetime (plain, dotted or from-imports) or names a clock
    function, as an attribute or a bare name."""
    modules = ("time", "timeit", "datetime")
    clocks = (
        "perf_counter", "perf_counter_ns", "monotonic", "monotonic_ns", "process_time",
        "process_time_ns", "thread_time", "thread_time_ns", "time_ns",
    )
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                names = []
            if any(name.partition(".")[0] in modules for name in names) or any(
                getattr(node, field, None) in clocks for field in ("attr", "id", "name")
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_package_exports_exactly_the_library_modules_names():
    """ordist.__all__ holds each name of the eight library modules' __all__
    once and nothing else, so a name that leaves its module cannot stay
    exported from the package."""
    library = (
        "circular", "compat", "core", "flatlab",
        "formats", "generators", "order", "rankings",
    )
    module_names = [
        name
        for module in library
        for name in importlib.import_module(f"ordist.{module}").__all__
    ]
    exported = [name for name in ordist.__all__ if name != "__version__"]
    assert len(exported) == len(set(exported))
    assert len(module_names) == len(set(module_names))
    assert set(exported) == set(module_names)
    assert all(hasattr(ordist, name) for name in exported)


def test_sources_parse_as_python_3_10():
    """pyproject promises Python 3.10, so no file of the package, the tests
    or the benchmark may use syntax that needs a newer grammar."""
    paths = [
        path
        for folder in ("src/ordist", "tests", "perfbench")
        for path in sorted((ROOT / folder).glob("*.py"))
    ]
    assert len(paths) >= 25
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


def test_every_private_name_has_a_caller():
    """Each module-level private function, class or constant of the package
    is named somewhere in the package outside its own definition, so a
    helper does not outlive its last caller."""
    trees = [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]
    definitions = []
    for path, tree in zip(SOURCES, trees):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    n.id for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                ]
            else:
                continue
            definitions += [
                (f"{path.name}:{node.lineno} {name}", name, node)
                for name in names
                if name.startswith("_") and not name.startswith("__")
            ]
    uses = {}  # each name that is read, to the nodes that read it
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.setdefault(node.id, []).append(node)
        elif isinstance(node, ast.Attribute):
            uses.setdefault(node.attr, []).append(node)
    uncalled = []
    for where, name, definition in definitions:
        inside = {id(node) for node in ast.walk(definition)}
        if all(id(node) in inside for node in uses.get(name, ())):
            uncalled.append(where)
    assert len(definitions) >= 30
    assert uncalled == []
