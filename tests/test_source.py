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
