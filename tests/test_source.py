import ast
from pathlib import Path

SOURCES = sorted((Path(__file__).parent.parent / "src" / "ordist").glob("*.py"))


def test_no_assert_statements_in_the_package():
    """Invariants raise explicitly, so they survive python -O."""
    assert len(SOURCES) >= 10
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
