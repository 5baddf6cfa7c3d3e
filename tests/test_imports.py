import ast
from pathlib import Path

import moirl

PACKAGE = Path(moirl.__file__).parent


def private_imports(path):
    """``module.name`` for each underscore name that ``path`` imports from
    another module of the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "moirl"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield f"{path.stem}: {node.module}.{alias.name}"


def test_no_module_imports_another_modules_private_names():
    sources = sorted(PACKAGE.glob("*.py"))
    assert len(sources) >= 10
    assert [imp for src in sources for imp in private_imports(src)] == []
