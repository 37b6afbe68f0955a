"""numpy and scipy are runtime requirements, never optional.

The package keeps one numeric path.  This guard keeps it that way: both
libraries are declared in ``[project].dependencies``, and no module
under ``src/repro`` carries a ``HAVE_NUMPY``/``HAVE_SCIPY`` flag or an
``except ImportError`` around a numpy or scipy import.
"""

import ast
import re
from pathlib import Path

try:
    import tomllib
except ImportError:  # Python < 3.11
    tomllib = None

ROOT = Path(__file__).resolve().parents[1]
NUMERIC = ("numpy", "scipy")
IMPORT_ERRORS = ("ImportError", "ModuleNotFoundError")


def _imports_numeric(node) -> bool:
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        names = [node.module or ""]
    else:
        return False
    return any(name.split(".")[0] in NUMERIC for name in names)


def _catches_import_error(handler: ast.ExceptHandler) -> bool:
    if handler.type is None:
        return True
    kinds = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return any(isinstance(kind, ast.Name) and kind.id in IMPORT_ERRORS for kind in kinds)


def _guarded_numeric_imports(tree: ast.AST):
    """Line numbers of numpy/scipy imports inside ``try: … except ImportError``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Try) and any(map(_catches_import_error, node.handlers)):
            for stmt in node.body:
                for inner in ast.walk(stmt):
                    if _imports_numeric(inner):
                        yield inner.lineno


def test_numpy_and_scipy_are_required():
    problems = []
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        rel = path.relative_to(ROOT)
        for lineno, line in enumerate(source.splitlines(), 1):
            if re.search(r"HAVE_(NUMPY|SCIPY)", line):
                problems.append(f"{rel}:{lineno}: {line.strip()}")
        for lineno in _guarded_numeric_imports(ast.parse(source)):
            problems.append(f"{rel}:{lineno}: numpy/scipy import under except ImportError")
    assert problems == []

    if tomllib is not None:
        with open(ROOT / "pyproject.toml", "rb") as handle:
            dependencies = tomllib.load(handle)["project"]["dependencies"]
        declared = {re.split(r"[\s<>=!~;\[]", dep, maxsplit=1)[0].lower() for dep in dependencies}
        assert set(NUMERIC) <= declared, dependencies
