"""The package's public names and imports: every export in `__all__`
resolves, and the engine imports only the standard library."""

import ast
import sys
from pathlib import Path

import luncsim


def test_every_exported_name_resolves():
    missing = [name for name in luncsim.__all__ if not hasattr(luncsim, name)]
    assert missing == []
    assert len(set(luncsim.__all__)) == len(luncsim.__all__)


def test_engine_imports_only_the_standard_library():
    # imports inside functions count too, so walk the whole tree
    outside = []
    for path in sorted(Path(luncsim.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names | {"luncsim"}]
    assert outside == []
