"""The package's public names and imports: every export in `__all__`
resolves, the engine imports only the standard library, and every engine
function has a caller outside the tests."""

import ast
import io
import sys
import tokenize
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


def _identifiers(path: Path):
    """(name, line) for every name in code and every string literal that is
    one identifier (a `getattr` target or an `__all__` entry); comments and
    docstrings do not count."""
    for tok in tokenize.generate_tokens(io.StringIO(path.read_text(encoding="utf-8")).readline):
        if tok.type == tokenize.NAME:
            yield tok.string, tok.start[0]
        elif tok.type == tokenize.STRING:
            try:
                value = ast.literal_eval(tok.string)
            except (ValueError, SyntaxError):
                continue
            if isinstance(value, str) and value.isidentifier():
                yield value, tok.start[0]


def test_every_engine_function_has_a_non_test_caller():
    repo = Path(__file__).resolve().parents[1]
    engine = sorted((repo / "src" / "luncsim").glob("*.py"))
    assert engine
    defs = {}   # name -> [(path, first line, last line)]
    for path in engine:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)) \
                    and not (node.name.startswith("__") and node.name.endswith("__")):
                defs.setdefault(node.name, []).append((path, node.lineno, node.end_lineno))
    used = set()
    for path in engine + sorted((repo / "demos").glob("**/*.py")) \
            + sorted((repo / "perfbench").glob("**/*.py")):
        for name, line in _identifiers(path):
            if name in defs and not any(p == path and lo <= line <= hi
                                        for p, lo, hi in defs[name]):
                used.add(name)
    assert sorted(set(defs) - used) == []
