"""Only ``expsum.files`` reads and decodes input files.

Walks the package's sources: a file read (``read_text``, ``read_bytes``, an
``open`` in read mode) or a JSON parse (``json.loads``, ``json.load``)
anywhere else is a second place deciding how input is read and reported.
The one exception is the HTTP client's parse of a response body, which is
not a file."""

import ast
from pathlib import Path

import expsum

SOURCES = Path(expsum.__file__).parent
READER = "files.py"
ALLOWED = {("llm.py", "HttpLlmClient.complete")}


def _is_read_mode_open(call: ast.Call) -> bool:
    name = call.func.attr if isinstance(call.func, ast.Attribute) else getattr(call.func, "id", None)
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (k.value for k in call.keywords if k.arg == "mode"), None
    )
    if mode is None:
        return True
    return not (isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"))


def _reads(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Attribute):
        if func.attr in ("read_text", "read_bytes"):
            return True
        if func.attr in ("loads", "load") and getattr(func.value, "id", None) == "json":
            return True
    return _is_read_mode_open(call)


def file_reads(path: Path) -> list[tuple[str, str, int]]:
    """``(file, enclosing function, line)`` of each read or JSON parse."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and _reads(child):
                found.append((path.name, scope, child.lineno))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8")), "")
    return found


def test_only_the_reader_module_reads_input_files():
    reads = [r for path in sorted(SOURCES.glob("*.py")) for r in file_reads(path)]
    assert [r for r in reads if r[0] != READER and r[:2] not in ALLOWED] == []
    assert {r[0] for r in reads} == {READER, "llm.py"}  # the walk sees both
