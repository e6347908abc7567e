#!/usr/bin/env python3
"""List the statements of src/qgames that the test suite never runs.

    python scripts/line_trace.py

Installs a line tracer (``sys.settrace`` and ``threading.settrace``) before
qgames is imported, runs ``pytest -q tests`` in this process, then prints
``path:line: source`` for each statement under src/qgames that no traced
frame reached. Statements come from ``ast``; docstrings are not counted.
Tests that run qgames in a subprocess are not traced, so what only they run
is listed. The stdlib ``trace`` module is not used: it caches its ignore
decisions by bare module name, which once skipped ``qgames/errors.py``.
The suite runs about twice as slow as untraced; the exit status is pytest's.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qgames"

ran = defaultdict(set)     # file name -> line numbers a line event reached
ours = {}                  # code file name -> whether it is under PACKAGE


def local(frame, event, arg):
    if event == "line":
        ran[frame.f_code.co_filename].add(frame.f_lineno)
    return local


def tracer(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in ours:
        ours[name] = Path(name).resolve().is_relative_to(PACKAGE)
    return local if ours[name] else None


def statements(tree):
    """Each statement's lines that a line event can land on: a simple statement's
    whole span, a compound statement's lines up to its first body statement."""
    scopes = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, scopes) and ast.get_docstring(node, clean=False) is not None}
    for node in ast.walk(tree):
        if isinstance(node, ast.stmt) and id(node) not in docstrings:
            body = getattr(node, "body", None)
            start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
            end = max(node.lineno, body[0].lineno - 1) if isinstance(body, list) else node.end_lineno
            yield start, end


def main():
    os.chdir(ROOT)
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    hits = defaultdict(set)
    for name, lines in ran.items():
        hits[Path(name).resolve()] |= lines
    print(f"\nstatements of {PACKAGE.relative_to(ROOT)} that no test ran:")
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for start, end in sorted(statements(ast.parse(source))):
            if not hits[path] & set(range(start, end + 1)):
                print(f"{path.relative_to(ROOT)}:{start}: {lines[start - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
