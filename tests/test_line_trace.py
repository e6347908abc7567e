"""scripts/line_trace.py's `statements`: the line spans a line event can land on.

The script is loaded by path and its `main`, which runs the whole suite, is
never called.
"""

import ast
import importlib.util
import textwrap
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "line_trace.py"


@pytest.fixture(scope="module")
def statements():
    spec = importlib.util.spec_from_file_location("line_trace", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.statements


def spans(statements, source):
    return sorted(statements(ast.parse(textwrap.dedent(source))))


def test_docstrings_are_not_counted(statements):
    source = '''\
        """Module docstring."""
        class A:
            """Class docstring."""
            def f(self):
                """Function docstring."""
                "a string after the first statement is one"
        '''
    assert spans(statements, source) == [(2, 2), (4, 4), (6, 6)]


def test_a_decorated_def_starts_at_its_first_decorator(statements):
    source = """\
        import functools
        @functools.cache
        @staticmethod
        def f():
            return 1
        """
    assert spans(statements, source) == [(1, 1), (2, 4), (5, 5)]


def test_a_compound_statement_spans_up_to_its_first_body_statement(statements):
    source = """\
        if (1 and
                2):
            x = 1
            y = 2
        for i in []: z = 3
        """
    assert spans(statements, source) == [(1, 2), (3, 3), (4, 4), (5, 5), (5, 5)]


def test_a_multi_line_simple_statement_spans_all_its_lines(statements):
    source = """\
        x = max(
            1,
            2,
        )
        """
    assert spans(statements, source) == [(1, 4)]
