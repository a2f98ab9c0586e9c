"""README's `## Library` example, run statement by statement.

An expression statement whose trailing comment is itself an expression
(`# Fraction(2, 1)`, `# 'CONSISTENT_UP_TO_M'`) must equal that value; a
statement whose comment is prose only has to run.
"""
import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    text = README.read_text()
    section = text[text.index("\n## Library\n"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _comments(source: str) -> dict[int, str]:
    """Line number -> the text of the comment ending that line."""
    return {
        tok.start[0]: tok.string.lstrip("#").strip()
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }


def _as_value(comment: str):
    """The comment parsed as an expression, or None for prose."""
    try:
        return compile(comment, "<comment>", "eval")
    except SyntaxError:
        return None


def test_library_example_values():
    source = _library_example()
    comments = _comments(source)
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        expected = _as_value(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and expected is not None:
            got = eval(code, namespace)
            assert got == eval(expected, namespace), code
            checked += 1
        else:
            exec(code, namespace)
    assert checked == 7
