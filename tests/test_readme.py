"""README's library quick start, run as written.

Each expression line of the `## Library quick start` block whose comment
starts with a value (a repr such as `True`, `2` or `ShellingCheck(...)`)
must evaluate to exactly that value, so a change to the documented API
fails here rather than in a reader's session.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"
RESULT = re.compile(r"(True|False|None|-?\d+|[A-Z]\w*\()")


def quick_start_source():
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_quick_start_results():
    source = quick_start_source()
    lines = source.splitlines()
    namespace = {}
    checked = []
    for stmt in ast.parse(source).body:
        comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
        if isinstance(stmt, ast.Expr):
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), namespace)
            if RESULT.match(comment):
                assert re.match(re.escape(repr(value)) + r"(?!\w)", comment), \
                    (ast.unparse(stmt), value)
                checked.append(repr(value))
        else:
            exec(compile(ast.Module([stmt], []), "README.md", "exec"), namespace)
    assert checked == [
        "ReisnerVerdict(is_cm=False, witness=(frozenset(), 0))",
        "False",
        "ShellingCheck(ok=True, witness=None)",
        "True",
        "2",
    ]
