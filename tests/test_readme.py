"""The README's Library block runs, and each `expr  # literal` line holds.

A checked line's literal is the comment text before its first colon, so
`lattice_index(lattice_coordinates(first_row_differences(M), V))  # 1: [V(S) : W(S)]`
checks against 1.
"""

import ast
import re
from pathlib import Path

from arfrf import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_block_values():
    source = library_block()
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        line = lines[stmt.lineno - 1]
        code = ast.get_source_segment(source, stmt)
        if "#" not in line:
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        assert isinstance(stmt, ast.Expr), f"commented line is not an expression: {line}"
        literal = line.split("#", 1)[1].split(":", 1)[0].strip()
        value = eval(compile(code, "README.md", "eval"), namespace)
        assert value == ast.literal_eval(literal), f"{code} gives {value!r}, README says {literal}"
        checked += 1
    assert checked == source.count("#")
    assert checked > 0


def test_exit_codes_match_the_cli_docstring():
    # the README table and the module docstring of arfrf.cli list the same codes
    table = README.read_text(encoding="utf-8").split("\n### Exit codes\n", 1)[1].split("\n#", 1)[0]
    readme_codes = set(re.findall(r"^\| (\d+) \|", table, re.MULTILINE))
    docstring = cli.__doc__.split("Exit codes:\n", 1)[1]
    cli_codes = set(re.findall(r"^  (\d+)  ", docstring, re.MULTILINE))
    assert readme_codes == cli_codes
    assert {"0", "74", "141"} <= cli_codes
