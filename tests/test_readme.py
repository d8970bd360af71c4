"""The README's Python examples run as written."""

import re
import textwrap
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# A fenced Python block, indented as a list item's may be.
BLOCK = re.compile(r"^( *)```python\n(.*?)^\1```$", re.MULTILINE | re.DOTALL)
# A line that binds a name and gives its value in a closing comment.
STATED = re.compile(r"^(\w+) = .*#\s*(-?\d+(?:\.(\d+))?)\s*$", re.MULTILINE)


def runnable_blocks() -> list[tuple[int, str]]:
    """(line of the opening fence, code) of every Python block of the README
    that holds no ``...`` placeholder."""
    text = README.read_text(encoding="utf-8")
    return [
        (text.count("\n", 0, m.start()) + 1, textwrap.dedent(m.group(2)))
        for m in BLOCK.finditer(text)
        if "..." not in m.group(2)
    ]


def test_python_blocks_run_and_give_the_values_their_comments_state(tmp_path, monkeypatch):
    """Each block runs in a fresh namespace, in a temporary directory, and a
    name whose line closes with a number holds that number to the digits
    shown.  A traceback names the block as ``README.md:<line>``."""
    blocks = runnable_blocks()
    assert any("triangular_from_halfwidth(5, 2), triangular_from_halfwidth(6, 2)" in code for _, code in blocks)
    monkeypatch.chdir(tmp_path)
    for line, code in blocks:
        namespace = {}
        exec(compile(code, f"README.md:{line}", "exec"), namespace)
        for name, shown, decimals in STATED.findall(code):
            assert round(namespace[name], len(decimals)) == float(shown), f"README.md:{line}: {name}"
