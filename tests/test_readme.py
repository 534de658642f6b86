"""The README's library quick start runs as written and prints what its
comments show."""

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks():
    """The Python blocks of the section "Quick start (library)"."""
    section = README.read_text().split("## Quick start (library)", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_the_library_quick_start_prints_what_it_shows():
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    assert printed == ["(1, x1, 1/2*x1^2)", "True", "True", "x1^3 + 3*x1^2 + 3*x1 + 1"]
    # Each print's comment opens with the line it prints.
    comments = [line.split("# ", 1)[1] for block in blocks for line in block.splitlines() if line.startswith("print(")]
    assert len(comments) == len(printed)
    assert all(comment.startswith(line) for comment, line in zip(comments, printed))
