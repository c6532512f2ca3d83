"""The README's examples, run as written.

Each ``cohoparam ...`` command whose block is followed directly by an
output block runs through `cohoparam.cli.main`, and its stdout must equal
that block byte for byte.  The Library block runs as a script, and each
line it prints must equal the comment on its ``print`` line, or on the
comment line right after it.
"""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from cohoparam.cli import main

README = (Path(__file__).parent.parent / "README.md").read_text()
BLOCKS = list(re.finditer(r"^```(\w*)\n(.*?)^```\n", README, re.M | re.S))

COMMANDS = [
    (block.group(2).strip(), after.group(2))
    for block, after in zip(BLOCKS, BLOCKS[1:])
    if block.group(2).startswith("cohoparam ") and after.start() == block.end()
]
(LIBRARY,) = [b.group(2) for b in BLOCKS if b.group(1) == "python"]


def test_the_readme_has_command_examples_with_output():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("command, output", COMMANDS, ids=[c for c, _ in COMMANDS])
def test_command_example_prints_its_output_block(capsys, command, output):
    assert main(shlex.split(command)[1:]) == 0
    assert capsys.readouterr().out == output


def test_library_block_prints_its_comments():
    lines = LIBRARY.splitlines()
    expected = []
    for line, following in zip(lines, lines[1:] + [""]):
        if not line.startswith("print("):
            continue
        inline = re.search(r"\)\s+# (.*)$", line)
        expected.append(inline.group(1) if inline else following.removeprefix("# "))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(LIBRARY, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == expected
