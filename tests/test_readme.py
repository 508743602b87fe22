"""README's CLI examples, run through semicf.cli.main in this process.

An example of the `sh` block in README's CLI section is its command lines,
joined at `\\` continuations, and the `# ` output line that follows them;
examples are separated by blank lines.  Its exit code is the `(exit N)` in
the comment above it, or 0 where the comment has none.  A command is
`semicf ARGS` or `echo 'DOC' | semicf ARGS`.  The module needs no pytest, so
any interpreter can run it, against the installed package too:

    python -c "import sys; sys.path.insert(0, 'tests'); import test_readme as t; t.check()"
"""

import io
import re
import shlex
import sys
from pathlib import Path

from semicf.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def examples():
    """(command, stdout, exit code) of each example in README's CLI sh block."""
    text = README.read_text()
    block = re.search(r"^```sh\n(.*?)^```", text[text.index("\n## CLI\n"):], re.M | re.S)[1]
    found = []
    for chunk in block.strip().split("\n\n"):
        lines = chunk.split("\n")
        start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
        comment, command, output = lines[:start], lines[start:-1], lines[-1]
        if not command or not output.startswith("# "):
            raise ValueError(f"README example without a command or an output line: {chunk!r}")
        code = re.search(r"\(exit (\d+)\)", " ".join(comment))
        found.append(("\n".join(command).replace("\\\n", " "), output[2:] + "\n",
                      int(code.group(1)) if code else 0))
    return found


def run(command):
    """(stdout, exit code) of one example's command."""
    words = shlex.split(command)
    stdin = ""
    if words[0] == "echo" and words[2] == "|":
        stdin, words = words[1] + "\n", words[3:]
    if words[0] != "semicf":
        raise ValueError(f"not a semicf command: {command!r}")
    out = io.StringIO()
    old = sys.stdin, sys.stdout
    sys.stdin, sys.stdout = io.TextIOWrapper(io.BytesIO(stdin.encode())), out
    try:
        code = main(words[1:])
    finally:
        sys.stdin, sys.stdout = old
    return out.getvalue(), code


def check():
    """Raise AssertionError naming each example whose stdout or exit code differs."""
    cases = examples()
    wrong = [command for command, stdout, code in cases if run(command) != (stdout, code)]
    assert cases and not wrong, wrong


def test_readme_examples_print_their_output():
    check()
