"""README's `>>>` session and CLI examples, checked by one function, `check`.

`check` runs the session with doctest, and every example of the `sh` block
in README's CLI section.  An example is its command lines, joined at `\\`
continuations, and the `# ` output line that follows them; examples are
separated by blank lines.  Its exit code is the `(exit N)` in the comment
above it, or 0 where the comment has none.  A command is `semicf ARGS` or
`echo 'DOC' | semicf ARGS`.  The examples run through semicf.cli.answer in this
process, or, given `script`, through that console script, one process each.
Either way an example must print its output line's bytes on stdout, nothing
on stderr, and exit with its code.  The module needs no pytest, so any
interpreter can run it, against the installed package too, from the
repository root:

    python -c "import sys; sys.path.insert(0, 'tests'); import test_readme as t; t.check(script='semicf')"
"""

import doctest
import re
import shlex
import subprocess
import sys
from pathlib import Path

import semicf
from runner import run

README = Path(__file__).resolve().parents[1] / "README.md"


def examples(readme=README):
    """(command, stdout, exit code) of each example in README's CLI sh block."""
    text = readme.read_text()
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


def answer(command, script=None):
    """(exit code, stdout, stderr) of one example's command, as bytes."""
    words = shlex.split(command)
    stdin = ""
    if words[0] == "echo" and words[2] == "|":
        stdin, words = words[1] + "\n", words[3:]
    if words[0] != "semicf":
        raise ValueError(f"not a semicf command: {command!r}")
    if script is None:
        code, out, err = run(words[1:], stdin.encode())
        return code, out.encode(), err.encode()
    proc = subprocess.run([script, *words[1:]], input=stdin.encode(), capture_output=True,
                          timeout=60)
    return proc.returncode, proc.stdout, proc.stderr


def check(script=None, readme=README):
    """Raise AssertionError naming each example of the session or the sh block that fails."""
    report = []
    session = doctest.DocTestParser().get_doctest(readme.read_text(), {}, readme.name,
                                                   str(readme), 0)
    failed, attempted = doctest.DocTestRunner().run(session, out=report.append)
    cases = examples(readme)
    wrong = [command for command, stdout, code in cases
             if answer(command, script) != (code, stdout.encode(), b"")]
    assert attempted and cases and not failed and not wrong, "".join(report) + "\n".join(wrong)


def test_readme_examples_print_their_output():
    check()


def _shim(path, body):
    """An executable sh script at path, running body with the arguments in "$@"."""
    path.write_text("#!/bin/sh\n" + body + "\n")
    path.chmod(0o755)
    return str(path)


def test_readme_examples_print_their_output_through_a_script(tmp_path):
    src = shlex.quote(str(Path(semicf.__file__).resolve().parents[1]))
    check(script=_shim(tmp_path / "semicf",
                       f'PYTHONPATH={src} exec {shlex.quote(sys.executable)} -m semicf.cli "$@"'))


def test_a_script_that_prints_nothing_fails(tmp_path):
    try:
        check(script=_shim(tmp_path / "semicf", "exit 0"))
    except AssertionError as exc:
        assert "semicf expand --algo negative 7/3" in str(exc)
    else:
        raise AssertionError("check passed a script that prints nothing")


# (text of README, its replacement, text that check's failure must show)
MUTANTS = [
    ('# {"b0":"3","terms":[{"a":-1,"b":"2"},{"a":-1,"b":"2"}]}', '# {"b0":"3","terms":[]}',
     "semicf expand --algo negative 7/3"),
    ("its first violation (exit 1)", "its first violation (exit 2)", "| semicf certify -n 5"),
    ("| semicf certify -n 5\n", "| semicf certify -n 5 || true\n", "semicf certify -n 5 || true"),
    ("nearest -- -5/2\n", "nearest -5/2\n", "semicf expand --algo nearest -5/2"),
    (">>> t == (0, 2, Fraction(3, 7))\n    True", ">>> t == (0, 2, Fraction(3, 7))\n    False",
     "t == (0, 2, Fraction(3, 7))"),
]


def test_each_broken_example_fails_check_by_name(tmp_path):
    text = README.read_text()
    missed = []
    for old, new, named in MUTANTS:
        assert text.count(old) == 1, old
        readme = tmp_path / "README.md"
        readme.write_text(text.replace(old, new))
        try:
            check(readme=readme)
        except AssertionError as exc:
            if named in str(exc):
                continue
        missed.append(new)
    assert not missed, missed
