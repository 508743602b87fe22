"""semicf.cli.answer run in this process on stdin's bytes.

The module needs no pytest, so the test modules that any interpreter runs
use it too.
"""

import io

from semicf.cli import answer


def run(argv, stdin=b""):
    """(exit code, stdout, stderr) of answer(argv, stdin), with stdin the given
    text, bytes or binary stream."""
    if isinstance(stdin, str):
        stdin = stdin.encode()
    return answer(argv, io.BytesIO(stdin) if isinstance(stdin, bytes) else stdin)
