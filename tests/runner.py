"""semicf.cli.main run in this process, with bytes on stdin and text captured.

The module needs no pytest, so the test modules that any interpreter runs
use it too.
"""

import io
import sys

from semicf.cli import main


def run(argv, stdin=b""):
    """(exit code, stdout, stderr) of main(argv), with stdin the given bytes or
    binary stream."""
    if isinstance(stdin, bytes):
        stdin = io.BytesIO(stdin)
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdin, sys.stdout, sys.stderr
    # Bytes-backed, as a process's stdin is: main reads sys.stdin.buffer.
    sys.stdin, sys.stdout, sys.stderr = io.TextIOWrapper(stdin), out, err
    try:
        code = main(argv)
    finally:
        sys.stdin, sys.stdout, sys.stderr = old
    return code, out.getvalue(), err.getvalue()
