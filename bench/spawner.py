"""Runs the CLI processes of the cli_mix workload, one at a time.

    python3 -I -S bench/spawner.py STDIN_FILE STDOUT_FILE STDERR_FILE

Reads one JSON argv list per line on stdin, runs it with its standard
streams redirected to the three files, waits for it, and answers one line:
``<exit code> <peak RSS in KiB>``.  It exits at end of input.

Why a separate process: on exec, Linux charges the new program with the
high-water resident size of the address space it replaces, which for a
child spawned straight from the benchmark is the benchmark's own.  This
process stays small, so the peak RSS it reports is the child's.
"""

import json
import os
import sys


def main() -> None:
    stdin_path, stdout_path, stderr_path = sys.argv[1:4]
    out_flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, stdin_path, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, stdout_path, out_flags, 0o600),
        (os.POSIX_SPAWN_OPEN, 2, stderr_path, out_flags, 0o600),
    ]
    for line in sys.stdin:
        argv = json.loads(line)
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        sys.stdout.write(f"{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
