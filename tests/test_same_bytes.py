"""The CLI's bytes on a fixed seeded corpus, pinned by one digest per command kind.

Each digest is the sha256 of every (exit code, stdout, stderr) of one kind
of command over the corpus, recorded when the test was written.  A change to
any of them is a change to what semicf prints.  Only text that semicf writes
itself is pinned: no argparse usage message and no message quoted from a
Python exception.  The runs on two documents of rational `b` are pinned one
by one, by the sha256 of each run's stdout, in test_cli.py's `RATIONALS`.
The module needs no pytest, so any interpreter can run it, from the
repository root:

    PYTHONPATH=src python -c "import sys; sys.path.insert(0, 'tests'); import test_same_bytes as t; print(t.digests())"
"""

import hashlib
import json
from fractions import Fraction

from runner import run
from semicf import RandomSpec, random_tietze
from semicf.cli import serialize_cf

SPECS = [
    RandomSpec(seed=seed, length=seed % 40 + 1, minus_probability=Fraction(seed % 4, 4),
               integer_only=seed % 2 == 0)
    for seed in range(160)
]

BIG = "9" * 4000  # p_2 = b_1 b_2 + 1 of two such terms has about 8000 digits

# Fixed inputs for the error and limit paths, as (argv, stdin).
ERRORS = [
    (["check"], '[]'),
    (["check"], '{"b0":"1"}'),
    (["check"], '{"b0":"1","terms":[],"x":1}'),
    (["check"], '{"b0":"1","terms":{}}'),
    (["check"], '{"b0":"1","terms":[{"a":1}]}'),
    (["check"], '{"b0":"1","terms":[{"a":2,"b":"1"}]}'),
    (["check"], '{"b0":"1","terms":[{"a":1.0,"b":"1"}]}'),
    (["check"], '{"b0":1.5,"terms":[]}'),
    (["check"], '{"b0":"1/0","terms":[]}'),
    (["check"], '{"b0":"1","terms":[{"a":1,"b":"-2"}]}'),
    (["check"], '{"b0":"1","terms":[{"a":1,"b":"1/2"},{"a":1,"b":"1"}]}'),
    (["check"], '{"b0":"1","terms":[{"a":1,"b":"1"},{"a":-1,"b":"2"}]}'),
    (["check"], serialize_cf(random_tietze(RandomSpec(seed=7, length=2001)))),
    (["eval", "--eps", "1/100", "--repeat"], '{"b0":"1","terms":[]}'),
    (["eval", "--eps", "1/100"], '{"b0":"1","terms":[{"a":1,"b":"1"},{"a":-1,"b":"1"}]}'),
    (["eval", "--eps", "0"], ""),
    (["eval", "--eps", "1/100", "--max-steps", "0"], ""),
    (["eval", "--eps", "1/1000", "--repeat", "--max-steps", "50"],
     '{"b0":"2","terms":[{"a":-1,"b":"2"}]}'),
    (["eval", "--eps", "1/100", "--max-steps", "1"],
     '{"b0":"0","terms":[{"a":1,"b":"%d/%d"},{"a":1,"b":"1"}]}' % (2 * 10**3999 + 1, 10**3999)),
    (["eval", "--eps", "1/100", "--repeat", "--decimals", "5000"],
     '{"b0":"1","terms":[{"a":1,"b":"1"}]}'),
    (["eval", "--eps", "1/10", "--decimals", "4301"], '{"b0":"0","terms":[]}'),
    (["eval", "--eps", "1/10", "--decimals", "4302"], '{"b0":"0","terms":[]}'),
    (["convergents", "-n", "2"], '{"b0":"0","terms":[{"a":1,"b":"%s"},{"a":1,"b":"%s"}]}'
     % (BIG, BIG)),
    (["convergents", "-n", "3"], '{"b0":"0","terms":[{"a":1,"b":"1"}]}'),
    (["certify", "-n", "1"], '{"b0":"0","terms":[{"a":1,"b":"1"}]}'),
    (["certify", "-n", "1", "--repeat"], '{"b0":"0","terms":[{"a":-1,"b":"1"}]}'),
    (["expand", "--algo", "regular", "x"], ""),
    (["expand", "--algo", "negative", "1/100002"], ""),
]

EXPANDS = ["0", "7/3", "-7/3", "5/2", "-5/2", "355/113"]  # after "--", as a negative one must be

DIGESTS = {
    "random_tietze": "3c8a870f2b4f401a",
    "check": "0ace6ac38d45c6e0",
    "eval": "2153e8cbd87511ab",
    "eval --repeat --decimals": "011a0e7cb4bd0fc7",
    "eval --max-steps": "ad4dccc1c5da735c",
    "convergents": "7583b24b554c3bac",
    "convergents --repeat": "065c7e8f183215bc",
    "certify": "2a27e846c9d65cd4",
    "certify --repeat": "e533ccb55e75069a",
    "expand": "8a6060d0573225b8",
    "errors": "b75051d935ec930e",
}


def _run(argv, stdin=""):
    """answer(argv, stdin) in this process, as one JSON line [exit code, stdout, stderr]."""
    return json.dumps(run(argv, stdin.encode())) + "\n"


def digests():
    """The digest of each command kind over the corpus, as DIGESTS holds them."""
    docs = [serialize_cf(random_tietze(spec)) for spec in SPECS]
    runs = {
        "random_tietze": [doc + "\n" for doc in docs],
        "check": [_run(["check"], doc) for doc in docs],
        "eval": [_run(["eval", "--eps", "1/1000000"], doc) for doc in docs],
        "eval --repeat --decimals": [
            _run(["eval", "--eps", "1/10000000000", "--repeat", "--decimals", "12"], doc)
            for doc in docs],
        "eval --max-steps": [_run(["eval", "--eps", "1/10", "--max-steps", "2"], doc)
                             for doc in docs],
        "convergents": [_run(["convergents", "-n", str(i % 45)], doc)
                        for i, doc in enumerate(docs)],
        "convergents --repeat": [_run(["convergents", "-n", "60", "--repeat"], doc)
                                 for doc in docs],
        "certify": [_run(["certify", "-n", str(i % 45)], doc) for i, doc in enumerate(docs)],
        "certify --repeat": [_run(["certify", "-n", "100", "--repeat"], doc) for doc in docs],
        "expand": [_run(["expand", "--algo", algo, "--", x])
                   for algo in ("regular", "negative", "nearest") for x in EXPANDS],
        "errors": [_run(argv, stdin) for argv, stdin in ERRORS],
    }
    return {kind: hashlib.sha256("".join(lines).encode()).hexdigest()[:16]
            for kind, lines in runs.items()}


def test_cli_bytes_match_the_recorded_digests():
    assert digests() == DIGESTS
