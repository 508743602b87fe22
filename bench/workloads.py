"""The three benchmark workloads: inputs, the timed job, and the output check.

Every workload is a single-threaded closed loop: job ``i + 1`` is built and
sent only after job ``i`` has finished and been checked.  ``inputs(i)`` is a
pure function of the seed and ``i`` (built outside the timed region),
``run(job, tr)`` is the timed call into the library, and ``check(job, out)``
compares the result against ``oracle.fold_eval`` outside the timed region,
returning a description of the first mismatch or ``None``.

Inputs come in stratified blocks: every block holds each input class once
(family and length level, or CLI job kind) in a seeded order, so that runs
with different seeds load the program alike and differ only in the values.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from spans import NullTracer

EXPANSIONS = (
    ("expand.regular_expand", "regular_expand"),
    ("expand.negative_expand", "negative_expand"),
    ("expand.nearest_int_expand", "nearest_int_expand"),
)


def _tietze_ok(terms: Sequence[Tuple[int, Fraction]]) -> bool:
    """b_n >= 1 and b_n + a_{n+1} >= 1, written out again for the checker."""
    for n, (a, b) in enumerate(terms):
        if a not in (1, -1) or b < 1:
            return False
        if n + 1 < len(terms) and b + terms[n + 1][0] < 1:
            return False
    return True


def _pairs(cf) -> List[Tuple[int, Fraction]]:
    return [(t.a, t.b) for t in cf.terms]


def _block_rng(seed: int, tag: str, block: int) -> random.Random:
    return random.Random(f"{seed}:{tag}:{block}")


class Workload:
    """Shared plumbing; subclasses define the inputs, the job and the check.

    The first block of inputs is built in set-up, with its generator calls
    traced; later blocks are built on demand, untimed and untraced.
    """

    name = ""
    block_size = 1

    def __init__(self, lib: SimpleNamespace, seed: int, tr, scratch: Path):
        self.lib = lib
        self.seed = seed
        self.scratch = scratch
        self.first_block = self.make_block(0, tr)
        self._current = (0, self.first_block)

    def inputs(self, i: int) -> Any:
        b = i // self.block_size
        if self._current[0] != b:
            self._current = (b, self.make_block(b, NullTracer()))
        return self._current[1][i % self.block_size]

    def make_block(self, b: int, tr) -> List[Any]:
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        """This process's own high-water RSS.  (getrusage would also count
        the size of the process that started it, charged at exec.)"""
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("no VmHWM in /proc/self/status")

    def close(self) -> None:
        pass

    def layer_metrics(self, tr) -> Dict[str, float]:
        """Workload-specific per-layer metrics beyond the span self times."""
        return {}


# --------------------------------------------------------------------------
# deep_eval: the exact bignum recurrence on deep, never-repeated sequences.

DEEP_FAMILIES = ("golden", "minus2", "random_int", "random_rational")
#: Length levels; each job adds a seeded 0..199 to its level.
DEEP_LEVELS = tuple(range(1200, 2600, 200))


@dataclass(frozen=True)
class DeepJob:
    cf: Any
    eps: Fraction
    expansion: int  # index into EXPANSIONS


class DeepEval(Workload):
    name = "deep_eval"
    block_size = len(DEEP_FAMILIES) * len(DEEP_LEVELS)

    def __init__(self, lib, seed, tr, scratch):
        # b0 of the two periodic families grows by one per job, so no two
        # sequences are equal and no cache entry is ever reused.
        self.b0_base = random.Random(f"{seed}:b0").randrange(1, 10**6)
        super().__init__(lib, seed, tr, scratch)

    def corpus(self) -> Dict[str, Any]:
        return {
            "families": list(DEEP_FAMILIES),
            "length_range": [DEEP_LEVELS[0], DEEP_LEVELS[-1] + 199],
            "block": self.block_size,
            "setup_sequences": self.block_size,
        }

    def make_block(self, b: int, tr) -> List[DeepJob]:
        core, expand = self.lib.core, self.lib.expand
        rng = _block_rng(self.seed, self.name, b)
        cells = [(f, lv) for f in range(len(DEEP_FAMILIES)) for lv in range(len(DEEP_LEVELS))]
        rng.shuffle(cells)
        jobs = []
        for j, (f, lv) in enumerate(cells):
            family = DEEP_FAMILIES[f]
            length = DEEP_LEVELS[lv] + rng.randrange(200)
            b0 = self.b0_base + b * self.block_size + j
            if family == "golden":
                cf = core.SemiRegularCF.periodic(b0, [(1, 1)], length)
                # q_n ~ phi^n: stop about 90% of the way down the sequence.
                eps = Fraction(1, 10 ** (length * 376 // 1000))
            elif family == "minus2":
                cf = core.SemiRegularCF.periodic(b0, [(-1, 2)], length)
                # The bound is 1/(n+1) here: again about 90% of the sequence.
                eps = Fraction(1, length * 9 // 10)
            else:
                spec = expand.RandomSpec(
                    seed=rng.getrandbits(63),
                    length=length,
                    integer_only=family == "random_int",
                )
                cf = tr.call("expand.random_tietze", expand.random_tietze, spec)
                eps = Fraction(1, 10 ** (900 + 50 * lv))
            jobs.append(DeepJob(cf, eps, self._expansion(family, f + lv)))
        return jobs

    @staticmethod
    def _expansion(family: str, k: int) -> int:
        """Rotate the three expansions over the periodic families, and the
        regular and nearest-integer ones over the random families.  The
        negative expansion of a random rational has about as many terms as
        the sum of its regular partial quotients, which is heavy-tailed: now
        and then one job would take seconds and swamp the run."""
        if family in ("golden", "minus2"):
            return k % len(EXPANSIONS)
        return 2 * (k % 2)

    def warm_up(self) -> None:
        expand = self.lib.expand
        cf = expand.random_tietze(expand.RandomSpec(seed=self.seed % 2**63, length=60))
        for e in range(len(EXPANSIONS)):
            job = DeepJob(cf, Fraction(1, 10**20), e)
            problem = self.check(job, self.run(job, NullTracer()))
            if problem:
                raise RuntimeError(f"warm-up job failed its check: {problem}")

    def run(self, job: DeepJob, tr) -> Tuple[Any, ...]:
        core, tails = self.lib.core, self.lib.tails
        cf = job.cf
        n = len(cf) - 1
        with tr.span("validate"):
            report = tr.call("core.validate", core.validate, cf)
        with tr.span("compute"):
            result = tr.call("tails.evaluate", tails.evaluate, cf, job.eps)
            state = tr.call("core.state_at", core.state_at, cf, n)
            cert = tr.call("tails.certify", tails.certify, cf, n)
            span, fn = EXPANSIONS[job.expansion]
            expansion = tr.call(span, getattr(self.lib.expand, fn), result.approximation)
        tr.count("core.recurrence.terms", n)
        tr.count("tails.evaluate.steps", result.steps_used)
        tr.count("expand.terms_out", len(expansion))
        q = state.q_cur
        tr.peak("core.q_bits", max(q.numerator.bit_length(), q.denominator.bit_length()))
        return report, result, state, cert, expansion

    def check(self, job: DeepJob, out) -> Optional[str]:
        fold = self.lib.oracle.fold_eval
        report, result, state, cert, expansion = out
        cf = job.cf
        n = len(cf) - 1
        if not report.valid:
            return f"validate rejected a valid sequence: {report.first_violation}"
        limit = fold(cf)
        if abs(limit - result.approximation) > result.certified_error:
            return "evaluate: |fold_eval(cf) - approximation| exceeds certified_error"
        if result.certified_error > job.eps:
            return "evaluate: certified_error exceeds eps"
        if result.approximation != fold(cf, result.steps_used):
            return "evaluate: approximation is not convergent steps_used"
        if state.n != n or state.value != fold(cf, n):
            return f"state_at({n}) differs from fold_eval(cf, {n})"
        if cert.n != n or abs(limit - state.value) > cert.bound:
            return f"certify({n}): bound does not hold against fold_eval(cf)"
        if not _tietze_ok(_pairs(expansion)):
            return f"{EXPANSIONS[job.expansion][1]}: output is not Tietze-valid"
        if fold(expansion) != result.approximation:
            return f"{EXPANSIONS[job.expansion][1]}: output does not fold back exactly"
        return None


# --------------------------------------------------------------------------
# identity_sweep: check-style queries on a resident working set.

SWEEP_SET = 48  # below the 64-entry lru_cache tables in core and tails
SWEEP_LENGTHS = (60, 160)
SWEEP_MAX_END = 30


@dataclass(frozen=True)
class SweepJob:
    seq: int
    end: int
    idx: int


class IdentitySweep(Workload):
    name = "identity_sweep"
    block_size = SWEEP_SET

    def __init__(self, lib, seed, tr, scratch):
        expand = lib.expand
        rng = random.Random(f"{seed}:{self.name}:set")
        lo, hi = SWEEP_LENGTHS
        specs = [
            expand.RandomSpec(
                seed=rng.getrandbits(63),
                length=lo + (hi - lo) * k // (SWEEP_SET - 1),
                integer_only=k % 2 == 0,
            )
            for k in range(SWEEP_SET)
        ]
        rng.shuffle(specs)
        self.seqs = [tr.call("expand.random_tietze", expand.random_tietze, s) for s in specs]
        self.seen: set = set()
        self.first_flags: List[bool] = []
        self._prefix: Dict[Tuple[int, int], Fraction] = {}
        self._tail: Dict[Tuple[int, int, int], Fraction] = {}
        super().__init__(lib, seed, tr, scratch)

    def corpus(self) -> Dict[str, Any]:
        return {
            "working_set": SWEEP_SET,
            "length_range": list(SWEEP_LENGTHS),
            "max_end": SWEEP_MAX_END,
        }

    def make_block(self, b: int, tr) -> List[Tuple[int, int, int]]:
        rng = _block_rng(self.seed, self.name, b)
        order = list(range(SWEEP_SET))
        rng.shuffle(order)
        return [
            (s, rng.randint(1, SWEEP_MAX_END), rng.randint(1, len(self.seqs[s])))
            for s in order
        ]

    def inputs(self, i: int) -> SweepJob:
        s, end, idx = super().inputs(i)
        self.first_flags.append(s not in self.seen)
        self.seen.add(s)
        return SweepJob(s, end, idx)

    def warm_up(self) -> None:
        expand = self.lib.expand
        cf = expand.random_tietze(expand.RandomSpec(seed=self.seed % 2**63, length=40))
        self.seqs.append(cf)
        try:
            job = SweepJob(len(self.seqs) - 1, SWEEP_MAX_END, len(cf))
            problem = self.check(job, self.run(job, NullTracer()))
        finally:
            self.seqs.pop()
        if problem:
            raise RuntimeError(f"warm-up job failed its check: {problem}")

    def run(self, job: SweepJob, tr):
        core, tails, oracle = self.lib.core, self.lib.tails, self.lib.oracle
        cf = self.seqs[job.seq]
        rows = []
        with tr.span("compute"):
            for n in range(job.end):
                k = job.end - n
                rows.append((
                    tr.call("tails.tail", tails.tail, cf, n, k).value,
                    tr.call("tails.shift_check", tails.shift_check, cf, n, k),
                    tr.call("tails.error_bound", tails.error_bound, cf, n, k),
                    tr.call("tails.uniform_step_bound", tails.uniform_step_bound, cf, n),
                ))
            series = tr.call("core.series_partial_sum", core.series_partial_sum, cf, job.idx)
            folded = tr.call("oracle.fold_eval", oracle.fold_eval, cf, job.idx)
            state = tr.call("core.state_at", core.state_at, cf, job.idx)
            sign = tr.call("core.determinant_check", core.determinant_check, state)
        tr.count("core.recurrence.terms", job.idx)
        return rows, series, folded, state, sign

    def _value(self, job: SweepJob, m: int) -> Fraction:
        key = (job.seq, m)
        if key not in self._prefix:
            self._prefix[key] = self.lib.oracle.fold_eval(self.seqs[job.seq], m)
        return self._prefix[key]

    def _tail_value(self, job: SweepJob, n: int, k: int) -> Fraction:
        key = (job.seq, n, k)
        if key not in self._tail:
            cf = self.seqs[job.seq]
            window = self.lib.core.SemiRegularCF(0, cf.terms[n:n + k])
            self._tail[key] = self.lib.oracle.fold_eval(window)
        return self._tail[key]

    def check(self, job: SweepJob, out) -> Optional[str]:
        rows, series, folded, state, sign = out
        cf = self.seqs[job.seq]
        deep = self._value(job, job.end)
        if len(rows) != job.end:
            return f"expected {job.end} rows, got {len(rows)}"
        for n, (x, shifted, bound, uniform) in enumerate(rows):
            k = job.end - n
            a_next = cf.terms[n].a
            if x != self._tail_value(job, n, k) or not (0 < a_next * x <= 1):
                return f"tail({n}, {k}) = {x} is wrong"
            if shifted != deep:
                return f"shift_check({n}, {k}) differs from fold_eval(cf, {job.end})"
            gap = abs(deep - self._value(job, n))
            if bound < gap or uniform < gap:
                return f"bounds at n={n} do not cover fold_eval(cf, {job.end})"
            if bound > uniform:
                return f"error_bound({n}, {k}) exceeds uniform_step_bound({n})"
        value = self._value(job, job.idx)
        if series != value or folded != value:
            return f"series_partial_sum / fold_eval differ at {job.idx}"
        if state.n != job.idx or state.value != value:
            return f"state_at({job.idx}) differs from fold_eval"
        expected = 1
        for t in cf.terms[:job.idx]:
            expected *= t.a
        if job.idx % 2 == 0:
            expected = -expected
        if sign != expected:
            return f"determinant_check at {job.idx} returned {sign}, expected {expected}"
        return None

    def layer_metrics(self, tr) -> Dict[str, float]:
        """Median job time of the first and of later queries on a sequence."""
        jobs = tr.durations_ns("job")
        firsts = [d for d, f in zip(jobs, self.first_flags) if f]
        repeats = [d for d, f in zip(jobs, self.first_flags) if not f]
        return {
            "tails.first_query_ms": statistics.median(firsts) / 1e6 if firsts else 0.0,
            "tails.repeat_query_ms": statistics.median(repeats) / 1e6 if repeats else 0.0,
        }


# --------------------------------------------------------------------------
# cli_mix: whole `python -m semicf.cli` processes, one at a time.

CLI_SUBCOMMANDS = ("expand", "eval", "convergents", "certify", "check")
#: One block of jobs.  The generous-budget eval, the slowest kind, fills two
#: slots so that job_p90_ms falls inside its own distribution rather than on
#: the edge between two kinds.
CLI_KINDS = (
    "expand_regular",
    "expand_negative",
    "expand_nearest",
    "eval",
    "eval_generous",
    "eval_generous",
    "convergents",
    "convergents_repeat",
    "certify_repeat",
    "check",
)
CHECK_LENGTHS = (40, 68, 95, 123, 150)
EXPAND_QUOTIENTS = 60
EXPAND_MAX_QUOTIENT = 16
CHECK_NAMES = {
    "lemma1", "determinant", "series_equivalence",
    "tail_bounds", "shift_identity", "error_bounds",
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import semicf.cli; "
    "print(time.perf_counter() - t); print(semicf.cli.__file__)"
)


@dataclass(frozen=True)
class CliJob:
    argv: Tuple[str, ...]
    doc: str  # stdin document, "" for expand
    cf: Any  # the parsed document (the period for --repeat), or None
    value: Optional[Fraction] = None  # expand argument


@dataclass(frozen=True)
class CliOut:
    code: int
    stdout: bytes
    stderr: bytes
    rss_kb: int


def _doc_text(b0: Fraction, pairs: Sequence[Tuple[int, Fraction]]) -> str:
    """The interchange format, written by the benchmark itself."""
    doc = {"b0": str(b0), "terms": [{"a": a, "b": str(b)} for a, b in pairs]}
    return json.dumps(doc, separators=(",", ":"))


class CliMix(Workload):
    name = "cli_mix"
    block_size = len(CLI_KINDS)

    def __init__(self, lib, seed, tr, scratch):
        self.src = lib.src
        self.stdin_path = scratch / "stdin.json"
        self.max_rss_kb = 0
        self.spawner = subprocess.Popen(
            [sys.executable, "-I", "-S", str(Path(__file__).with_name("spawner.py")),
             str(self.stdin_path), str(scratch / "stdout"), str(scratch / "stderr")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=str(lib.src)), start_new_session=True,
        )
        try:
            super().__init__(lib, seed, tr, scratch)
        except BaseException:
            self.close()
            raise

    def close(self) -> None:
        """Stop the spawner: end of input lets it finish the running child."""
        self.spawner.stdin.close()
        try:
            self.spawner.wait(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(self.spawner.pid, signal.SIGKILL)
            self.spawner.wait()
        self.spawner.stdout.close()

    def corpus(self) -> Dict[str, Any]:
        return {
            "kinds": list(CLI_KINDS),
            "check_lengths": list(CHECK_LENGTHS),
            "period_lengths": [1, 6],
            "expand_quotients": [EXPAND_QUOTIENTS, EXPAND_MAX_QUOTIENT],
            "convergents_n": 200,
            "certify_n": 500,
        }

    def _random(self, rng: random.Random, length: int, integer_only: bool):
        expand = self.lib.expand
        spec = expand.RandomSpec(seed=rng.getrandbits(63), length=length,
                                 integer_only=integer_only)
        return expand.random_tietze(spec)

    def _period(self, rng: random.Random, integer_only: bool):
        """A random period for --repeat.  It holds a +1 numerator, so that
        the convergents converge geometrically (an all-minus period such as
        (-1, 2) converges like 1/n, and eval would exhaust its step budget),
        and it stays Tietze-valid when it wraps around: the last b is at
        least 2 when the first numerator is -1."""
        cf = self._random(rng, rng.randint(1, 6), integer_only)
        pairs = _pairs(cf)
        if all(a == -1 for a, _ in pairs):
            pairs[0] = (1, pairs[0][1])
        if pairs[0][0] == -1 and pairs[-1][1] < 2:
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + 1)
        return self.lib.core.SemiRegularCF.from_pairs(cf.b0, pairs)

    def make_block(self, b: int, tr) -> List[CliJob]:
        rng = _block_rng(self.seed, self.name, b)
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        jobs = []
        for j, kind in enumerate(kinds):
            rational = (b + j) % 2 == 1
            if kind.startswith("expand"):
                # A rational with a known regular expansion of bounded partial
                # quotients.  A uniformly drawn one would make the negative
                # expansion, whose length is about the sum of the quotients,
                # heavy-tailed: about one in a hundred would print megabytes.
                x = Fraction(rng.randint(1, EXPAND_MAX_QUOTIENT))
                for _ in range(EXPAND_QUOTIENTS):
                    x = rng.randint(1, EXPAND_MAX_QUOTIENT) + 1 / x
                algo = kind.split("_")[1]
                jobs.append(CliJob(("expand", "--algo", algo, str(x)), "", None, x))
                continue
            if kind == "check":
                length = CHECK_LENGTHS[b % len(CHECK_LENGTHS)]
                cf = tr.call("expand.random_tietze", self._random, rng, length, not rational)
                argv: Tuple[str, ...] = ("check",)
            elif kind == "convergents":
                cf = tr.call("expand.random_tietze", self._random, rng,
                             rng.randint(200, 220), True)
                argv = ("convergents", "-n", "200")
            else:
                cf = tr.call("expand.random_tietze", self._period, rng, not rational)
                if kind == "eval":
                    argv = ("eval", "--eps", f"1/{10 ** rng.randint(20, 60)}", "--repeat")
                elif kind == "eval_generous":
                    argv = ("eval", "--eps", f"1/{10 ** rng.randint(20, 60)}", "--repeat",
                            "--max-steps", "100000", "--decimals", "30")
                elif kind == "convergents_repeat":
                    argv = ("convergents", "-n", str(rng.randint(190, 210)), "--repeat")
                else:
                    argv = ("certify", "-n", str(rng.randint(480, 520)), "--repeat")
            jobs.append(CliJob(argv, _doc_text(cf.b0, _pairs(cf)), cf))
        return jobs

    def _spawn(self, argv: Sequence[str]) -> CliOut:
        self.spawner.stdin.write(json.dumps([sys.executable, *argv]) + "\n")
        self.spawner.stdin.flush()
        reply = self.spawner.stdout.readline().split()
        if len(reply) != 2:
            raise RuntimeError("the spawner process stopped")
        return CliOut(
            int(reply[0]),
            (self.scratch / "stdout").read_bytes(),
            (self.scratch / "stderr").read_bytes(),
            int(reply[1]),
        )

    def inputs(self, i: int) -> CliJob:
        job = super().inputs(i)
        self.stdin_path.write_text(job.doc)
        return job

    def _import_probe(self) -> float:
        """Import time of semicf.cli inside a fresh interpreter, in seconds;
        also proves the children import the checkout under test."""
        self.stdin_path.write_text("")
        out = self._spawn(("-c", IMPORT_PROBE))
        lines = out.stdout.decode().split("\n")
        if out.code != 0 or len(lines) < 2:
            raise RuntimeError(f"import probe failed: {out.stderr.decode()[-400:]}")
        where = Path(lines[1]).resolve()
        if not where.is_relative_to(self.src.resolve()):
            raise RuntimeError(f"child imported semicf from {where}, not {self.src}")
        return float(lines[0])

    def warm_up(self) -> None:
        self._import_probe()

    def run(self, job: CliJob, tr) -> CliOut:
        sub = job.argv[0]
        out = tr.call(f"cli.{sub}", self._spawn, ("-m", "semicf.cli", *job.argv))
        tr.count("cli.stdout_bytes", len(out.stdout))
        tr.count("cli.nonzero_exit", out.code != 0)
        self.max_rss_kb = max(self.max_rss_kb, out.rss_kb)
        return out

    def check(self, job: CliJob, out: CliOut) -> Optional[str]:
        if out.code != 0:
            return f"exit code {out.code}, expected 0: {out.stderr.decode()[-400:]!r}"
        if out.stderr:
            return f"unexpected stderr: {out.stderr.decode()[-400:]!r}"
        text = out.stdout.decode()
        if not text.endswith("\n") or text.count("\n") != 1:
            return "stdout is not exactly one JSON document on one line"
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return f"stdout is not JSON: {exc}"
        return getattr(self, "_check_" + job.argv[0])(job, doc)

    # The checkers below read the printed document back with Fraction and
    # compare it with fold_eval on the same (unrolled) sequence.

    def _unrolled(self, job: CliJob, depth: int):
        period = _pairs(job.cf)
        return self.lib.core.SemiRegularCF.periodic(job.cf.b0, period, depth)

    def _check_expand(self, job: CliJob, doc) -> Optional[str]:
        pairs = [(t["a"], Fraction(t["b"])) for t in doc["terms"]]
        if not _tietze_ok(pairs):
            return "expansion is not Tietze-valid"
        algo = job.argv[2]
        if algo == "regular" and any(a != 1 for a, _ in pairs):
            return "regular expansion has a minus numerator"
        if algo == "negative" and any(a != -1 or b < 2 for a, b in pairs):
            return "negative expansion has a plus numerator or b < 2"
        if algo == "nearest" and any(b < 2 for _, b in pairs):
            return "nearest-integer expansion has b < 2"
        cf = self.lib.core.SemiRegularCF.from_pairs(Fraction(doc["b0"]), pairs)
        if self.lib.oracle.fold_eval(cf) != job.value:
            return "expansion does not fold back exactly"
        return None

    def _check_eval(self, job: CliJob, doc) -> Optional[str]:
        fold = self.lib.oracle.fold_eval
        approx = Fraction(doc["approximation"])
        err = Fraction(doc["certified_error"])
        steps = doc["steps_used"]
        eps = Fraction(job.argv[job.argv.index("--eps") + 1])
        if doc["exact"] or err > eps:
            return f"eval: exact={doc['exact']} or certified_error {err} > eps"
        if fold(self._unrolled(job, steps)) != approx:
            return "eval: approximation is not convergent steps_used"
        for depth in (steps + 1, steps + len(job.cf), 2 * steps + 1):
            if abs(fold(self._unrolled(job, depth)) - approx) > err:
                return f"eval: bound fails against fold_eval at depth {depth}"
        if "--decimals" in job.argv:
            places = int(job.argv[job.argv.index("--decimals") + 1])
            if abs(Fraction(doc["decimal"]) - approx) > Fraction(1, 2 * 10**places):
                return "eval: decimal rendering is off by more than half an ulp"
        return None

    def _check_convergents(self, job: CliJob, doc) -> Optional[str]:
        n = int(job.argv[2])
        cf = self._unrolled(job, n) if "--repeat" in job.argv else job.cf
        rows = doc["convergents"]
        if [r["n"] for r in rows] != list(range(n + 1)):
            return "convergents: rows are not 0..n"
        fold = self.lib.oracle.fold_eval
        for r in rows:
            value = Fraction(r["value"])
            if Fraction(r["p"]) / Fraction(r["q"]) != value or value != fold(cf, r["n"]):
                return f"convergents: row {r['n']} differs from fold_eval"
        return None

    def _check_certify(self, job: CliJob, doc) -> Optional[str]:
        n = int(job.argv[2])
        fold = self.lib.oracle.fold_eval
        if doc["n"] != n or doc["regime"] not in ("PlusAnchor", "AllMinusTail"):
            return f"certify: unexpected n or regime in {doc}"
        bound = Fraction(doc["bound"])
        value = fold(self._unrolled(job, n))
        for depth in (n + 1, n + len(job.cf), 2 * n):
            if abs(fold(self._unrolled(job, depth)) - value) > bound:
                return f"certify: bound fails against fold_eval at depth {depth}"
        return None

    def _check_check(self, job: CliJob, doc) -> Optional[str]:
        checks = doc.get("checks", [])
        if doc.get("valid") is not True or {c["name"] for c in checks} != CHECK_NAMES:
            return f"check: unexpected document {doc}"
        failed = [c["name"] for c in checks if not c["pass"]]
        return f"check: {failed} failed on a valid sequence" if failed else None

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024

    def layer_metrics(self, tr) -> Dict[str, float]:
        """Per-subcommand medians, in-process parse and serialize, and the
        interpreter and import probes."""
        cli = self.lib.cli
        metrics: Dict[str, float] = {}
        for sub in CLI_SUBCOMMANDS:
            spans = tr.durations_ns(f"cli.{sub}")
            metrics[f"cli.{sub}.p50_ms"] = statistics.median(spans) / 1e6 if spans else 0.0
        # parse_cf and serialize_cf, in process, on the set-up documents.
        docs = [job.doc for job in self.first_block if job.doc]
        for doc in docs:
            with tr.span("parse"):
                cf = tr.call("cli.parse_cf", cli.parse_cf, doc)
            with tr.span("serialize"):
                text = tr.call("cli.serialize_cf", cli.serialize_cf, cf)
            if text != doc:
                raise RuntimeError("serialize_cf(parse_cf(doc)) is not byte-stable")
        own = tr.self_ns(in_jobs=False)
        docs = len(docs)
        metrics["cli.parse.ms"] = own.get("cli.parse_cf", 0) / docs / 1e6
        metrics["cli.serialize.ms"] = own.get("cli.serialize_cf", 0) / docs / 1e6
        imports = []
        for _ in range(5):
            self.stdin_path.write_text("")
            tr.call("cli.interpreter", self._spawn, ("-c", "pass"))
            imports.append(self._import_probe())
        metrics["cli.interpreter_ms"] = statistics.median(tr.durations_ns("cli.interpreter")) / 1e6
        metrics["cli.import_ms"] = statistics.median(imports) * 1e3
        return metrics


WORKLOADS = {w.name: w for w in (DeepEval, IdentitySweep, CliMix)}
