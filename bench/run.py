"""Benchmark of the semicf checkout that holds this directory.

    python3 bench/run.py --workload identity_sweep --seed 1 --seconds 60 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each was chosen):
``identity_sweep`` and ``cli_mix``, and ``deep_eval``, which BENCHMARK.json
does not list: its times move most with the speed of a shared host.  Each is
one closed, single-threaded loop that runs jobs for ``--seconds`` of wall
time and checks every job's output against ``oracle.fold_eval`` outside the
timed region.

``--trace 0`` sets up (fresh import of ``semicf``, the first block of
inputs, one warm-up job), runs jobs for ``--seconds`` and sets up again,
untimed as far as the jobs go, ``SETUP_REPEATS - 1`` times spread over the
run.  It reports the end-to-end metrics: ``jobs_per_s`` (verified jobs per
second of job time), ``job_p50_ms``, ``job_p90_ms``, ``setup_s`` (median
set-up) and ``peak_rss_mb`` (this process, or for ``cli_mix`` the largest
child).

``--trace 1`` runs an untraced pass for half of ``--seconds`` and then a
traced pass over the same jobs, each after a fresh set-up.  The traced pass
records a span around every call into the library, writes the spans to
``.bench_out/spans-<workload>.jsonl`` and reports the per-layer metrics: self
time per job of each layer call, work counters, and ``trace.overhead_ratio``
(traced over untraced time for the same jobs).

The second-to-last stdout line is a report with the run environment (with
``ref_loop_ms``, the time of a fixed pure-Python loop before and after the
run, since the speed of a shared host drifts between runs), the sample
counts and ``fail_ratio``; the last line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Exit status: 0 when every output checked out, 1 when any did not, 2 when the
checkout cannot be benchmarked (e.g. it has no ``src/semicf``).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Tuple

from spans import NullTracer, Tracer
from workloads import CLI_SUBCOMMANDS, WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
LAYERS = ("core", "tails", "expand", "oracle", "cli")

#: Per-layer time metric -> the library calls whose self time it sums.
GROUPS = {
    "core.validate": ("core.validate",),
    "core.recurrence": ("core.state_at", "core.convergent", "core.iter_states"),
    "core.series": ("core.series_partial_sum",),
    "core.determinant": ("core.determinant_check",),
    "tails.evaluate": ("tails.evaluate",),
    "tails.certify": ("tails.certify",),
    "tails.tail": ("tails.tail",),
    "tails.shift_check": ("tails.shift_check",),
    "tails.error_bound": ("tails.error_bound",),
    "tails.uniform_step_bound": ("tails.uniform_step_bound",),
    "expand.regular": ("expand.regular_expand",),
    "expand.negative": ("expand.negative_expand",),
    "expand.nearest": ("expand.nearest_int_expand",),
    "oracle.fold_eval": ("oracle.fold_eval",),
}
EXPAND_CALLS = GROUPS["expand.regular"] + GROUPS["expand.negative"] + GROUPS["expand.nearest"]


class NotBenchmarkable(Exception):
    """The checkout has no importable semicf of its own."""


def load_library() -> SimpleNamespace:
    """Import semicf afresh from the checkout's ``src``.

    Any earlier copy is dropped first, and with it the module-level caches,
    so that every set-up starts from the same state.
    """
    for name in [m for m in sys.modules if m == "semicf" or m.startswith("semicf.")]:
        del sys.modules[name]
    gc.collect()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        modules = {n: importlib.import_module(f"semicf.{n}") for n in LAYERS}
    except ImportError as exc:
        raise NotBenchmarkable(f"cannot import semicf from {SRC}: {exc}") from exc
    where = Path(sys.modules["semicf"].__file__).resolve()
    if not where.is_relative_to(SRC.resolve()):
        raise NotBenchmarkable(f"semicf resolves to {where}, outside {SRC}")
    return SimpleNamespace(src=SRC, **modules)


def prepare(cls, seed: int, tr, scratch: Path):
    """One set-up: import, the first block of inputs, and a warm-up job."""
    t0 = time.perf_counter()
    with tr.span("setup"):
        lib = tr.call("import", load_library)
        wl = cls(lib, seed, tr, scratch)
        try:
            wl.warm_up()
        except BaseException:
            wl.close()
            raise
    return wl, time.perf_counter() - t0


def measure(
    wl, tr, seconds: float = 0.0, jobs: int = 0,
    between: Callable[[], None] | None = None, every: float = 0.0,
) -> Tuple[List[int], Dict[int, str]]:
    """Run jobs back to back, for ``seconds`` or, if given, for exactly
    ``jobs`` jobs; return each job's time in ns and, by job index, what was
    wrong with every job whose output failed its check.  ``between`` is
    called between two jobs once every ``every`` seconds."""
    durations: List[int] = []
    failures: Dict[int, str] = {}
    start = time.perf_counter()
    next_between = start + every
    i = 0
    while i < jobs if jobs else (i == 0 or time.perf_counter() < start + seconds):
        if between and time.perf_counter() >= next_between:
            between()
            next_between += every
        job = wl.inputs(i)
        tr.job = i
        t0 = time.perf_counter_ns()
        try:
            with tr.span("job"):
                out = wl.run(job, tr)
        except Exception as exc:  # a crashed job is a failed job; keep going
            out = exc
        durations.append(time.perf_counter_ns() - t0)
        tr.job = -1
        if isinstance(out, Exception):
            problem = f"raised {type(out).__name__}: {out}"
        else:
            try:
                problem = wl.check(job, out)
            except Exception as exc:  # output too malformed to check
                problem = f"check raised {type(exc).__name__}: {exc}"
        if problem:
            failures[i] = problem
        i += 1
    return durations, failures


def end_to_end(
    durations: List[int], ok: int, setups: List[float], rss_mb: float,
) -> Dict[str, Tuple[float, str]]:
    p90 = statistics.quantiles(durations, n=10)[8] if len(durations) > 1 else durations[0]
    return {
        "jobs_per_s": (ok / (sum(durations) / 1e9), "1/s"),
        "job_p50_ms": (statistics.median(durations) / 1e6, "ms"),
        "job_p90_ms": (p90 / 1e6, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def per_layer(wl, tr: Tracer, plain: List[int], traced: List[int]) -> Dict[str, Tuple[float, str]]:
    jobs = len(traced)
    own = tr.self_ns()
    counts = tr.counts

    def busy_ns(calls) -> int:
        return sum(own.get(c, 0) for c in calls)

    def rate(counter: str, calls) -> float:
        ns = busy_ns(calls)
        return counts.get(counter, 0) / (ns / 1e9) if ns else 0.0

    m: Dict[str, Tuple[float, str]] = {
        f"{g}.ms": (busy_ns(calls) / jobs / 1e6, "ms") for g, calls in GROUPS.items()
    }
    def per_job(counter: str) -> float:
        return counts.get(counter, 0) / jobs

    recurrence, evaluate = GROUPS["core.recurrence"], GROUPS["tails.evaluate"]
    m["core.recurrence.terms"] = (per_job("core.recurrence.terms"), "count")
    m["core.recurrence.terms_per_s"] = (rate("core.recurrence.terms", recurrence), "1/s")
    m["core.q_bits.max"] = (tr.peaks.get("core.q_bits", 0), "bits")
    m["tails.evaluate.steps"] = (per_job("tails.evaluate.steps"), "count")
    m["tails.evaluate.steps_per_s"] = (rate("tails.evaluate.steps", evaluate), "1/s")
    m["expand.terms_out"] = (per_job("expand.terms_out"), "count")
    m["expand.terms_per_s"] = (rate("expand.terms_out", EXPAND_CALLS), "1/s")
    setup_own = tr.self_ns(in_jobs=False)
    m["expand.random_tietze.ms"] = (setup_own.get("expand.random_tietze", 0) / 1e6, "ms")
    m["cli.stdout_bytes"] = (per_job("cli.stdout_bytes"), "bytes")
    m["cli.nonzero_exit"] = (counts.get("cli.nonzero_exit", 0), "count")
    extra = {
        "tails.first_query_ms": 0.0,
        "tails.repeat_query_ms": 0.0,
        "cli.interpreter_ms": 0.0,
        "cli.import_ms": 0.0,
        "cli.parse.ms": 0.0,
        "cli.serialize.ms": 0.0,
        **{f"cli.{sub}.p50_ms": 0.0 for sub in CLI_SUBCOMMANDS},
    }
    extra.update(wl.layer_metrics(tr))
    m.update({name: (value, "ms") for name, value in extra.items()})
    m["trace.overhead_ratio"] = (sum(traced) / sum(plain), "ratio")
    return m


def reference_loop_ms() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs
    interpreted code right now."""
    times = []
    for _ in range(15):
        t0 = time.perf_counter()
        x = 0
        for i in range(100_000):
            x += i % 7
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def git_head() -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def workload_why(name: str) -> str | None:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return next((w["why"] for w in spec.get("workloads", []) if w.get("name") == name), None)


def run(workload: str, seed: int, seconds: float, trace: int, scratch: Path) -> Tuple[dict, dict]:
    """Return (report, result) for one benchmark run."""
    cls = WORKLOADS[workload]
    ref_before = reference_loop_ms()
    setups: List[float] = []
    if not trace:
        # The set-ups after the first are spread over the run, so that their
        # median samples the host's speed as the job metrics do.  Each
        # imports semicf afresh; the measured workload keeps its own modules.
        def set_up_again() -> None:
            spare, took = prepare(cls, seed, NullTracer(), scratch)
            spare.close()
            setups.append(took)

        wl, took = prepare(cls, seed, NullTracer(), scratch)
        setups.append(took)
        try:
            durations, failed = measure(wl, NullTracer(), seconds,
                                        between=set_up_again, every=seconds / SETUP_REPEATS)
        finally:
            wl.close()
        failures = [f"job {i}: {p}" for i, p in failed.items()]
        metrics = end_to_end(durations, len(durations) - len(failed), setups, wl.peak_rss_mb())
        attempted = len(durations)
    else:
        wl, took = prepare(cls, seed, NullTracer(), scratch)
        setups.append(took)
        try:
            plain, failed = measure(wl, NullTracer(), seconds / 2)
        finally:
            wl.close()
        failures = [f"untraced job {i}: {p}" for i, p in failed.items()]
        wl = None
        tr = Tracer()
        wl, took = prepare(cls, seed, tr, scratch)
        setups.append(took)
        try:
            durations, failed = measure(wl, tr, jobs=len(plain))
            failures += [f"traced job {i}: {p}" for i, p in failed.items()]
            tr.write(OUT / f"spans-{workload}.jsonl")
            metrics = per_layer(wl, tr, plain, durations)
        finally:
            wl.close()
        attempted = len(plain) + len(durations)
    report = {
        "workload": workload,
        "why": workload_why(workload),
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "env": {
            "python": sys.version.split()[0],
            "nproc": len(os.sched_getaffinity(0)),
            "int_max_str_digits": sys.get_int_max_str_digits(),
            "git_head": git_head(),
            "ref_loop_ms": [ref_before, reference_loop_ms()],
        },
        "corpus": wl.corpus(),
        "samples": len(durations),
        "attempted": attempted,
        "failed": len(failures),
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:10],
        "setup_s_samples": setups,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": report["metrics"],
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    os.chdir(ROOT)
    scratch = OUT / f"run-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        report, result = run(args.workload, args.seed, args.seconds, args.trace, scratch)
    except NotBenchmarkable as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
