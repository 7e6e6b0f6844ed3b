"""Closed-loop driver with one client: operations, the per-operation time
limit, answer checks and the end-to-end figures.

An operation is one CLI call (``twistlab.cli.main([..., "--json"])`` with
stdout captured in memory) or one library call, timed from call to return.
Parsing its output and checking the answer happen after the clock stops.
The end-to-end figures use each time scaled to the reference speed of
`calibration`, measured right before and right after the operation.
"""
from __future__ import annotations

import contextlib
import io
import itertools
import json
import signal
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Sequence

import calibration

OK, WRONG, UNDECIDED = "ok", "wrong", "undecided"


class OpTimeout(BaseException):
    """Raised by the alarm; a BaseException, so no `except Exception` in the
    package can swallow it."""


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when right, else the reason
    reach: bool = False  # expected to exceed the time limit on the seed


@dataclass
class Plan:
    warmup: List[Op]
    head: List[Op]           # run once, at the start of the timed phase
    periods: List[List[Op]]  # then cycled in order, whole periods only
    notes: dict = field(default_factory=dict)

    def trace_set(self) -> List[Op]:
        return self.head + self.periods[0]


class CliResult(NamedTuple):
    code: int
    stdout: str


@dataclass
class Outcome:
    op: Op
    seconds: float  # as measured
    status: str
    scale: float = 1.0  # from measured to reference time
    detail: Optional[str] = None
    output_bytes: int = 0

    @property
    def reference_seconds(self) -> float:
        """The time at the calibration's reference speed; an undecided
        operation enters at the limit."""
        return self.seconds if self.status == UNDECIDED else self.seconds * self.scale


def cli_call(argv: Sequence[str]) -> Callable[[], CliResult]:
    """An operation that runs the CLI in-process and returns its exit code
    and captured stdout."""
    from twistlab import cli

    argv = list(argv)

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return CliResult(code, out.getvalue())

    return call


def expect(code: int, predicate: Callable[[dict], Optional[str]]) -> Callable:
    """Check of a CLI result: the exit code, then the parsed JSON."""

    def check(result) -> Optional[str]:
        got, text = result
        if got != code:
            return f"exit {got}, expected {code}"
        try:
            payload = json.loads(text)
        except ValueError:
            return "output is not JSON"
        return predicate(payload)

    return check


def mismatch(payload: dict, expected: dict) -> Optional[str]:
    """First key whose value differs from the expected one."""
    for key, want in expected.items():
        got = payload
        for part in key.split("."):
            got = got.get(part) if isinstance(got, dict) else None
        if got != want:
            return f"{key} = {got!r}, expected {want!r}"
    return None


class Runner:
    """Runs operations under a per-operation time limit (SIGALRM), so that
    pure-Python work is stopped where it stands."""

    def __init__(self, limit_s: float):
        self.limit_s = limit_s
        self._armed = False
        signal.signal(signal.SIGALRM, self._on_alarm)

    def _on_alarm(self, signum, frame):
        if self._armed:
            raise OpTimeout()

    def run(self, op: Op) -> Outcome:
        before = calibration.sample()
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, self.limit_s)
        start = time.perf_counter()
        try:
            try:
                result = op.call()
                seconds = time.perf_counter() - start
            finally:
                self._armed = False
                signal.setitimer(signal.ITIMER_REAL, 0)
        except OpTimeout:
            return Outcome(op, self.limit_s, UNDECIDED)
        except (Exception, SystemExit) as ex:  # a wrong verdict, not a crash of the loop
            seconds = time.perf_counter() - start
            scale = calibration.scale(before, calibration.sample())
            return Outcome(op, seconds, WRONG, scale, f"{type(ex).__name__}: {ex}")
        scale = calibration.scale(before, calibration.sample())
        try:
            problem = op.check(result)
        except Exception as ex:  # a malformed output is a wrong verdict
            problem = f"check failed: {type(ex).__name__}: {ex}"
        size = len(result.stdout) if isinstance(result, CliResult) else 0
        return Outcome(op, seconds, OK if problem is None else WRONG, scale, problem, size)


def spread(groups: List[List[Op]]) -> List[Op]:
    """Interleave groups so that every stretch of a period holds a similar
    mix: the j-th of m operations of a group sits at (j + 1/2) / m."""
    keyed = []
    for g, ops in enumerate(groups):
        for j, op in enumerate(ops):
            keyed.append(((j + 0.5) / len(ops), g, op))
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [op for _, _, op in keyed]


def closed_loop(runner: Runner, plan: Plan, seconds: float) -> List[Outcome]:
    """Send the next operation when the previous one has returned, until the
    operations' own measured time adds up to the given seconds.

    The loop stops only at the end of a period.  Every run then holds whole
    periods of the same mix, so the latency percentiles do not move with the
    point where the time ran out."""
    outcomes = [runner.run(op) for op in plan.head]
    busy = sum(o.seconds for o in outcomes)
    for period in itertools.cycle(plan.periods):
        for op in period:
            outcome = runner.run(op)
            outcomes.append(outcome)
            busy += outcome.seconds
        if busy >= seconds:
            return outcomes


def tail(latencies: Sequence[float]) -> tuple:
    """(value, percentile, samples beyond): the highest percentile that has at
    least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def timings(latencies: Sequence[float]) -> dict:
    tail_s, tail_pct, beyond = tail(latencies)
    return {
        "busy_s": sum(latencies),
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": 1000 * statistics.median(latencies),
        "latency_tail_ms": 1000 * tail_s,
        "latency_tail_percentile": tail_pct,
        "latency_tail_beyond": beyond,
    }


def summarize(outcomes: Sequence[Outcome]) -> dict:
    """Counts and ratios, the timings at the reference speed, and under
    "measured" the same timings as measured."""
    n = len(outcomes)
    undecided = sum(o.status == UNDECIDED for o in outcomes)
    wrong = sum(o.status == WRONG for o in outcomes)
    return {
        "attempted": n,
        "undecided": undecided,
        "undecided_reach": sum(o.status == UNDECIDED and o.op.reach for o in outcomes),
        "wrong": wrong,
        **timings([o.reference_seconds for o in outcomes]),
        "measured": timings([o.seconds for o in outcomes]),
        "decided_ratio": (n - undecided) / n,
        "failed_ratio": (undecided + wrong) / n,
        "wrong_ratio": wrong / n,
    }
