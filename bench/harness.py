"""Timing, host speed, spans, checks tally and child processes for the
benchmark."""
from __future__ import annotations

import contextlib
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from mpmath import mp

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
CHILD_TIMEOUT_S = 120

# REFERENCE_S is about the reference loop's median time on this host (2
# cores of a shared x86-64 host, CPython 3.11, pure-Python mpmath), so scaled
# times read as seconds at its typical speed.
REFERENCE_S = 0.1
SAMPLE_EVERY_S = 1.5      # seconds of timed work between reference samples


def reference_loop():
    """A fixed pure-mpmath computation that uses nothing of skewrh: its time
    tracks the speed the shared host gives this process right now."""
    with mp.workprec(272):
        x = mp.mpf(1) / 3
        acc = mp.mpf(0)
        for i in range(3500):
            acc += mp.exp(-x * i / 100) * x
    return acc


class HostSpeed:
    """Scales timed work to the host's reference speed.

    The host is shared: a fixed loop of Python arithmetic runs up to about
    1.5 times slower at some minutes than at others, in every process
    alike.  So the reference loop is timed between the timed calls, after
    each stretch of SAMPLE_EVERY_S seconds of work or more, and a stretch of
    work is scaled by REFERENCE_S over the mean of the samples taken from
    its start to its end.  One sample closes a stretch however long it is:
    samples taken back to back after a long call all see the same moment.
    A change to the program moves the work, not the loop.
    """

    def __init__(self):
        self.samples = []         # seconds of each reference loop
        self.pending = 0.0        # work since the last sample

    def sample(self):
        start = time.perf_counter()
        reference_loop()
        self.samples.append(time.perf_counter() - start)
        self.pending = 0.0

    def add(self, seconds):
        self.pending += seconds
        if self.pending >= SAMPLE_EVERY_S:
            self.sample()

    def scale(self, seconds, first):
        """``seconds`` of work at the reference speed, by the samples from
        index ``first`` on."""
        return seconds * REFERENCE_S / statistics.mean(self.samples[first:])


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SKEWRH_PRECISION_BITS", None)
    return env


def run_child(argv, stdout_path=None):
    """Run one child process to its end and reap it with wait4, which gives
    its own peak RSS: (wall seconds, exit code, peak RSS MB)."""
    OUT.mkdir(parents=True, exist_ok=True)
    err_path = OUT / "child.stderr"
    with contextlib.ExitStack() as files:
        out = (files.enter_context(open(stdout_path, "wb")) if stdout_path
               else subprocess.DEVNULL)
        err = files.enter_context(open(err_path, "wb"))
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=child_env(), cwd=ROOT)
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() - start > CHILD_TIMEOUT_S:
                proc.kill()
                pid, status, usage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        sys.stderr.write(err_path.read_text(errors="replace"))
    return wall, proc.returncode, usage.ru_maxrss / 1024


class Recorder:
    """Times every call into the program; with tracing on, also keeps
    spans (id, parent, name, start, end) in memory for the run's end."""

    def __init__(self, trace: bool, speed: HostSpeed):
        self.trace = trace
        self.speed = speed
        self.work = 0.0           # seconds spent inside timed calls
        self.t0 = time.perf_counter()
        self.spans = []
        self.durations = {}
        self.attempted = 0
        self.failed = 0
        self.last = None          # seconds of the latest call
        self._stack = []

    def _open(self, name):
        if not self.trace:
            return None
        span = {"id": len(self.spans), "name": name,
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter() - self.t0, "end": None}
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span, end):
        if span is not None:
            span["end"] = end - self.t0
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """One operation: a call into a public function of the program."""
        self.attempted += 1
        span = self._open(name)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            self._close(span, time.perf_counter())
            raise
        end = time.perf_counter()
        self._close(span, end)
        self.last = end - start
        self.durations.setdefault(name, []).append(self.last)
        self.work += self.last
        self.speed.add(self.last)
        return result

    @contextlib.contextmanager
    def stage(self, name):
        """A group of calls whose total time, reference samples left out,
        goes to the run record; yields a one-element list that holds the
        seconds on exit."""
        span = self._open(name)
        box = [None]
        work = self.work
        try:
            yield box
        finally:
            box[0] = self.work - work
            self._close(span, time.perf_counter())


class Checks:
    """Pass/fail tally of every correctness check, with the worst error."""

    def __init__(self):
        self.results = {}

    def expect(self, name, ok, err=None):
        r = self.results.setdefault(name, {"passed": 0, "failed": 0,
                                           "worst": None})
        r["passed" if ok else "failed"] += 1
        if err is not None:
            err = float(err)
            r["worst"] = err if r["worst"] is None else max(r["worst"], err)
        if not ok:
            print(f"check failed: {name}: error {err}", file=sys.stderr)
        return ok

    @property
    def correct(self):
        return bool(self.results) and all(r["failed"] == 0
                                          for r in self.results.values())


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
