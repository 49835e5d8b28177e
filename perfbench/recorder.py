"""Recorder for one pass (items attempted and failed, counters and spans),
and the speed probe that scales the benchmark's times.

Spans are recorded from the benchmark's own files, around each call into a
layer module's public functions, plus the few calls one layer makes into
another that the benchmark patches at run time (``instrument``). Spans are
kept in memory as [name, start, end, parent, item] and handed to the parent
process when the pass ends. Without tracing, ``call`` is a plain call.

The speed of the machine this benchmark was written on drifts by up to 2x
over seconds to minutes. ``SpeedProbe`` times a short fixed loop that uses
no covnum code twenty times a second, and reports each wall time also as
the time it would have taken at a fixed probe speed (see NOTES.md).
"""

from __future__ import annotations

import functools
import signal
import time
import traceback
from collections import Counter
from contextlib import contextmanager

ROOT_SPAN = "pass"
# the probe loop's time on the machine the benchmark was written on
PROBE_NOMINAL_S = 0.0002
SAMPLE_EVERY_S = 0.05
_PERMS = [tuple((i * k + k // 2) % 97 for i in range(97)) for k in range(1, 9)]


def _probe_loop() -> float:
    """Time of a short fixed loop of the kind of work covnum does: tuple
    permutations composed by indexing."""
    t0 = time.monotonic()
    p = _PERMS[0]
    for step in range(20):
        p = tuple(_PERMS[step % 8][x] for x in p)
    return time.monotonic() - t0


class SpeedProbe:
    """Samples the machine's speed every SAMPLE_EVERY_S seconds of wall time
    by timing ``_probe_loop`` (the fastest of three) from a SIGALRM handler,
    and scales wall times to the speed at which that loop takes
    PROBE_NOMINAL_S: a stretch of work is scaled by PROBE_NOMINAL_S over the
    loop time."""

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []  # start, end, loop time

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame) -> None:
        t0 = time.monotonic()
        loop = min(_probe_loop(), _probe_loop(), _probe_loop())
        self.samples.append((t0, time.monotonic(), loop))

    def scaled(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall, scaled) for the monotonic interval [t0, t1]: its wall time
        less the time spent sampling, and that time at the nominal speed.
        Each stretch between samples runs at the mean speed of the samples
        on either side of it."""
        inside = [s for s in self.samples if t0 <= s[0] and s[1] <= t1]
        if not inside:   # an interval shorter than SAMPLE_EVERY_S
            loops = [min(self.samples, key=lambda s: abs(s[0] - t0))[2]]
        else:
            loops = [loop for *_, loop in inside]
        edges = [t0] + [t for start, end, _ in inside for t in (start, end)] + [t1]
        wall = scaled = 0.0
        for k in range(len(inside) + 1):
            stretch = edges[2 * k + 1] - edges[2 * k]
            near = loops[max(k - 1, 0):k + 1]
            wall += stretch
            scaled += stretch * PROBE_NOMINAL_S * len(near) / sum(near)
        return wall, scaled


class CheckFailed(Exception):
    """A computed value disagrees with the golden value or the theory."""


class Recorder:
    def __init__(self, traced: bool):
        self.spans: list[list] | None = [] if traced else None
        self.counts: Counter[str] = Counter()
        self.attempted = 0
        self.failures: list[str] = []
        self._stack: list[int] = []
        self._item: str | None = None

    def call(self, name: str, fn, /, *args, **kwargs):
        """fn(*args, **kwargs) inside a span called ``name`` when tracing."""
        if self.spans is None:
            return fn(*args, **kwargs)
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = [name, time.perf_counter(), 0.0, parent, self._item]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def item(self, item_id: str):
        """One checked unit of work; any exception in it counts as a failure."""
        self.attempted += 1
        self._item = item_id
        try:
            yield
        except Exception:  # the pass goes on; the failure is reported
            self.failures.append(f"{item_id}: {traceback.format_exc(limit=4)}")
        finally:
            self._item = None

    @staticmethod
    def check(ok: bool, message: str) -> None:
        if not ok:
            raise CheckFailed(message)

    def count(self, name: str, value: float = 1) -> None:
        self.counts[name] += value


def instrument(recorder: Recorder, module, attr: str, span: str, counter=None) -> None:
    """Replace ``module.attr`` with a traced wrapper, so that calls one layer
    makes into another through that name are recorded as spans.
    ``counter(result)`` may return {name: value} to count from the result."""
    original = getattr(module, attr)

    @functools.wraps(original)
    def traced(*args, **kwargs):
        result = recorder.call(span, original, *args, **kwargs)
        if counter is not None:
            for name, value in counter(result).items():
                recorder.count(name, value)
        return result

    setattr(module, attr, traced)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for (name, *_), t in zip(spans, own):
        out[name] = out.get(name, 0.0) + t
    return out
