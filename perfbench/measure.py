"""Host-time measurement: one injected clock, calibrated by a pure-Python spin.

Every host-time number the benchmark reports is

    raw elapsed time x NOMINAL_SPIN_S / (measured time of one spin sample)

where the spin is a fixed integer loop with no allocation and no library
calls. The clock takes a *checkpoint* between units of work: it closes
the open work segment, times a few spin samples and opens the next
segment. A segment is priced by the mean of the spin medians on either
side of it, so a host that slows down for a few seconds (a noisy
neighbour, a frequency change) slows the spin by the same factor and the
calibrated figure stays put. Spins never fall inside a timed operation
and their time is never counted as work.

The wall clock is read only through ``HostClock.now``, which is injected
(default :func:`time.perf_counter`, referenced, not called, here) the
way ``repro.campaign.progress`` and ``repro.serve.service`` inject
theirs, so tests can drive a fake clock through the same code.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

#: Size of one spin sample (about 0.7 ms of CPython on a 2-core VM).
#: Changing it, or the loops below, invalidates NOMINAL_SPIN_S and every
#: calibrated number recorded before the change.
SPIN_N = 4000

#: Spin samples per checkpoint; the checkpoint keeps their median, so one
#: preempted sample does not reprice a segment.
SPIN_SAMPLES = 3

#: Pinned reference duration of one spin sample, in seconds: the median
#: measured on the 2-core x86-64 VM the benchmark was written on. A host
#: exactly that fast reports calibrated times equal to raw times.
NOMINAL_SPIN_S = 0.0008

#: Least raw work between two checkpoints, in seconds.
CHECKPOINT_INTERVAL_S = 0.15


class _Cell:
    __slots__ = ("key", "value", "pair")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.pair = None


def spin(n: int = SPIN_N) -> int:
    """The reference workload, pure Python: an integer LCG, then small
    objects, tuples and lists made and dropped.

    The allocating half matters: on a shared host the simulator's
    slowdowns follow allocation and memory traffic, which an arithmetic
    loop alone misses (over 20 s windows on a noisy 2-core VM, the
    arithmetic loop alone left 6.8 % spread, this mix 5.2 %, raw 24 %).
    """
    acc = 0
    for i in range(n):
        acc = (acc * 1103515245 + i) & 0xFFFFFFFF
    recent, table = [], {}
    for i in range(n // 9):
        cell = _Cell(i, i * 1.5)
        cell.pair = (cell.key, cell.value)
        table[i & 127] = cell
        recent.append([cell.value, i])
        if len(recent) > 64:
            recent = recent[32:]
    return acc + len(table)


class HostClock:
    """Wall clock plus spin calibration over alternating work segments.

    ``segments[i]`` is the raw length of work segment *i*; it lies
    between spin checkpoints ``i + offset`` and ``i + offset + 1``
    (checkpoints taken while no segment was open, such as the one at
    interpreter start, shift the offset).
    """

    def __init__(self, now: Callable[[], float] = time.perf_counter,
                 spin_fn: Callable[[], object] = spin,
                 interval: float = CHECKPOINT_INTERVAL_S):
        self.now = now
        self._spin = spin_fn
        self.interval = interval
        #: Median spin seconds per checkpoint, in time order.
        self.spins: List[float] = []
        #: (raw seconds, index into ``spins`` of the checkpoint before it).
        self.segments: List[Tuple[float, int]] = []
        self._open: Optional[float] = None

    # -- checkpoints ------------------------------------------------------

    def checkpoint(self) -> None:
        """Close the open segment (if any), spin, reopen it after the spin."""
        was_open = self._open is not None
        if was_open:
            self.segments.append((self.now() - self._open,
                                  len(self.spins) - 1))
        samples = []
        for _ in range(SPIN_SAMPLES):
            t0 = self.now()
            self._spin()
            samples.append(self.now() - t0)
        self.spins.append(statistics.median(samples))
        if was_open:
            self._open = self.now()

    def begin(self) -> None:
        """Start counting host time (after a fresh checkpoint)."""
        if self._open is not None:
            raise RuntimeError("host-time segment already open")
        self.checkpoint()
        self._open = self.now()

    def tick(self) -> None:
        """Checkpoint if the open segment is long enough. Call only
        between operations: the spin must not land inside a timed one."""
        if self._open is not None and self.now() - self._open >= self.interval:
            self.checkpoint()

    def end(self) -> None:
        """Stop counting host time (closing with a checkpoint)."""
        if self._open is None:
            raise RuntimeError("no host-time segment open")
        self.checkpoint()
        self._open = None

    @property
    def segment(self) -> int:
        """Index the open segment will have once closed."""
        return len(self.segments)

    # -- calibration ------------------------------------------------------

    def factor(self, segment: int) -> float:
        """Calibration factor for one closed segment."""
        before = self.segments[segment][1]
        return self.factor_between(before, before + 1)

    def factor_between(self, i: int, j: int) -> float:
        """Calibration factor from spin checkpoints *i* and *j*."""
        return NOMINAL_SPIN_S / ((self.spins[i] + self.spins[j]) / 2.0)

    def calibrate(self, raw: float, segment: int) -> float:
        """Calibrated seconds of *raw* seconds measured in *segment*."""
        return raw * self.factor(segment)

    def host_seconds(self, first: int = 0, last: Optional[int] = None) -> float:
        """Calibrated seconds of closed segments ``first`` .. ``last - 1``."""
        last = len(self.segments) if last is None else last
        return sum(self.calibrate(self.segments[i][0], i)
                   for i in range(first, last))

    def raw_seconds(self) -> float:
        """Raw seconds of every closed segment."""
        return sum(raw for raw, _ in self.segments)


class Samples:
    """Raw timings tagged with their segment, calibrated on read."""

    def __init__(self, clock: HostClock):
        self.clock = clock
        self._by_name: Dict[str, List[Tuple[int, float]]] = {}

    def add(self, name: str, segment: int, raw: float) -> None:
        self._by_name.setdefault(name, []).append((segment, raw))

    def count(self, name: str) -> int:
        return len(self._by_name.get(name, ()))

    def calibrated(self, name: str) -> List[float]:
        """Calibrated seconds of every sample under *name*."""
        return [self.clock.calibrate(raw, seg)
                for seg, raw in self._by_name.get(name, ())]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile; NaN without enough samples.

    A percentile is reported only when at least ten samples lie beyond
    it (q = 50 needs 20 samples, q = 99 needs 1000).
    """
    n = len(values)
    if n == 0 or n * (100.0 - q) / 100.0 < 10.0 - 1e-9:
        return math.nan
    ordered = sorted(values)
    k = max(0, math.ceil(q / 100.0 * n) - 1)
    return ordered[min(k, n - 1)]


def median_rate(clock: HostClock, groups) -> float:
    """Median over *groups* of ``amount / calibrated host seconds``.

    Each group is ``(first segment, end segment, amount)``: a pass of
    identical work, or one batch of served jobs. The median keeps one
    slow stretch of the host from moving a run's figure.
    """
    return median([amount / clock.host_seconds(first, end)
                   for first, end, amount in groups])


def cell_median(timings) -> float:
    """Median over distinct cells of each cell's median calibrated time.

    *timings* maps a cell key to its calibrated times, one per pass.
    """
    return median([median(times) for times in timings.values()])


def median(values: Sequence[float]) -> float:
    """Median, NaN for no samples (no ten-beyond rule: used for layers)."""
    return statistics.median(values) if values else math.nan


class Spans:
    """In-memory span recorder for traced runs.

    A span is ``(id, parent, name, op, segment, start, end)``; every span
    of one cell or job carries the same ``op`` id. Nested spans come from
    :meth:`span` (a stack); concurrent ones (serve round trips) from
    :meth:`add`. Spans are written once, when the run ends.
    """

    def __init__(self, clock: HostClock):
        self.clock = clock
        self.records: List[dict] = []
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None):
        parent = self._stack[-1] if self._stack else None
        if op is None and parent is not None:
            op = self.records[parent]["op"]
        rec = {"id": len(self.records), "parent": parent, "name": name,
               "op": op, "segment": self.clock.segment,
               "start": self.clock.now(), "end": None}
        self.records.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = self.clock.now()
            self._stack.pop()

    def add(self, name: str, op: Optional[str], segment: int,
            start: float, end: float) -> None:
        self.records.append({"id": len(self.records), "parent": None,
                             "name": name, "op": op, "segment": segment,
                             "start": start, "end": end})

    def last(self, name: str) -> dict:
        """The most recent span called *name*."""
        return next(r for r in reversed(self.records) if r["name"] == name)

    def durations(self, name: str, samples: Samples, key: str) -> None:
        """Copy every *name* span's duration into *samples* under *key*."""
        for rec in self.records:
            if rec["name"] == name and rec["end"] is not None:
                samples.add(key, rec["segment"], rec["end"] - rec["start"])

    def self_times(self) -> Dict[int, float]:
        """Raw self time per span: its duration minus its children's."""
        out = {r["id"]: r["end"] - r["start"] for r in self.records
               if r["end"] is not None}
        for rec in self.records:
            if rec["parent"] is not None and rec["end"] is not None:
                out[rec["parent"]] -= rec["end"] - rec["start"]
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines (raw seconds, plus self time)."""
        selfs = self.self_times()
        with open(path, "w") as fh:
            for rec in self.records:
                out = dict(rec, self_s=selfs.get(rec["id"]))
                fh.write(json.dumps(out, sort_keys=True) + "\n")


class NullSpans:
    """Tracing off: the same interface, recording nothing."""

    @contextlib.contextmanager
    def span(self, name: str, op: Optional[str] = None):
        yield None

    def add(self, name, op, segment, start, end) -> None:
        pass
