"""Shared progress reporting for long sweeps (``--progress``).

Used by ``repro-campaign`` (cells done / cached / failed plus ETA) and
``repro-dacapo`` (iterations done), replacing ad-hoc ``progress``
callbacks with one renderer.

Determinism note: the simulator itself never reads wall-clock time
(lint rule SL001). The reporter's ETA is the one place in the tree where
wall time is *useful* — and it is strictly observational, written to
stderr, never into results. The clock is therefore injected by the
caller: the command-line entry points pass :data:`WALL_CLOCK` and tests
a fake clock, so no library path — the shared cell-execution core and
the studies on it included — ever reaches ``time.perf_counter``.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, Optional, TextIO

#: The clock command-line entry points inject (referenced, not called,
#: at import time; the reporter is the only wall-clock consumer in the
#: tree and sits outside all simulation and result paths).
WALL_CLOCK: Callable[[], float] = time.perf_counter


class ProgressReporter:
    """Counts work units and renders ``done/total`` lines with an ETA.

    One instance per sweep; call :meth:`advance` once per finished unit
    (``cached=True`` for cache hits, ``failed=True`` for quarantined
    cells), then :meth:`finish`. Rendering goes to *stream* (default
    stderr) using carriage-return refresh on TTYs and one line per update
    otherwise.
    """

    def __init__(self, total: int, *, clock: Callable[[], float],
                 label: str = "cells", stream: Optional[TextIO] = None):
        self.total = max(0, int(total))
        self.label = label
        self.done = 0
        self.cached = 0
        self.failed = 0
        self._stream = stream if stream is not None else sys.stderr
        self._clock = clock
        self._started_at: Optional[float] = None
        self._tty = bool(getattr(self._stream, "isatty", lambda: False)())

    # -- lifecycle ------------------------------------------------------

    def start(self) -> None:
        """Mark the sweep start (implicit on the first :meth:`advance`)."""
        if self._started_at is None:
            self._started_at = self._clock()
            self._emit()

    def advance(self, *, cached: bool = False, failed: bool = False) -> None:
        """Record one finished unit and refresh the display."""
        self.start()
        self.done += 1
        if cached:
            self.cached += 1
        if failed:
            self.failed += 1
        self._emit()

    def finish(self) -> None:
        """Final refresh plus a newline (leaves the summary visible)."""
        self.start()
        self._emit(final=True)

    # -- rendering ------------------------------------------------------

    @property
    def remaining(self) -> int:
        """Units not yet finished."""
        return max(0, self.total - self.done)

    def eta_seconds(self) -> Optional[float]:
        """Projected seconds to completion, or None before any unit
        finished (cached units count: they are genuinely done)."""
        if self._started_at is None or self.done == 0 or self.remaining == 0:
            return None
        elapsed = self._clock() - self._started_at
        if elapsed <= 0:
            return None
        return self.remaining * (elapsed / self.done)

    def line(self) -> str:
        """The current progress line."""
        parts = [f"{self.label} {self.done}/{self.total}"]
        detail = []
        if self.cached:
            detail.append(f"{self.cached} cached")
        if self.failed:
            detail.append(f"{self.failed} failed")
        if detail:
            parts.append(f"({', '.join(detail)})")
        eta = self.eta_seconds()
        if eta is not None:
            parts.append(f"ETA {eta:.1f}s")
        return " ".join(parts)

    def _emit(self, final: bool = False) -> None:
        if self._tty:
            self._stream.write("\r" + self.line() + ("\n" if final else ""))
        else:
            self._stream.write(self.line() + "\n")
        self._stream.flush()
