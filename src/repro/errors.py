"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so that
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """An invalid configuration value was supplied (bad flag, bad size...)."""


def require_axes(study: str, **axes) -> None:
    """:class:`ConfigError` naming the first empty axis of *study*
    (``heap_size=()`` reads "... needs at least one heap size")."""
    for noun, values in axes.items():
        if not values:
            raise ConfigError(
                f"{study} needs at least one {noun.replace('_', ' ')}")


class HeapError(ReproError):
    """Base class for heap-related failures."""


class OutOfMemoryError(HeapError):
    """The simulated JVM ran out of heap even after a full collection.

    Mirrors ``java.lang.OutOfMemoryError``: raised when a full GC cannot
    free enough space to satisfy an allocation request.
    """

    def __init__(self, requested: float, free: float, message: str = ""):
        self.requested = requested
        self.free = free
        super().__init__(
            message
            or f"Java heap space: requested {requested:.0f} B, free {free:.0f} B"
        )


class AllocationFailure(HeapError):
    """Internal signal: the young generation cannot satisfy an allocation.

    Caught by the JVM, which then triggers a minor collection (mirroring
    HotSpot's ``GC (Allocation Failure)`` cause). Not a user-facing error.
    """

    def __init__(self, requested: float):
        self.requested = requested
        super().__init__(f"allocation failure: requested {requested:.0f} B")


class PromotionFailure(HeapError):
    """The old generation cannot absorb the survivors of a minor GC.

    Triggers a full collection (and, for CMS, a concurrent mode failure).
    """


class SimulationError(ReproError):
    """The discrete-event simulation reached an inconsistent state."""


class ProtocolError(ReproError):
    """A malformed, oversized or otherwise invalid message on the
    ``repro-serve`` wire protocol.

    Carries an HTTP-flavoured status *code* so service responses can
    distinguish client mistakes (400 bad request, 413 oversized line)
    from service conditions (429 queue full, 503 draining).
    """

    def __init__(self, message: str, code: int = 400):
        self.code = int(code)
        super().__init__(message)


class QuarantinedCellError(ReproError):
    """Cells whose worker failed on every retry (*failures*, the
    quarantined ``CellFailure`` records): a study cannot fold them."""

    def __init__(self, what: str, failures):
        self.failures = list(failures)
        super().__init__(f"{what}: {len(self.failures)} cell(s) quarantined: "
                         + "; ".join(f.format() for f in self.failures))


class BenchmarkCrash(ReproError):
    """A (simulated) benchmark crashed.

    The paper reports that *eclipse*, *tradebeans* and *tradesoap* crashed
    on every test with OpenJDK 8; their profiles raise this error so the
    harness can reproduce the paper's benchmark-selection step.
    """

    def __init__(self, benchmark: str, reason: str = ""):
        self.benchmark = benchmark
        super().__init__(f"benchmark {benchmark!r} crashed: {reason or 'incompatible with JDK8'}")
