"""Campaign orchestration: cache, execute, retry, quarantine, assemble.

:func:`execute_cells` is the one cell-execution core; campaigns and the
LBO, energy and fleet studies all run their cells through it:

1. **Cache** — cells are deduplicated by content digest and looked up in
   the :class:`~repro.campaign.store.ResultStore`; hits are never
   re-simulated.
2. **Execute** — misses stream lazily into the executor and each result
   is flushed to the store *as it arrives* (fsync per record), so
   interruption loses at most in-flight cells.
3. **Retry & quarantine** — cells whose *worker* failed (raised, timed
   out, or died — distinct from simulated-JVM crashes, which are ordinary
   ``crashed`` results) are retried up to ``retries`` times, then
   quarantined: recorded as failures in the store and reported in
   :class:`CampaignStats`.

:func:`run_campaign` registers the spec in the store's manifest, calls
the core and assembles one :class:`~repro.studies.GridResult` per grid,
in spec order, so serial and N-worker campaigns produce identical
results (asserted in ``tests/test_campaign.py``).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Union

from ..errors import ConfigError, QuarantinedCellError
from ..jvm import RunResult
from ..studies import GridResult, write_grid_csv
from .cells import CellSpec, run_cell
from .executors import CellFailure, CellFn, SerialExecutor, get_executor
from .progress import ProgressReporter
from .spec import CampaignSpec
from .store import ResultStore


@dataclass
class CampaignStats:
    """Bookkeeping for one campaign run."""

    total: int = 0          #: cells in the spec (duplicates counted once)
    simulated: int = 0      #: cells actually executed this run
    cached: int = 0         #: cells served from the store
    retried: int = 0        #: retry attempts spent on failing cells
    quarantined: int = 0    #: cells given up on after retries

    def summary(self) -> str:
        """One-line, grep-stable summary (CI asserts on this format)."""
        return (
            f"cells: simulated {self.simulated}, cached {self.cached}/{self.total}, "
            f"retried {self.retried}, quarantined {self.quarantined}"
        )


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    spec: CampaignSpec
    grids: List[GridResult]
    stats: CampaignStats
    quarantined: List[CellFailure] = field(default_factory=list)

    def grid(self, index: int = 0) -> GridResult:
        """The *index*-th grid's result."""
        return self.grids[index]

    def to_rows(self) -> List[List]:
        """All grids' rows, concatenated in grid order."""
        return [row for grid in self.grids for row in grid.to_rows()]

    def to_csv(self, path) -> None:
        """Write every grid's rows as one CSV."""
        write_grid_csv(path, self.to_rows())


@dataclass
class CellRuns:
    """What :func:`execute_cells` produced."""

    runs: Dict[str, RunResult]      #: digest -> result, completed cells only
    stats: CampaignStats
    quarantined: List[CellFailure] = field(default_factory=list)

    def complete(self, what: str) -> Dict[str, RunResult]:
        """The runs, or a :class:`QuarantinedCellError` for *what*."""
        if self.quarantined:
            raise QuarantinedCellError(what, self.quarantined)
        return self.runs


def execute_cells(cells: Iterable[CellSpec], fn: CellFn = run_cell, *,
                  store: Optional[ResultStore] = None, executor=None,
                  timeout: Optional[float] = None, retries: int = 2,
                  reporter: Optional[ProgressReporter] = None) -> CellRuns:
    """Run *cells* through *fn*: dedup, cache, execute, retry, quarantine.

    Misses reach *executor* (default serial) as a lazy iterator, so the
    serial path keeps ``get_run(d)`` → ``fn(cell)`` → ``record_ok(d)``
    adjacent per cell: store-side timings measure one cell each.
    """
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    if executor is None:
        executor = SerialExecutor()
    unique: Dict[str, CellSpec] = {}
    for cell in cells:
        unique.setdefault(cell.digest(), cell)

    stats = CampaignStats(total=len(unique))
    runs: Dict[str, RunResult] = {}
    if reporter is not None:
        reporter.total = stats.total
        reporter.start()

    def misses() -> Iterator[CellSpec]:
        for digest, cell in unique.items():
            hit = store.get_run(digest) if store is not None else None
            if hit is None:
                yield cell
                continue
            runs[digest] = hit
            stats.cached += 1
            if reporter is not None:
                reporter.advance(cached=True)

    quarantined: List[CellFailure] = []
    pending: Iterable[CellSpec] = misses()
    attempt = 0
    while True:
        failures: List[CellFailure] = []
        for cell, outcome in executor.run_cells(pending, fn, timeout=timeout):
            if isinstance(outcome, CellFailure):
                failures.append(outcome)
                continue
            runs[cell.digest()] = outcome
            stats.simulated += 1
            if store is not None:
                store.record_ok(cell, outcome)
            if reporter is not None:
                reporter.advance()
        if not failures:
            break
        if attempt >= retries:
            for failure in failures:
                quarantined.append(failure)
                stats.quarantined += 1
                if store is not None:
                    store.record_cell_failure(failure, attempts=attempt + 1)
                if reporter is not None:
                    reporter.advance(failed=True)
            break
        stats.retried += len(failures)
        pending = [f.cell for f in failures]
        attempt += 1
    if reporter is not None:
        reporter.finish()
    return CellRuns(runs=runs, stats=stats, quarantined=quarantined)


def run_campaign(spec: CampaignSpec, *,
                 store: Optional[Union[ResultStore, str]] = None,
                 executor: Union[str, object] = "serial",
                 workers: Optional[int] = None,
                 timeout: Optional[float] = None,
                 retries: int = 2,
                 reporter: Optional[ProgressReporter] = None,
                 trace_dir: Optional[str] = None) -> CampaignResult:
    """Run (or resume) *spec* and return its :class:`CampaignResult`.

    *store* may be a :class:`ResultStore`, a directory path, or None for
    a purely in-memory run (no caching, no resumability). *executor* is
    an executor name (``serial``/``process``) or a ready instance;
    *workers* sizes the process pool (default: one per core). With
    *trace_dir*, every simulated cell also writes a telemetry trace to
    ``<trace_dir>/<digest>.trace.jsonl`` (cache hits don't re-trace —
    re-run after ``clean`` to trace everything).
    """
    if retries < 0:
        raise ConfigError("retries must be >= 0")
    if isinstance(store, (str, bytes)) or hasattr(store, "__fspath__"):
        store = ResultStore(store)
    if isinstance(executor, str):
        executor = get_executor(executor, workers=workers)

    per_grid_cells = spec.cell_specs()
    cells = [cell for grid_cells in per_grid_cells for cell in grid_cells]
    if store is not None:
        store.register_campaign({
            "name": spec.name,
            "digest": spec.digest(),
            "spec": spec.to_dict(),
            "cells": len({cell.digest() for cell in cells}),
        })
    # functools.partial keeps the cell function picklable for the
    # process executor (a lambda would not ship to workers).
    cell_fn = (run_cell if trace_dir is None
               else functools.partial(run_cell, trace_dir=trace_dir))
    done = execute_cells(cells, cell_fn, store=store, executor=executor,
                         timeout=timeout, retries=retries, reporter=reporter)

    # -- assemble per-grid results in spec order ------------------------
    grids: List[GridResult] = []
    for grid_spec, grid_cells in zip(spec.grids, per_grid_cells):
        grid = GridResult(spec=grid_spec)
        for cell in grid_cells:
            run = done.runs.get(cell.digest())
            if run is not None:
                grid.runs[cell.key()] = run
        grids.append(grid)
    return CampaignResult(spec=spec, grids=grids, stats=done.stats,
                          quarantined=done.quarantined)
