"""Experiment-campaign layer: parallel, cached, resumable grid sweeps.

Every artefact in EXPERIMENTS.md is an experiment grid ({benchmark} x
{gc} x {heap} x {young} x {seed}); :mod:`repro.studies` runs one grid
strictly serially and in-process. A *campaign* names one or more grids
and runs their cells through a pluggable executor (serial, or a
``ProcessPoolExecutor`` fan-out across cores) with a content-addressed
on-disk :class:`ResultStore`, so that

* re-running a campaign skips every already-computed cell (cache hits),
* an interrupted sweep (``Ctrl-C``, ``kill``, OOM-killer) loses nothing —
  completed cells are flushed to disk as they finish and ``resume``
  simply runs again,
* results are bit-identical regardless of executor choice or worker
  count: each cell derives its RNG streams from its own coordinates via
  :func:`repro.seeding.rng_for`, never from execution order.

The package splits into focused modules:

========================  ==============================================
:mod:`~repro.campaign.spec`       ``CampaignSpec`` — named set of grids
:mod:`~repro.campaign.cells`      pure picklable ``run_cell`` + codecs
:mod:`~repro.campaign.executors`  serial / process executors
:mod:`~repro.campaign.store`      content-addressed JSONL result store
:mod:`~repro.campaign.runner`     ``execute_cells`` (cache, retries,
                                  quarantine) + ``run_campaign``
:mod:`~repro.campaign.progress`   shared progress reporter (done/cached/
                                  failed, ETA)
:mod:`~repro.campaign.cli`        the ``repro-campaign`` command
========================  ==============================================
"""

from .cells import CellSpec, decode_run, encode_run, run_cell
from .executors import (
    CellFailure,
    ProcessExecutor,
    SerialExecutor,
    default_workers,
    get_executor,
)
from .progress import ProgressReporter
from .runner import (CampaignResult, CampaignStats, CellRuns, execute_cells,
                     run_campaign)
from .spec import CampaignSpec
from .store import MergeStats, ResultStore, merge_stores, store_status

__all__ = [
    "store_status",
    "MergeStats",
    "merge_stores",
    "CampaignResult",
    "CampaignSpec",
    "CampaignStats",
    "CellFailure",
    "CellRuns",
    "CellSpec",
    "ProcessExecutor",
    "ProgressReporter",
    "ResultStore",
    "SerialExecutor",
    "decode_run",
    "default_workers",
    "encode_run",
    "execute_cells",
    "get_executor",
    "run_campaign",
    "run_cell",
]
