"""Env-gated sabotage hooks for worker processes (tests and CI only).

Failure paths are exercised by real process faults instead of patches
to production code. Worker processes — the ones the local backend
forks for a pass and the pool's — call :func:`mute` and then
:func:`sabotage` once per unit, in the unit loop of
:func:`~repro.campaign.worker.serve_connection`. The inline path calls
neither, so a hook fires only when units run in worker
processes: ``jobs >= 2``, a per-point timeout, or the pool. This is
the only module that reads the variables:

* ``REPRO_CHAOS_CRASH=<point-index>`` — the worker SIGKILLs itself;
* ``REPRO_CHAOS_HANG=<point-index>`` — the worker sleeps
  ``$REPRO_CHAOS_HANG_SECS`` seconds (default 3600), still heartbeating
  in the pool;
* ``REPRO_CHAOS_MUTE=<point-index>`` — the worker goes silent (no
  heartbeats, no result) for as long, so its lease expires;
* ``REPRO_CHAOS_ATTEMPTS=<n>`` — only the first *n* dispatches of the
  targeted point misbehave (default 1, so a retry or a reassigned
  dispatch demonstrably recovers).

Dispatches count from zero: workers pass the unit's dispatch counter,
which retries and the pool's free reassignments advance. The local
backend grants no free reassignment, so there it is the attempt
minus one.
"""

from __future__ import annotations

import os
import signal
import time

ENV_CHAOS_CRASH = "REPRO_CHAOS_CRASH"
ENV_CHAOS_HANG = "REPRO_CHAOS_HANG"
ENV_CHAOS_HANG_SECS = "REPRO_CHAOS_HANG_SECS"
ENV_CHAOS_MUTE = "REPRO_CHAOS_MUTE"
ENV_CHAOS_ATTEMPTS = "REPRO_CHAOS_ATTEMPTS"


def _armed(var: str, index: int, dispatch0: int) -> bool:
    """Whether hook ``var`` targets this dispatch of point ``index``."""
    if os.environ.get(var) != str(index):
        return False
    try:
        attempts = int(os.environ.get(ENV_CHAOS_ATTEMPTS, "1"))
    except ValueError:
        attempts = 1
    return dispatch0 < attempts


def _hang() -> None:
    time.sleep(float(os.environ.get(ENV_CHAOS_HANG_SECS, "3600")))


def sabotage(index: int, dispatch0: int) -> None:
    """SIGKILL or hang this worker if a hook targets the dispatch."""
    if _armed(ENV_CHAOS_CRASH, index, dispatch0):
        os.kill(os.getpid(), signal.SIGKILL)
    if _armed(ENV_CHAOS_HANG, index, dispatch0):
        _hang()


def mute(index: int, dispatch0: int) -> bool:
    """Go silent if the mute hook targets the dispatch; True if it did."""
    if not _armed(ENV_CHAOS_MUTE, index, dispatch0):
        return False
    _hang()
    return True
