"""Fault-injection hook for the sweep engine's worker processes.

``REPRO_SWEEP_FAULT_SENTINEL`` arms a self-inflicted fault inside a sweep
worker, letting smoke tests exercise the recovery paths (retry,
quarantine) without real crashes:

- ``always`` — every worker task SIGKILLs itself.
- ``<path>`` — exactly one task fleet-wide dies: the sentinel file is
  created with ``O_EXCL`` so concurrent workers race for a single SIGKILL.
"""

from __future__ import annotations

import os
import signal

from ..settings import current

FAULT_SENTINEL_ENV = "REPRO_SWEEP_FAULT_SENTINEL"


def maybe_inject_fault():
    """SIGKILL this process if the sweep fault sentinel is armed."""
    sentinel = current().sweep_fault_sentinel
    if not sentinel:
        return
    if sentinel != "always":
        try:
            os.close(os.open(sentinel, os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        except OSError:
            return  # another task already claimed the single kill
    os.kill(os.getpid(), signal.SIGKILL)
