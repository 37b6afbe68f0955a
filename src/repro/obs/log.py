"""Stderr progress logging and the long-run heartbeat.

The experiment harness routes every progress line (start/finish,
resume notices, heartbeats, degradation warnings) through this logger,
keeping **stdout clean for result tables** — `repro run … > tables.txt`
captures only data, while a human watching the terminal still sees
liveness on stderr.

:class:`Heartbeat` is a daemon thread that invokes a callback with the
seconds elapsed since it started, at a fixed cadence, while a long
experiment runs; the harness uses it to log ``experiment id / elapsed /
trials completed`` during otherwise silent sweeps.  The cadence comes
from ``REPRO_HEARTBEAT_S`` (seconds, default 30; 0 disables).
"""

from __future__ import annotations

import logging
import os
import sys
import threading
import time
from typing import Callable, Optional

#: environment variables (documented in docs/OBSERVABILITY.md).
HEARTBEAT_ENV = "REPRO_HEARTBEAT_S"
LOG_LEVEL_ENV = "REPRO_LOG_LEVEL"

DEFAULT_HEARTBEAT_S = 30.0

_CONFIGURED = False


def get_logger(name: str = "repro") -> logging.Logger:
    """The package logger, configured once to write to stderr.

    Level comes from ``REPRO_LOG_LEVEL`` (default ``INFO``); the
    handler is attached to the ``repro`` root logger and does not
    propagate, so embedding applications keep their own logging config.
    """
    global _CONFIGURED
    root = logging.getLogger("repro")
    if not _CONFIGURED:
        handler = logging.StreamHandler(sys.stderr)
        handler.setFormatter(
            logging.Formatter("[%(asctime)s %(name)s %(levelname)s] %(message)s",
                              datefmt="%H:%M:%S")
        )
        root.addHandler(handler)
        root.propagate = False
        level = os.environ.get(LOG_LEVEL_ENV, "INFO").strip().upper() or "INFO"
        root.setLevel(getattr(logging, level, logging.INFO))
        _CONFIGURED = True
    return logging.getLogger(name)


def heartbeat_interval() -> float:
    """Resolved heartbeat cadence in seconds (0 = disabled)."""
    raw = os.environ.get(HEARTBEAT_ENV, "").strip()
    if not raw:
        return DEFAULT_HEARTBEAT_S
    try:
        value = float(raw)
    except ValueError:
        return DEFAULT_HEARTBEAT_S
    return max(0.0, value)


class Heartbeat:
    """Call ``callback(elapsed_s)`` every ``interval_s`` seconds until stopped.

    ``elapsed_s`` counts from the heartbeat's construction.

    ``interval_s <= 0`` constructs a dormant heartbeat (no thread);
    ``stop()`` is always safe to call.  The callback runs on a daemon
    thread and must therefore be cheap and exception-free — a raising
    callback stops the heartbeat, never the run it observes.
    """

    def __init__(self, interval_s: float, callback: Callable[[float], None]) -> None:
        self.interval_s = interval_s
        self._callback = callback
        self._started = time.monotonic()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        if interval_s > 0:
            self._thread = threading.Thread(
                target=self._run, name="repro-obs-heartbeat", daemon=True
            )
            self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self._callback(time.monotonic() - self._started)
            except Exception:
                return

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
            self._thread = None

    def __enter__(self) -> "Heartbeat":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
