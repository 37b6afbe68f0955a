"""Crash-safe trial journaling for resumable failure sweeps.

A :class:`TrialJournal` is an append-only JSONL file mapping stable
trial keys to their recorded results.  Each completed trial is flushed
as one line, so a killed run (worker crash, SIGKILL, wall-clock
timeout) loses at most the trial in flight; re-running with resume
enabled replays the journal and computes only the missing trials.

The experiment harness (:mod:`repro.experiments.harness`) opens one
journal per experiment run at ``<out_dir>/<exp_id>.journal.jsonl`` and
installs it as the *active* journal; :func:`repro.faults.sweep.
degradation_sweep` picks it up automatically.  On a successful run the
journal is deleted — a journal on disk always means an interrupted run.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, Iterator, Optional

from repro.obs import trace as _obs


class TrialJournal:
    """Append-only key → result store backed by a JSONL file."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._completed: Dict[str, Any] = {}
        self._handle = None
        if os.path.exists(path):
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        self._completed[entry["key"]] = entry["value"]
                    except (ValueError, KeyError, TypeError):
                        # A truncated trailing line from a killed writer
                        # is expected; everything before it is intact.
                        continue

    # ------------------------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._completed

    def __len__(self) -> int:
        return len(self._completed)

    def get(self, key: str) -> Optional[Any]:
        return self._completed.get(key)

    def keys(self) -> Iterator[str]:
        return iter(self._completed)

    def record(self, key: str, value: Any) -> None:
        """Persist one completed trial (appended and flushed immediately).

        Timed as a ``faults.journal`` span.
        """
        with _obs.span("faults.journal"):
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(json.dumps({"key": key, "value": value}) + "\n")
            self._handle.flush()
            self._completed[key] = value

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def delete(self) -> None:
        """Close and remove the journal file (successful-run cleanup)."""
        self.close()
        try:
            os.unlink(self.path)
        except FileNotFoundError:
            pass

    def __enter__(self) -> "TrialJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


# ----------------------------------------------------------------------
# the active journal (installed per experiment run by the harness)
# ----------------------------------------------------------------------
_ACTIVE: Optional[TrialJournal] = None


def set_active_journal(journal: Optional[TrialJournal]) -> Optional[TrialJournal]:
    """Install ``journal`` as the run-wide default; returns the previous one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = journal
    return previous


def get_active_journal() -> Optional[TrialJournal]:
    return _ACTIVE
