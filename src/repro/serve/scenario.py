"""LRU cache of :class:`~repro.faults.mask.MaskedGraph` scenarios.

Building a MaskedGraph is cheap (a bitmap over the compiled CSR), but
its *derived* state — component labels, the alive-only sweep view — is
where a what-if's cost lives, and both are cached on the instance.
Keeping recently queried scenarios alive therefore turns repeat
what-ifs ("what breaks if rack 3 dies" asked by every dashboard
refresh) into dictionary lookups.

Keys are the canonical tuples of :func:`repro.serve.protocol
.scenario_key`, so logically identical scenarios share an entry
regardless of the order the client listed the dead components in.

Thread-safe: the inline (``workers=0``) service executes queries from
HTTP handler threads concurrently.  Hits and misses are counted once,
in the process metrics registry (``serve.scenario.cache_hit`` /
``.cache_miss`` / ``.cache_evict`` — ``repro obs report`` derives the
hit rate automatically).  The instance keeps its own ``hits`` /
``misses`` / ``evictions`` as component state for ``/stats.workers``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

from repro.faults.mask import MaskedGraph
from repro.obs import trace as _obs
from repro.serve.protocol import ScenarioKey, bad_request, scenario_from_key

#: default number of scenarios kept alive.
DEFAULT_CAPACITY = 64


class ScenarioCache:
    """Bounded, thread-safe LRU of scenario-masked graphs."""

    def __init__(self, graph, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.graph = graph
        self.capacity = capacity
        self._entries: "OrderedDict[ScenarioKey, MaskedGraph]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: ScenarioKey) -> MaskedGraph:
        """The masked graph for ``key``, built on miss, LRU-refreshed on hit.

        A dead node the graph does not have, or a dead link that is not
        one of its edges, raises ``bad-request`` — a typo'd rack name
        must surface to the client, not silently mask nothing.  A
        failed build never occupies a cache slot.
        """
        with self._lock:
            masked = self._entries.get(key)
            if masked is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                _obs.counter("serve.scenario.cache_hit")
                return masked
        # Build outside the lock: construction touches the whole node
        # bitmap and may be slow on big graphs; concurrent misses on the
        # same key then race benignly (last insert wins, same content).
        try:
            masked = MaskedGraph(self.graph, scenario_from_key(key))
        except KeyError as exc:
            raise bad_request(exc.args[0]) from None
        with self._lock:
            self.misses += 1
            _obs.counter("serve.scenario.cache_miss")
            self._entries[key] = masked
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                _obs.counter("serve.scenario.cache_evict")
        return masked

    def stats(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
