"""Keyed LRU forecast-result cache for the serving front door.

At serving scale many users ask for the *same* scenario (the current
analysis window, a trending storm track), so the most effective
optimisation is to never re-run the engine at all.  The cache is keyed
by a content digest of the request window — identical fields hash to
the same key regardless of which client or thread submitted them — and
bounded in bytes by the LRU eviction core
(:class:`LruBytes`).

Hits hand out *copies* of the cached fields: forecast consumers
routinely write into their result windows (episode chaining overwrites
slot 0), and a shared cached array must never be mutated under other
requests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Optional, Tuple

import numpy as np

from ..workflow.engine import FieldWindow
from ..workflow.sensitivity import GradientRequest


def window_key(window: FieldWindow, extra: Tuple = ()) -> str:
    """Content digest of a request window (plus optional extra tokens).

    Shapes and dtypes are folded in before the raw bytes so e.g. a
    (4, 15, 14) float32 window cannot collide with a (4, 14, 15)
    float64 one of identical byte content.  ``extra`` distinguishes
    otherwise-identical windows served under different policies (say,
    an ensemble member count).
    """
    h = hashlib.sha256()
    for name in ("u3", "v3", "w3", "zeta"):
        arr = np.ascontiguousarray(getattr(window, name))
        h.update(name.encode())
        h.update(str(arr.shape).encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    for token in extra:
        h.update(repr(token).encode())
    return h.hexdigest()


def gradient_key(request: GradientRequest) -> str:
    """Content digest of a sensitivity request.

    Extends :func:`window_key` with everything that changes the
    gradient for byte-identical windows: the diagnostic, the ``wrt``
    targets, the observation window's digest (``surge_mse``) and the
    full storm-overlay parameter set — so a forecast and a gradient of
    the same window can never collide, and neither can two gradients
    under different diagnostics or storm hypotheses.
    """
    extra: list = ["grad", request.diagnostic, tuple(request.wrt)]
    if request.observation is not None:
        obs = np.ascontiguousarray(np.asarray(request.observation))
        extra.append(("obs", obs.shape, str(obs.dtype),
                      hashlib.sha256(obs.tobytes()).hexdigest()))
    if request.storm is not None:
        extra.append(
            ("storm",) + tuple(sorted(
                dataclasses.asdict(request.storm).items())))
    return window_key(request.window, extra=tuple(extra))


class LruBytes:
    """Byte-capacity LRU mapping.

    Recency refresh on hit, eviction of the least-recently-used entries
    until a new value fits, bypass of values larger than the whole
    cache.  Hit/miss accounting stays with the caller.

    Parameters
    ----------
    capacity_bytes: total byte budget.
    size_of: value → size in bytes.
    """

    def __init__(self, capacity_bytes: int, size_of: Callable[[Any], int]):
        if capacity_bytes <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = int(capacity_bytes)
        self._size_of = size_of
        self._items: "OrderedDict[Hashable, Any]" = OrderedDict()
        self._used = 0

    @property
    def used_bytes(self) -> int:
        return self._used

    def get(self, key: Hashable) -> Optional[Any]:
        """Return the cached value (refreshing recency) or ``None``."""
        if key not in self._items:
            return None
        self._items.move_to_end(key)
        return self._items[key]

    def put(self, key: Hashable, value: Any) -> int:
        """Insert ``value``; returns how many entries were evicted.

        A value larger than the whole cache is not stored (and evicts
        nothing) — one oversized read must not flush the cache.
        """
        nbytes = self._size_of(value)
        if nbytes > self.capacity:
            return 0
        old = self._items.pop(key, None)
        if old is not None:
            self._used -= self._size_of(old)
        evictions = 0
        while self._used + nbytes > self.capacity and self._items:
            _, evicted = self._items.popitem(last=False)
            self._used -= self._size_of(evicted)
            evictions += 1
        self._items[key] = value
        self._used += nbytes
        return evictions

    def clear(self) -> None:
        self._items.clear()
        self._used = 0


@dataclass
class ForecastCacheStats:
    """Hit/miss accounting of the result cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ForecastCache:
    """Thread-safe LRU of completed forecasts, keyed by window digest.

    Parameters
    ----------
    capacity_bytes: byte budget over the cached *field* arrays.
    """

    def __init__(self, capacity_bytes: int):
        self._lru = LruBytes(capacity_bytes,
                             size_of=lambda result: result.nbytes())
        self.stats = ForecastCacheStats()
        self._lock = threading.Lock()

    @property
    def resident_bytes(self) -> int:
        return self._lru.used_bytes

    def get(self, key: str):
        """Cached result for ``key`` (a private copy), or ``None``.

        Holds :class:`~repro.workflow.engine.ForecastResult` and
        :class:`~repro.workflow.sensitivity.SensitivityResult` payloads
        alike (keyed by :func:`window_key` / :func:`gradient_key`, so
        the two namespaces never collide).
        """
        with self._lock:
            cached = self._lru.get(key)
            if cached is None:
                self.stats.misses += 1
                return None
            self.stats.hits += 1
            return cached.copy()

    def put(self, key: str, result) -> None:
        """Store a completed result (a private copy of its arrays).

        ``engine_version`` rides along so a hit stays attributable to
        the weights that computed it (the server clears the cache on
        deploy, but entries read out mid-roll keep an honest label).
        """
        stored = result.copy()
        with self._lock:
            self.stats.evictions += self._lru.put(key, stored)

    def clear(self) -> None:
        with self._lock:
            self._lru.clear()
