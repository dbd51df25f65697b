"""Keyed LRU forecast-result cache for the serving front door.

At serving scale many users ask for the *same* scenario (the current
analysis window, a trending storm track), so the most effective
optimisation is to never re-run the engine at all.  The cache is keyed
by a content digest of the request window — identical fields hash to
the same key regardless of which client or thread submitted them — and
bounded in bytes with the same LRU eviction core
(:class:`~repro.data.cache.LruBytes`) that backs the data layer's OS
page-cache simulation.

Hits hand out *copies* of the cached fields: forecast consumers
routinely write into their result windows (episode chaining overwrites
slot 0), and a shared cached array must never be mutated under other
requests.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..data.cache import LruBytes
from ..workflow.engine import FieldWindow
from ..workflow.sensitivity import GradientRequest

__all__ = ["window_key", "gradient_key", "ForecastCacheStats",
           "ForecastCache"]


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

    def __len__(self) -> int:
        return len(self._lru)

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
