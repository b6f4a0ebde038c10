"""The two-tier content-addressed store behind :mod:`repro.cache`.

Disk-entry schema (``format: repro-analysis-cache``, version 1)::

    {
      "format": "repro-analysis-cache",
      "version": 1,
      "kind": "obs" | "init" | "solve" | "guard",
      "circuit": "<sha256 hex of the canonical circuit>",
      "params": { ...the result-determining parameters, verbatim... },
      "value": ...analysis-specific JSON...,
      "checksum": "sha256:<hex>"        // over the canonical JSON body
    }

Entries are :mod:`repro.records` envelopes serialized compactly (one
canonical-JSON line).  A torn write, a corrupted sector or a hand edit
fails the envelope check and turns into a checked miss: the entry is
deleted (*self-eviction*) and the analysis recomputes; a read that fails
before any bytes arrive keeps the entry.  Writes use the records module's
atomic write into the cache directory, so concurrent writers (parallel
suite workers sharing one ``--cache-dir``) can never observe a partial
entry -- the worst race is both computing the same value and one rename
winning, which is harmless because values are pure functions of the key.

Fault-injection sites (see :mod:`repro.faultplane.sites`):
``cache.load.enter`` (read about to begin), ``cache.store.bytes``
(serialized entry bytes -- torn/garbage corruption lands here) and
``cache.store.write`` (write about to begin).  The chaos suite proves
every injected cache corruption degrades to a recompute with a warning,
never a wrong result (``tests/chaos/test_cache_chaos.py``).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import warnings
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from .. import records
from ..faultplane.hooks import fault_point, filter_bytes
from ..telemetry import REGISTRY, spans as telemetry

CACHE_FORMAT = "repro-analysis-cache"
CACHE_VERSION = 1

#: Sentinel returned by :meth:`AnalysisCache.get` on a miss (``None`` is
#: a legitimate cached value).
MISS = object()


class CacheWarning(UserWarning):
    """A cache entry was unreadable or corrupt and was self-evicted."""


class _CorruptEntry(Exception):
    """A disk entry failed its envelope or key check (self-evicted)."""


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: Any) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def params_digest(params: dict[str, Any]) -> str:
    """sha256 hex digest of a canonical-JSON parameter dictionary."""
    return _digest(params)


def timing_digest(circuit) -> str:
    """Circuit digest covering function *and* timing characterization.

    :meth:`repro.netlist.circuit.Circuit.fingerprint` deliberately
    excludes the cell library; initialization, solver and guard results
    depend on gate delays and the register setup/hold times, so cache
    keys for those kinds use this digest instead: the functional
    fingerprint extended with the delay and raw SER rate of every
    (op, arity) pair the circuit instantiates and the register's
    setup, hold and rate.
    """
    cells = sorted({(g.op, len(g.inputs)) for g in circuit.gates.values()})
    body = {
        "fingerprint": circuit.fingerprint(),
        "cells": [(op, n, circuit.library.delay(op, n),
                   circuit.library.raw_ser(op, n)) for op, n in cells],
        "register": [circuit.library.setup_time, circuit.library.hold_time,
                     circuit.library.register_raw_ser],
    }
    return _digest(body)


def obs_digest(obs) -> str:
    """sha256 hex digest of an observability map (order-independent)."""
    return _digest(sorted((str(k), float(v)) for k, v in obs.items()))


@dataclass
class CacheStats:
    """Running counters of one :class:`AnalysisCache`."""

    hits: int = 0
    memory_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    errors: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    def to_dict(self) -> dict[str, int]:
        return {
            "hits": self.hits, "memory_hits": self.memory_hits,
            "misses": self.misses, "stores": self.stores,
            "evictions": self.evictions, "errors": self.errors,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
        }

    def delta(self, since: dict[str, int]) -> dict[str, int]:
        """Counter increments since a :meth:`to_dict` snapshot."""
        now = self.to_dict()
        return {key: now[key] - since.get(key, 0) for key in now}


class AnalysisCache:
    """Content-addressed analysis cache: in-memory LRU over a disk tier.

    Parameters
    ----------
    cache_dir:
        Directory of the shared on-disk tier; ``None`` keeps the cache
        memory-only (per process).  Created on first write.
    memory_entries:
        Entries kept by the in-memory LRU front.
    """

    def __init__(self, cache_dir: str | os.PathLike[str] | None = None,
                 memory_entries: int = 256):
        self.cache_dir = os.fspath(cache_dir) if cache_dir is not None \
            else None
        self.memory_entries = int(memory_entries)
        self.stats = CacheStats()
        self._memory: OrderedDict[str, Any] = OrderedDict()
        # The memory tier is shared by every thread of the process --
        # the service worker pool runs several jobs concurrently over
        # one warm cache -- and OrderedDict reorder-while-evict races
        # corrupt it.  One reentrant lock over the mutating paths keeps
        # the tier coherent; single-threaded callers pay one uncontended
        # acquire per (expensive) analysis, which is noise.
        self._mutex = threading.RLock()

    # ------------------------------------------------------------------
    # Keys and paths
    # ------------------------------------------------------------------

    @staticmethod
    def key(kind: str, circuit_digest: str, params: dict[str, Any]) -> str:
        """The content-addressed key digest of one analysis result."""
        return _digest({"kind": kind, "circuit": circuit_digest,
                        "params": params_digest(params)})

    def entry_path(self, kind: str, key: str) -> str | None:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, f"{kind}-{key}.json")

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def get(self, kind: str, circuit_digest: str,
            params: dict[str, Any]) -> Any:
        """The cached value, or :data:`MISS`.

        Memory hits are returned as stored; disk hits are checksum- and
        key-verified, promoted into the memory tier, and any corruption
        self-evicts the entry (warning + deletion + miss).
        """
        key = self.key(kind, circuit_digest, params)
        with self._mutex:
            if key in self._memory:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                self._note_load(kind, hit=True, tier="memory")
                return self._memory[key]
        path = self.entry_path(kind, key)
        if path is None:
            self.stats.misses += 1
            self._note_load(kind, hit=False, tier="memory")
            return MISS
        value = self._read_entry(path, kind, circuit_digest, key)
        if value is MISS:
            self.stats.misses += 1
            self._note_load(kind, hit=False, tier="disk")
            return MISS
        self.stats.hits += 1
        self._note_load(kind, hit=True, tier="disk")
        self._remember(key, value)
        return value

    @staticmethod
    def _note_load(kind: str, hit: bool, tier: str) -> None:
        REGISTRY.counter("cache.hits" if hit else "cache.misses",
                         help="Analysis-cache lookups by outcome").inc()
        telemetry.event("cache.load", kind=kind, hit=hit, tier=tier)

    def _read_entry(self, path: str, kind: str, circuit_digest: str,
                    key: str) -> Any:
        try:
            fault_point("cache.load.enter", path=path, kind=kind)
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            return MISS
        except Exception as exc:
            # Any read failure -- a real OSError or an injected
            # cache.load.enter fault -- degrades to a miss: the entry
            # (which may be perfectly fine) stays on disk.
            self._complain(f"cannot read cache entry {path!r}: {exc}",
                           evict=False)
            return MISS
        self.stats.bytes_read += len(data)
        REGISTRY.counter("cache.bytes_read",
                         help="Bytes read from the disk cache tier"
                         ).inc(len(data))
        try:
            payload = records.load_record(
                data, fmt=CACHE_FORMAT, versions=(CACHE_VERSION,),
                error=_CorruptEntry, what="cache entry",
                hint="evicting it", path=path)
            if payload.get("kind") != kind or \
                    payload.get("circuit") != circuit_digest or \
                    not isinstance(payload.get("params"), dict) or \
                    self.key(payload["kind"], payload["circuit"],
                             payload["params"]) != key:
                # A checksummed entry under the wrong name: hash-collision
                # paranoia / hand renames.  Treat as corrupt.
                raise _CorruptEntry(f"cache entry {path!r} does not match "
                                    f"its key; evicting it")
        except _CorruptEntry as exc:
            self._evict(path, str(exc))
            return MISS
        return payload.get("value")

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def put(self, kind: str, circuit_digest: str, params: dict[str, Any],
            value: Any) -> None:
        """Store one value in both tiers.

        Disk failures degrade to a warning (the computation that
        produced ``value`` already succeeded; losing the memoization
        must never fail the run).
        """
        key = self.key(kind, circuit_digest, params)
        self._remember(key, value)
        path = self.entry_path(kind, key)
        if path is None:
            return
        payload = {
            "format": CACHE_FORMAT,
            "version": CACHE_VERSION,
            "kind": kind,
            "circuit": circuit_digest,
            "params": params,
            "value": value,
        }
        data = (_canonical(records.seal(payload)) + "\n").encode("utf-8")
        data = filter_bytes("cache.store.bytes", data)
        try:
            fault_point("cache.store.write", path=path, kind=kind)
            os.makedirs(self.cache_dir, exist_ok=True)
            records.atomic_write(path, data)
        except OSError as exc:
            self._complain(f"cannot write cache entry {path!r}: {exc}; "
                           f"continuing uncached", evict=False)
            return
        self.stats.stores += 1
        self.stats.bytes_written += len(data)
        REGISTRY.counter("cache.stores",
                         help="Entries written to the disk cache tier"
                         ).inc()
        REGISTRY.counter("cache.bytes_written",
                         help="Bytes written to the disk cache tier"
                         ).inc(len(data))
        telemetry.event("cache.store", kind=kind, bytes=len(data))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _remember(self, key: str, value: Any) -> None:
        with self._mutex:
            self._memory[key] = value
            self._memory.move_to_end(key)
            while len(self._memory) > self.memory_entries:
                self._memory.popitem(last=False)

    def _complain(self, message: str, evict: bool) -> None:
        self.stats.errors += 1
        REGISTRY.counter("cache.errors",
                         help="Cache entries that failed to read or "
                              "write").inc()
        if evict:
            self.stats.evictions += 1
            REGISTRY.counter("cache.evictions",
                             help="Corrupt cache entries self-evicted"
                             ).inc()
        warnings.warn(message, CacheWarning, stacklevel=4)

    def _evict(self, path: str, message: str) -> None:
        self._complain(message, evict=True)
        try:
            os.unlink(path)
        except OSError:
            pass

    def clear_memory(self) -> None:
        """Drop the in-memory tier (the disk tier is untouched)."""
        with self._mutex:
            self._memory.clear()


# ----------------------------------------------------------------------
# The process-global active cache
# ----------------------------------------------------------------------

_ACTIVE: AnalysisCache | None = None


def active() -> AnalysisCache | None:
    """The globally active cache, or ``None`` (caching disabled)."""
    return _ACTIVE


def configure(cache_dir: str | os.PathLike[str] | None = None,
              memory_entries: int = 256) -> AnalysisCache:
    """Install a global :class:`AnalysisCache`; returns it."""
    global _ACTIVE
    _ACTIVE = AnalysisCache(cache_dir, memory_entries=memory_entries)
    return _ACTIVE


def deactivate() -> AnalysisCache | None:
    """Remove the global cache; returns the removed one."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = None
    return previous


@contextmanager
def activated(cache: AnalysisCache | None) -> Iterator[AnalysisCache | None]:
    """Context manager: install ``cache`` globally, restore on exit."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = cache
    try:
        yield cache
    finally:
        _ACTIVE = previous


def cached(kind: str, key: Callable[[], tuple[str, dict[str, Any]]],
           compute: Callable[[], Any],
           encode: Callable[[Any], Any] | None = None,
           decode: Callable[[Any], Any] | None = None,
           store: bool = True) -> Any:
    """Front door used by the instrumented analyses.

    ``key`` returns the ``(circuit_digest, params)`` pair of the result;
    it is called only when a cache is active, so an uncached analysis
    never pays for hashing its circuit.  With no active cache this is
    exactly ``compute()``.  Otherwise: look up ``(circuit_digest, kind,
    params)``; on a hit return ``decode(stored)``; on a miss run
    ``compute()``, store ``encode(value)`` (unless ``store`` is False --
    used to keep fault-tainted or nondeterministic values out of the
    cache) and return the freshly computed value.
    """
    cache = _ACTIVE
    if cache is None:
        return compute()
    circuit_digest, params = key()
    hit = cache.get(kind, circuit_digest, params)
    if hit is not MISS:
        return decode(hit) if decode is not None else hit
    value = compute()
    if store:
        cache.put(kind, circuit_digest, params,
                  encode(value) if encode is not None else value)
    return value
