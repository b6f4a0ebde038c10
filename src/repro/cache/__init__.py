"""Content-addressed analysis cache with an in-memory LRU front.

The expensive analyses of the Table I flow -- n-time-frame signature
observability (kind ``obs``), the Sec. V initialization (``init``), the
solvers themselves (``solve``) and the post-retime guard (``guard``) --
are pure functions of (circuit, parameters).  Most of those inputs
repeat verbatim across retiming candidates, suite resumes, parallel
workers and chaos re-runs, so this package memoizes them under a
*content-addressed* key::

    (canonical circuit digest, analysis kind, params digest)

Content addressing sidesteps invalidation entirely: an edited circuit or
a changed parameter produces a *different* key, never a stale hit.  The
store has two tiers:

* an in-memory LRU (per process), and
* an optional on-disk tier (shared across processes and suite workers)
  using the manifest durability idioms: atomic temp-file + rename
  writes, a sha256 checksum over every entry, and self-eviction --
  a torn or corrupted entry is deleted and treated as a miss (with a
  warning), never returned.

Values cross the disk boundary as canonical JSON, which round-trips
Python floats and arbitrary-precision ints exactly -- warm results are
bit-identical to cold ones (proved by the differential test layer in
``tests/cache`` and ``tests/core/test_differential_obs.py``).

The cache is *opt-in*: no global cache is active until
:func:`configure` (or the CLI ``--cache`` / ``--cache-dir`` flags)
installs one, and an uncached call costs one module-global ``None``
check.  Exact-ELW and eq. (4) SER analyses are not cached: they cost
less to recompute than a key, an encode and a disk write.  See
``docs/algorithm.md`` (analysis cache section) for the key scheme and
the per-kind measurements.
"""

from .store import (MISS, AnalysisCache, CacheStats, activated, active,
                    cached, configure, deactivate, obs_digest, params_digest,
                    timing_digest)

__all__ = [
    "MISS",
    "AnalysisCache",
    "CacheStats",
    "activated",
    "active",
    "cached",
    "configure",
    "deactivate",
    "obs_digest",
    "params_digest",
    "timing_digest",
]
