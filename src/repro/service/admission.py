"""Admission control: validate, bound the queue, rate-limit per tenant.

Everything a request can get wrong is rejected *here*, before a job
record exists, with a structured :class:`~repro.errors.AdmissionError`
carrying the HTTP status, the offending field and (for transient
rejections) a retry-after hint -- the HTTP layer renders it without
string matching.  An inline netlist is fully parsed at admission, so a
malformed submission fails with the parser's located message
(``line N: ...``) as a 400 instead of burning a worker slot first.

Rate limiting is per tenant via classic token buckets: ``rate`` tokens
per second refill up to a ``burst`` cap, one token per submission.  The
bucket map is LRU-bounded so an open service cannot be grown without
bound by invented tenant names.

Memory-aware load shedding: with a ``memory_budget_mb`` configured, a
submission that arrives while the service's resident set already
exceeds the budget gets an honest 503 + ``Retry-After`` instead of an
admission that would only deepen the pressure.  The probe reads
``/proc/self/status`` (``VmRSS``) and degrades to "no shedding" on
platforms without procfs -- a missing probe must never reject traffic.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Callable

from ..circuits.suites import TABLE1_ROWS
from ..errors import AdmissionError, NetlistError
from ..faultplane.hooks import fault_point
from ..netlist.bench_format import loads_bench
from ..telemetry import REGISTRY

#: Valid Table I circuit names.
TABLE1_NAMES = tuple(row.name for row in TABLE1_ROWS)

#: Longest accepted inline netlist, in characters (~1 MiB of text; the
#: HTTP layer additionally bounds the raw body).
MAX_NETLIST_CHARS = 1 << 20

#: Most tenants tracked at once; least-recently-seen buckets are evicted
#: (an evicted tenant restarts with a full burst -- acceptable: the cap
#: exists to bound memory, not to be airtight accounting).
MAX_TENANTS = 1024

#: Request fields accepted by ``POST /jobs``.
_ALLOWED_FIELDS = ("circuit", "netlist", "name", "tenant", "scale", "seed",
                   "frames", "patterns", "epsilon", "algorithms",
                   "maximal_start", "restart")

_ALGORITHMS = ("minobs", "minobswin")

#: Retry-After hint handed out with a memory-pressure 503, in seconds.
#: Long enough for a worker to finish and release its footprint, short
#: enough that a dumb retry loop converges once pressure clears.
MEMORY_SHED_RETRY_AFTER = 5.0


def resident_memory_mb() -> float | None:
    """This process's resident set size in MiB, or ``None`` off-Linux.

    Reads ``VmRSS`` from ``/proc/self/status`` -- no psutil dependency,
    one small read per admission.  Returning ``None`` (no procfs, torn
    read) disables shedding rather than guessing.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return float(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


class TokenBucket:
    """One tenant's token bucket.

    ``clock`` is injectable (monotonic seconds) for the property tests;
    the bucket itself is lock-free -- callers serialize (the admission
    controller runs under the HTTP handler, one admit at a time per
    bucket via the controller's lock in :class:`AdmissionController`).
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst < 1:
            raise ValueError("rate must be > 0 and burst >= 1")
        self.rate = float(rate)
        self.burst = float(burst)
        self.clock = clock
        self.tokens = self.burst
        self.updated = clock()

    def _refill(self, now: float) -> None:
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = now

    def allow(self) -> tuple[bool, float]:
        """Try to take one token.

        Returns ``(True, 0.0)`` and consumes a token, or ``(False,
        retry_after)`` where ``retry_after`` is the seconds until a
        token will be available at the current refill rate.
        """
        now = self.clock()
        self._refill(now)
        # The tolerance keeps the retry-after contract honest: a client
        # that waits exactly the hinted time refills to ~1.0 minus float
        # rounding and must still be granted.
        if self.tokens >= 1.0 - 1e-9:
            self.tokens = max(0.0, self.tokens - 1.0)
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


def _reject(message: str, status: int = 400, field: str | None = None,
            retry_after: float | None = None) -> AdmissionError:
    REGISTRY.counter("service.jobs.rejected").inc()
    return AdmissionError(message, status=status, field=field,
                          retry_after=retry_after)


def _require_number(payload: dict[str, Any], field: str, kind: type,
                    minimum: float, maximum: float | None = None) -> Any:
    value = payload[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise _reject(f"{field!r} must be a number", field=field)
    if kind is int and not isinstance(value, int):
        raise _reject(f"{field!r} must be an integer", field=field)
    value = kind(value)
    if value < minimum or (maximum is not None and value > maximum):
        bound = f">= {minimum:g}" if maximum is None \
            else f"in [{minimum:g}, {maximum:g}]"
        raise _reject(f"{field!r} must be {bound}", field=field)
    return value


def validate_payload(payload: Any) -> dict[str, Any]:
    """Turn a raw request payload into a normalized job spec.

    The spec is the exact experiment surface a job executes with:
    ``{"circuit": name}`` *or* ``{"netlist": text, "name": str}``, plus
    only the knobs the client actually set (service defaults fill the
    rest at execution time, so a stored spec stays meaningful across
    config changes).
    """
    if not isinstance(payload, dict):
        raise _reject("request body must be a JSON object")
    for key in payload:
        if key not in _ALLOWED_FIELDS:
            raise _reject(f"unknown field {key!r} (accepted: "
                          f"{', '.join(_ALLOWED_FIELDS)})", field=str(key))
    has_circuit = "circuit" in payload
    has_netlist = "netlist" in payload
    if has_circuit == has_netlist:
        raise _reject("provide exactly one of 'circuit' or 'netlist'")

    spec: dict[str, Any] = {}
    if has_circuit:
        name = payload["circuit"]
        if not isinstance(name, str) or name not in TABLE1_NAMES:
            raise _reject(
                f"unknown circuit {name!r} (Table I rows: "
                f"{', '.join(TABLE1_NAMES)})", field="circuit")
        spec["circuit"] = name
    else:
        text = payload["netlist"]
        if not isinstance(text, str) or not text.strip():
            raise _reject("'netlist' must be non-empty .bench source",
                          field="netlist")
        if len(text) > MAX_NETLIST_CHARS:
            raise _reject(
                f"netlist too large ({len(text)} chars, max "
                f"{MAX_NETLIST_CHARS})", status=413, field="netlist")
        name = payload.get("name", "inline")
        if not isinstance(name, str) or not name:
            raise _reject("'name' must be a non-empty string", field="name")
        try:
            loads_bench(text, name)
        except NetlistError as exc:
            raise _reject(f"netlist rejected: {exc}", field="netlist") \
                from exc
        spec["netlist"] = text
        spec["name"] = name

    if "scale" in payload:
        spec["scale"] = _require_number(payload, "scale", float,
                                        1e-4, 10.0)
    if "seed" in payload:
        spec["seed"] = _require_number(payload, "seed", int, 0, 2**31)
    if "frames" in payload:
        spec["frames"] = _require_number(payload, "frames", int, 1, 64)
    if "patterns" in payload:
        spec["patterns"] = _require_number(payload, "patterns", int, 1,
                                           1 << 16)
    if "epsilon" in payload:
        spec["epsilon"] = _require_number(payload, "epsilon", float,
                                          0.0, 1.0)
    if "algorithms" in payload:
        algorithms = payload["algorithms"]
        if (not isinstance(algorithms, list) or not algorithms
                or any(a not in _ALGORITHMS for a in algorithms)):
            raise _reject(
                f"'algorithms' must be a non-empty subset of "
                f"{list(_ALGORITHMS)}", field="algorithms")
        spec["algorithms"] = list(algorithms)
    for flag in ("maximal_start", "restart"):
        if flag in payload:
            if not isinstance(payload[flag], bool):
                raise _reject(f"{flag!r} must be a boolean", field=flag)
            spec[flag] = payload[flag]
    return spec


def validate_tenant(payload: dict[str, Any]) -> str:
    tenant = payload.get("tenant", "default") \
        if isinstance(payload, dict) else "default"
    if not isinstance(tenant, str) or not tenant or len(tenant) > 64:
        raise _reject("'tenant' must be a string of 1..64 characters",
                      field="tenant")
    return tenant


class AdmissionController:
    """The service front door: everything between HTTP and the queue."""

    def __init__(self, *, queue_limit: int = 64, rate: float = 10.0,
                 burst: float = 20.0,
                 memory_budget_mb: float | None = None,
                 memory_probe: Callable[[], float | None]
                 = resident_memory_mb,
                 clock: Callable[[], float] = time.monotonic):
        self.queue_limit = int(queue_limit)
        self.rate = float(rate)
        self.burst = float(burst)
        self.memory_budget_mb = None if memory_budget_mb is None \
            else float(memory_budget_mb)
        self.memory_probe = memory_probe
        self.clock = clock
        self._buckets: OrderedDict[str, TokenBucket] = OrderedDict()

    def memory_pressure(self) -> tuple[bool, float | None]:
        """``(over_budget, resident_mb)`` under the configured budget.

        Always ``(False, resident)`` when no budget is set or the probe
        has nothing to say.
        """
        if self.memory_budget_mb is None:
            return False, None
        resident = self.memory_probe()
        if resident is None:
            return False, None
        REGISTRY.gauge("service.memory.resident_mb").set(resident)
        return resident > self.memory_budget_mb, resident

    def bucket(self, tenant: str) -> TokenBucket:
        bucket = self._buckets.get(tenant)
        if bucket is None:
            bucket = TokenBucket(self.rate, self.burst, self.clock)
            self._buckets[tenant] = bucket
        self._buckets.move_to_end(tenant)
        while len(self._buckets) > MAX_TENANTS:
            self._buckets.popitem(last=False)
        return bucket

    def admit(self, payload: Any, queue_depth: int) -> tuple[dict[str, Any],
                                                             str]:
        """Admit one submission or raise :class:`AdmissionError`.

        Check order: the tenant and payload shape first (a 400 beats a
        429 -- a malformed request is never "retryable later"), then
        memory pressure, then the queue bound, then the tenant's token
        bucket.  Memory shedding outranks the queue bound because an
        over-budget process must reject even when the queue has room --
        the budget protects the *host*, not the queue.  The
        ``service.accept`` fault site fires before any state is touched:
        an injected fault surfaces as a 5xx and the client simply never
        got its 202 -- nothing to lose.
        """
        fault_point("service.accept", depth=queue_depth)
        tenant = validate_tenant(payload)
        spec = validate_payload(payload)
        over_budget, resident = self.memory_pressure()
        if over_budget:
            REGISTRY.counter("service.jobs.shed_memory").inc()
            raise _reject(
                f"service is under memory pressure ({resident:.0f} MiB "
                f"resident, budget {self.memory_budget_mb:.0f} MiB)",
                status=503, retry_after=MEMORY_SHED_RETRY_AFTER)
        if queue_depth >= self.queue_limit:
            raise _reject(
                f"queue full ({queue_depth} jobs in flight, limit "
                f"{self.queue_limit})", status=429, retry_after=5.0)
        allowed, retry_after = self.bucket(tenant).allow()
        if not allowed:
            raise _reject(
                f"rate limit exceeded for tenant {tenant!r}", status=429,
                retry_after=max(0.1, round(retry_after, 3)))
        return spec, tenant
