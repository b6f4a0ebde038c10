"""The fault-injection hook layer: the only fault-plane code on hot paths.

Every instrumented module calls :func:`fault_point` (or one of the
``filter_*`` variants) at its named injection sites.  In production no
injector is installed, so each call is a single module-global ``None``
check -- the sites compile to a no-op and the instrumented pipeline is
bit-identical to an uninstrumented one (certified by the chaos test
suite).

This module is deliberately dependency-free (no imports from the rest of
:mod:`repro`), so any layer -- :mod:`repro.core`, :mod:`repro.sim`, the
netlist parsers, the runtime -- may import it without layering concerns.
The injector object itself lives in :mod:`repro.faultplane.plan`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator

#: The installed :class:`~repro.faultplane.plan.FaultInjector`, or ``None``
#: (the production default: every site is a no-op).
_INJECTOR: Any = None


def active() -> Any:
    """The currently installed injector, or ``None``."""
    return _INJECTOR


def install(injector: Any) -> Any:
    """Install ``injector`` globally; returns the previous one."""
    global _INJECTOR
    previous = _INJECTOR
    _INJECTOR = injector
    return previous


def uninstall() -> Any:
    """Remove any installed injector; returns it."""
    return install(None)


@contextmanager
def installed(injector: Any) -> Iterator[Any]:
    """Context manager: install ``injector``, restore the previous one."""
    previous = install(injector)
    try:
        yield injector
    finally:
        install(previous)


def fault_point(site: str, **context: Any) -> None:
    """Visit the named injection site.

    No-op unless an injector is installed; an armed fault raises the
    injected exception (or hard-kills the process for ``kill`` faults).
    ``context`` is free-form metadata recorded with the injection event.
    """
    if _INJECTOR is not None:
        _INJECTOR.visit(site, context)


def filter_bytes(site: str, data: bytes) -> bytes:
    """Pass ``data`` through the byte-corruption faults of ``site``.

    Identity unless an injector with an armed ``torn``/``garbage`` fault
    matching ``site`` is installed.
    """
    if _INJECTOR is None:
        return data
    return _INJECTOR.filter_bytes(site, data)


def filter_labels(site: str, labels: Any) -> Any:
    """Pass retiming labels through the ``corrupt-labels`` faults of
    ``site``.  Identity unless such a fault is installed and armed."""
    if _INJECTOR is None:
        return labels
    return _INJECTOR.filter_labels(site, labels)
