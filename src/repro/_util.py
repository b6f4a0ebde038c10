"""Small shared helpers used across the repro package."""

from __future__ import annotations

import functools
import gc
from collections.abc import Callable, Collection, Hashable, Iterable, \
    Sequence
from typing import Any, TypeVar, cast

from .errors import CombinationalCycleError

T = TypeVar("T", bound=Hashable)
F = TypeVar("F", bound=Callable[..., Any])


def nogc(func: F) -> F:
    """Decorator: run ``func`` with the cyclic garbage collector paused.

    The bulk builders allocate hundreds of thousands of acyclic objects
    (gates, edges, intervals); every allocation threshold crossed while
    they run would rescan all of them for cycles they cannot contain.
    The collector is re-enabled on exit only if it was enabled on entry,
    so nested decorated calls leave it to the outermost one.  The
    collector switch is process-wide: when two threads overlap, the one
    that paused it first restores it.
    """
    @functools.wraps(func)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        enabled = gc.isenabled()
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()

    return cast(F, wrapper)


def topological_order(
    nodes: Iterable[T],
    predecessors: Callable[[T], Iterable[T]],
) -> list[T]:
    """Return a topological order of the distinct ``nodes`` (Kahn's
    algorithm).

    ``predecessors(n)`` must yield the nodes that have to precede ``n``;
    predecessors outside ``nodes`` are ignored (they act as sources), and
    a predecessor yielded twice counts twice.  The order is
    deterministic: ready nodes leave in first-in-first-out order, seeded
    in input iteration order.

    Raises
    ------
    CombinationalCycleError
        If the restriction of the dependency relation to ``nodes`` is cyclic.
    """
    node_list = list(nodes)
    position = {n: i for i, n in enumerate(node_list)}
    indegree = [0] * len(node_list)
    successors: list[list[int]] = [[] for _ in node_list]
    lookup = position.get
    for i, n in enumerate(node_list):
        for p in predecessors(n):
            j = lookup(p)
            if j is not None:
                indegree[i] += 1
                successors[j].append(i)

    # The order list doubles as the FIFO queue: iterating it while
    # appending visits nodes in exactly the order they became ready.
    order = [i for i, d in enumerate(indegree) if d == 0]
    for i in order:
        for s in successors[i]:
            indegree[s] -= 1
            if indegree[s] == 0:
                order.append(s)

    if len(order) != len(node_list):
        remaining = [n for n, d in zip(node_list, indegree) if d > 0]
        cycle = _find_cycle(remaining, predecessors, position)
        raise CombinationalCycleError([str(n) for n in cycle])
    return [node_list[i] for i in order]


def _find_cycle(
    candidates: Sequence[T],
    predecessors: Callable[[T], Iterable[T]],
    node_set: Collection[T],
) -> list[T]:
    """Extract one concrete cycle from a set of nodes known to contain one."""
    candidate_set = set(candidates)
    # Walk backwards through predecessors until a node repeats.
    start = candidates[0]
    seen: dict[T, int] = {}
    path: list[T] = []
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        nxt = None
        for p in predecessors(node):
            if p in candidate_set and p in node_set:
                nxt = p
                break
        if nxt is None:  # pragma: no cover - defensive; should not happen
            return path
        node = nxt
    cycle = path[seen[node]:]
    cycle.reverse()
    return cycle


#: Characters that would break the supported netlist formats.
_FORBIDDEN_NAME_CHARS = frozenset(' \t\n\r()=,#"')


def check_name(name: str, kind: str) -> str:
    """Validate an identifier-ish netlist name and return it.

    Names must be non-empty, contain no whitespace and none of the
    characters that would break the supported netlist formats.
    """
    if not isinstance(name, str) or not name:
        raise ValueError(f"{kind} name must be a non-empty string, got {name!r}")
    if not _FORBIDDEN_NAME_CHARS.isdisjoint(name):
        raise ValueError(f"{kind} name {name!r} contains forbidden characters")
    return name


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    align: str | Sequence[str] = "r",
) -> str:
    """Render a plain-text table with aligned columns.

    ``align`` is a single character (``'l'`` or ``'r'``) applied to every
    column, or one character per column.
    """
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError("row length does not match header length")
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    if isinstance(align, str) and len(align) == 1:
        aligns = [align] * len(headers)
    else:
        aligns = list(align)
        if len(aligns) != len(headers):
            raise ValueError("align length does not match header length")

    def fmt(cells: Sequence[str]) -> str:
        parts = []
        for cell, width, a in zip(cells, widths, aligns):
            parts.append(cell.ljust(width) if a == "l" else cell.rjust(width))
        return "  ".join(parts).rstrip()

    lines = [fmt(list(headers)), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in str_rows)
    return "\n".join(lines)


def percent(new: float, old: float) -> float:
    """Relative change ``(new - old) / old`` in percent; 0 when old == 0."""
    if old == 0:
        return 0.0
    return 100.0 * (new - old) / old
