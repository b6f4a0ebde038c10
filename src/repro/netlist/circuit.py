"""The sequential-circuit data model.

A :class:`Circuit` is a synchronous netlist in the ISCAS89 style:

* every *net* (signal) has a unique name;
* a net is driven by exactly one of: a primary input, a combinational gate,
  or a D flip-flop; gates and flip-flops are named after the net they drive;
* primary outputs name existing nets;
* all flip-flops share one implicit clock (single-clock, edge-triggered).

The model is deliberately structural: functional semantics live in the
simulators (:mod:`repro.sim`), timing in :mod:`repro.graph.timing`, and the
retiming view in :mod:`repro.graph.retiming_graph`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .._util import check_name, topological_order
from ..errors import NetlistError
from .cell_library import GENERIC_LIBRARY, CellLibrary, check_arity


@dataclass
class Gate:
    """A combinational gate driving the net named ``name``.

    Attributes
    ----------
    name:
        Name of the gate and of the net it drives.
    op:
        Logic operator (see :data:`repro.netlist.cell_library.SUPPORTED_OPS`).
    inputs:
        Names of the input nets, in port order.
    """

    name: str
    op: str
    inputs: list[str]

    def __post_init__(self) -> None:
        check_name(self.name, "gate")
        self.op = self.op.upper()
        self.inputs = list(self.inputs)
        check_arity(self.op, len(self.inputs))


@dataclass
class DFF:
    """A D flip-flop driving the net named ``name``.

    Attributes
    ----------
    name:
        Name of the flip-flop and of its output (Q) net.
    d:
        Name of the data-input net.
    init:
        Initial state (0 or 1) at power-up.
    """

    name: str
    d: str
    init: int = 0

    def __post_init__(self) -> None:
        check_name(self.name, "dff")
        if self.init not in (0, 1):
            raise NetlistError(f"dff {self.name}: init must be 0 or 1")


class Circuit:
    """A synchronous sequential circuit.

    Parameters
    ----------
    name:
        Circuit name (used in reports and file headers).
    library:
        Cell library supplying per-gate delay and raw SER.  Defaults to the
        shared generic library.
    """

    def __init__(self, name: str = "circuit",
                 library: CellLibrary | None = None):
        self.name = name
        self.library = library if library is not None else GENERIC_LIBRARY
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.gates: dict[str, Gate] = {}
        self.dffs: dict[str, DFF] = {}
        self._input_set: set[str] = set()
        self._topo_cache: list[str] | None = None
        self._fanout_cache: dict[str, list[str]] | None = None
        # Lowered flat-core arena (repro.flatcore), memoized per structure.
        self._flat_cache: object | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _check_fresh(self, name: str) -> None:
        if self.is_net(name):
            raise NetlistError(f"net {name!r} already defined")

    def add_input(self, name: str) -> str:
        """Declare a primary input net and return its name."""
        check_name(name, "input")
        self._check_fresh(name)
        self.inputs.append(name)
        self._input_set.add(name)
        self._invalidate()
        return name

    def add_output(self, net: str) -> str:
        """Declare an existing (or later-defined) net as a primary output."""
        check_name(net, "output")
        self.outputs.append(net)
        self._invalidate()
        return net

    def add_gate(self, name: str, op: str, inputs: Sequence[str]) -> str:
        """Add a combinational gate; returns the driven net name."""
        gate = Gate(name, op, list(inputs))
        self._check_fresh(name)
        self.gates[name] = gate
        self._invalidate()
        return name

    def add_dff(self, name: str, d: str, init: int = 0) -> str:
        """Add a D flip-flop; returns the driven (Q) net name."""
        dff = DFF(name, d, init)
        self._check_fresh(name)
        self.dffs[name] = dff
        self._invalidate()
        return name

    def _invalidate(self) -> None:
        self._topo_cache = None
        self._fanout_cache = None
        self._flat_cache = None

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    @property
    def nets(self) -> list[str]:
        """All net names: inputs, then gate outputs, then flip-flop outputs."""
        return list(self.inputs) + list(self.gates) + list(self.dffs)

    def _is_input(self, name: str) -> bool:
        """Set-backed input membership (``inputs`` can be 10^5 names)."""
        if len(self._input_set) != len(self.inputs):
            self._input_set = set(self.inputs)
        return name in self._input_set

    def is_net(self, name: str) -> bool:
        """True if ``name`` is a defined net."""
        return name in self.gates or name in self.dffs \
            or self._is_input(name)

    def driver_kind(self, net: str) -> str:
        """Return ``'input'``, ``'gate'`` or ``'dff'`` for a defined net."""
        if net in self.gates:
            return "gate"
        if net in self.dffs:
            return "dff"
        if self._is_input(net):
            return "input"
        raise NetlistError(f"undefined net {net!r}")

    def fanins(self, net: str) -> list[str]:
        """Input nets of the element driving ``net`` (empty for PIs)."""
        kind = self.driver_kind(net)
        if kind == "gate":
            return list(self.gates[net].inputs)
        if kind == "dff":
            return [self.dffs[net].d]
        return []

    def fanouts(self, net: str) -> list[str]:
        """Names of elements (gates/dffs) reading ``net``.

        Primary outputs are not included; check :attr:`outputs` separately.
        A reader appears once per connection (a gate with both inputs tied
        to ``net`` appears twice).
        """
        if self._fanout_cache is None:
            cache: dict[str, list[str]] = {n: [] for n in self.nets}
            for gate in self.gates.values():
                for src in gate.inputs:
                    cache.setdefault(src, []).append(gate.name)
            for dff in self.dffs.values():
                cache.setdefault(dff.d, []).append(dff.name)
            self._fanout_cache = cache
        return list(self._fanout_cache.get(net, []))

    def topo_gates(self) -> list[str]:
        """Gate names in combinational topological order.

        Primary inputs and flip-flop outputs act as sources.  Raises
        :class:`~repro.errors.CombinationalCycleError` on register-free
        feedback loops.
        """
        if self._topo_cache is None:
            gate_names = list(self.gates)

            def preds(g: str) -> list[str]:
                return [i for i in self.gates[g].inputs if i in self.gates]

            self._topo_cache = topological_order(gate_names, preds)
        return list(self._topo_cache)

    def gate_delay(self, name: str) -> float:
        """Delay of gate ``name`` from the circuit's cell library."""
        gate = self.gates[name]
        return self.library.delay(gate.op, len(gate.inputs))

    def gate_raw_ser(self, name: str) -> float:
        """Raw soft-error rate of gate ``name`` from the cell library."""
        gate = self.gates[name]
        return self.library.raw_ser(gate.op, len(gate.inputs))

    # ------------------------------------------------------------------
    # Register-chain tracing (used by the retiming-graph construction)
    # ------------------------------------------------------------------

    def comb_source(self, net: str) -> tuple[str, int]:
        """Trace ``net`` backwards through flip-flops to its combinational source.

        Returns ``(source_net, n_registers)`` where ``source_net`` is driven
        by a gate or primary input and ``n_registers`` is the number of
        flip-flops traversed.  A pure register self-loop (a flip-flop chain
        forming a cycle with no gate) raises :class:`NetlistError`.
        """
        count = 0
        seen: set[str] = set()
        while net in self.dffs:
            if net in seen:
                raise NetlistError(
                    f"register-only cycle through {net!r}; insert a BUF gate"
                )
            seen.add(net)
            net = self.dffs[net].d
            count += 1
        return net, count

    # ------------------------------------------------------------------
    # Statistics and copying
    # ------------------------------------------------------------------

    @property
    def n_gates(self) -> int:
        """Number of combinational gates."""
        return len(self.gates)

    @property
    def n_dffs(self) -> int:
        """Number of flip-flops."""
        return len(self.dffs)

    def stats(self) -> dict[str, int]:
        """Structural statistics used in Table I headers."""
        n_edges = sum(len(g.inputs) for g in self.gates.values())
        return {
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
            "gates": self.n_gates,
            "dffs": self.n_dffs,
            "connections": n_edges,
        }

    def fingerprint(self) -> str:
        """A sha256 hex digest of the circuit's functional structure.

        Covers everything the logic simulators depend on -- input order,
        primary outputs, every gate (name, op, fanin order) and every
        flip-flop (name, data net, initial state) in declaration order --
        and nothing they do not (circuit name, cell-library timing).
        Two circuits with equal fingerprints produce identical
        simulation traces, which is what the observability memo cache
        (:mod:`repro.runtime.suite`) keys on.
        """
        import hashlib
        import json

        body = {
            "inputs": self.inputs,
            "outputs": self.outputs,
            "gates": [(g.name, g.op, g.inputs)
                      for g in self.gates.values()],
            "dffs": [(f.name, f.d, f.init) for f in self.dffs.values()],
        }
        canonical = json.dumps(body, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def copy(self, name: str | None = None) -> "Circuit":
        """Deep-copy the circuit (shares the immutable cell library)."""
        other = Circuit(name or self.name, self.library)
        other.inputs = list(self.inputs)
        other.outputs = list(self.outputs)
        other.gates = {n: Gate(g.name, g.op, list(g.inputs))
                       for n, g in self.gates.items()}
        other.dffs = {n: DFF(f.name, f.d, f.init) for n, f in self.dffs.items()}
        return other

    def fresh_name(self, base: str) -> str:
        """Return a net name derived from ``base`` that is not yet defined."""
        if not self.is_net(base):
            return base
        i = 0
        while self.is_net(f"{base}_{i}"):
            i += 1
        return f"{base}_{i}"

    def __repr__(self) -> str:
        return (f"Circuit({self.name!r}, inputs={len(self.inputs)}, "
                f"outputs={len(self.outputs)}, gates={self.n_gates}, "
                f"dffs={self.n_dffs})")

    # ------------------------------------------------------------------
    # Convenience iteration
    # ------------------------------------------------------------------

    def observation_points(self) -> list[tuple[str, str]]:
        """Points where a propagating error becomes observable.

        Returns ``(kind, net)`` pairs where kind is ``'po'`` for primary
        outputs and ``'dff'`` for flip-flop data inputs; ``net`` is the
        observed net.
        """
        points: list[tuple[str, str]] = [("po", net) for net in self.outputs]
        points.extend(("dff", dff.d) for dff in self.dffs.values())
        return points

    def iter_elements(self) -> Iterable[tuple[str, object]]:
        """Yield ``(kind, element)`` for every gate and flip-flop."""
        for gate in self.gates.values():
            yield "gate", gate
        for dff in self.dffs.values():
            yield "dff", dff
