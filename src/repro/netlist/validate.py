"""Structural sanity checks for circuits.

``validate_circuit`` performs the checks every downstream analysis assumes:
defined references, acyclic combinational logic, supported arities, and
(optionally) that the circuit is *synchronous-well-formed*: every feedback
loop passes through at least one register.
"""

from __future__ import annotations

from collections.abc import Callable

from ..errors import NetlistError
from .cell_library import check_arity
from .circuit import Circuit


def validate_circuit(circuit: Circuit, *, require_outputs: bool = True) -> None:
    """Raise :class:`~repro.errors.NetlistError` if ``circuit`` is malformed.

    Checks performed:

    * every gate input, flip-flop data input and primary output references a
      defined net;
    * every gate's operator/arity pair is in the cell library's range;
    * the combinational logic is acyclic (this also proves every sequential
      loop is broken by a register);
    * no register-only cycles (a flip-flop loop with no gate in between);
    * optionally, the circuit has at least one primary output or flip-flop
      (otherwise nothing is observable and SER is trivially zero).
    """
    for gate in circuit.gates.values():
        check_arity(gate.op, len(gate.inputs))
    _check_references(circuit, lambda message, line: NetlistError(message),
                      {}, {})
    _check_cycles(circuit)
    if require_outputs and not circuit.outputs and not circuit.dffs:
        raise NetlistError(
            f"circuit {circuit.name!r} has no outputs and no registers; "
            "nothing is observable")


def validate_parsed(circuit: Circuit, decl_lines: dict[str, int],
                    output_lines: dict[str, int],
                    path: str | None) -> None:
    """Post-parse validation that attributes failures to source lines.

    Netlist formats allow forward references, so dangling nets and
    combinational cycles can only be diagnosed once the whole file is
    read.  ``decl_lines`` maps each declared gate / flip-flop / input
    back to the line that introduced it and ``output_lines`` maps each
    declared primary output to its declaration line, so every failure
    raises a located :class:`~repro.errors.ParseError` instead of a bare
    :class:`~repro.errors.NetlistError`.  Arity is not re-checked: every
    parsed :class:`~repro.netlist.circuit.Gate` checked it on
    construction.
    """
    from ..errors import (CombinationalCycleError, ParseError,
                          RegisterCycleError)

    _check_references(
        circuit, lambda message, line: ParseError(message, path, line),
        decl_lines, output_lines)
    try:
        _check_cycles(circuit)
    except CombinationalCycleError as exc:
        lineno = min((decl_lines[g] for g in exc.cycle
                      if g in decl_lines), default=None)
        raise ParseError(str(exc), path, lineno) from exc
    except RegisterCycleError as exc:
        raise ParseError(str(exc), path,
                         decl_lines.get(exc.register)) from exc


def _check_references(circuit: Circuit,
                      error: Callable[[str, int | None], Exception],
                      decl_lines: dict[str, int],
                      output_lines: dict[str, int]) -> None:
    """Raise ``error(message, line)`` at the first undefined reference."""
    gates, dffs = circuit.gates, circuit.dffs
    inputs = set(circuit.inputs)

    def is_net(net: str) -> bool:  # Circuit.is_net, one set per call
        return net in gates or net in dffs or net in inputs

    for gate in gates.values():
        for net in gate.inputs:
            if not is_net(net):
                raise error(f"gate {gate.name!r} reads undefined net {net!r}",
                            decl_lines.get(gate.name))
    for dff in dffs.values():
        if not is_net(dff.d):
            raise error(f"dff {dff.name!r} reads undefined net {dff.d!r}",
                        decl_lines.get(dff.name))
    for net in circuit.outputs:
        if not is_net(net):
            raise error(f"primary output references undefined net {net!r}",
                        output_lines.get(net))


def _check_cycles(circuit: Circuit) -> None:
    """Raise on gate-only or register-only feedback."""
    # Raises CombinationalCycleError when gate-only feedback exists.
    circuit.topo_gates()

    # Register-only cycles are not broken by topo_gates (registers are not
    # part of the combinational order), so check them explicitly.
    circuit.register_sources()
