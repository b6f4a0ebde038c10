"""ISCAS89 ``.bench`` netlist reader and writer.

The ``.bench`` format is the native format of the ISCAS89 benchmark suite
the paper evaluates on::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G10 = DFF(G14)
    G14 = NAND(G0, G10)
    G17 = NOT(G14)

Supported operators: the gate set of :mod:`repro.netlist.cell_library`
(``AND``/``NAND``/``OR``/``NOR``/``XOR``/``XNOR``/``NOT``/``BUF``/
``CONST0``/``CONST1``) plus ``DFF``.  Names are case-sensitive; operator
keywords are case-insensitive.
"""

from __future__ import annotations

import io
import os

from .._util import nogc
from ..errors import ParseError
from ..faultplane.hooks import fault_point
from .cell_library import SUPPORTED_OPS, CellLibrary
from .circuit import Circuit

_OPS = set(SUPPORTED_OPS)


@nogc
def loads_bench(text: str, name: str = "bench",
                library: CellLibrary | None = None,
                path: str | None = None) -> Circuit:
    """Parse ``.bench`` source text into a :class:`Circuit`.

    Declarations may appear in any order (the format allows forward
    references); validation of references happens after the full file is
    read.
    """
    fault_point("parse.bench", name=name, path=path)
    circuit = Circuit(name, library)
    pending_outputs: list[tuple[str, int]] = []
    decl_lines: dict[str, int] = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0].strip()
        if not line:
            continue
        upper = line[:7].upper()
        if upper.startswith("INPUT(") or upper.startswith("OUTPUT("):
            keyword, rest = line.split("(", 1)
            if not rest.rstrip().endswith(")"):
                raise ParseError("missing ')'", path, lineno)
            net = rest.rstrip()[:-1].strip()
            if not net:
                raise ParseError(f"empty {keyword.upper()} declaration",
                                 path, lineno)
            if keyword.upper() == "INPUT":
                try:
                    circuit.add_input(net)
                except Exception as exc:  # e.g. duplicate net
                    raise ParseError(str(exc), path, lineno) from exc
                decl_lines[net] = lineno
            else:
                pending_outputs.append((net, lineno))
            continue

        lhs, eq, rhs = line.partition("=")
        if not eq:
            raise ParseError(f"cannot parse line {line!r}", path, lineno)
        lhs = lhs.strip()
        rhs = rhs.strip()
        op, paren, args_text = rhs.partition("(")
        if not paren or not rhs.endswith(")"):
            raise ParseError(f"cannot parse expression {rhs!r}", path, lineno)
        op = op.strip().upper()
        args_text = args_text[:-1].strip()
        args = [a.strip() for a in args_text.split(",")] if args_text else []
        if not all(args):
            raise ParseError(f"empty argument in {rhs!r}", path, lineno)

        try:
            if op == "DFF":
                if len(args) != 1:
                    raise ParseError("DFF takes exactly one input", path, lineno)
                circuit.add_dff(lhs, args[0])
            elif op in _OPS:
                circuit.add_gate(lhs, op, args)
            else:
                raise ParseError(f"unknown operator {op!r}", path, lineno)
        except ParseError:
            raise
        except Exception as exc:  # library / netlist errors -> parse errors
            raise ParseError(str(exc), path, lineno) from exc
        decl_lines[lhs] = lineno

    for net, lineno in pending_outputs:
        try:
            circuit.add_output(net)
        except Exception as exc:
            raise ParseError(str(exc), path, lineno) from exc

    from .validate import validate_parsed

    validate_parsed(circuit, decl_lines, dict(pending_outputs), path)
    return circuit


def load_bench(path: str | os.PathLike[str],
               library: CellLibrary | None = None) -> Circuit:
    """Read a ``.bench`` file from ``path``."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        # Binary garbage is a parse failure, not a programming error.
        raise ParseError(f"not valid UTF-8 text: {exc}", path) from exc
    base = os.path.splitext(os.path.basename(path))[0]
    return loads_bench(text, name=base, library=library, path=path)


@nogc
def dumps_bench(circuit: Circuit) -> str:
    """Serialize ``circuit`` to ``.bench`` source text.

    Gates are emitted in topological order so the file is also readable by
    strictly single-pass parsers.
    """
    out = io.StringIO()
    out.write(f"# {circuit.name}\n")
    stats = circuit.stats()
    out.write(f"# {stats['inputs']} inputs, {stats['outputs']} outputs, "
              f"{stats['dffs']} D-type flip-flops, {stats['gates']} gates\n")
    for net in circuit.inputs:
        out.write(f"INPUT({net})\n")
    for net in circuit.outputs:
        out.write(f"OUTPUT({net})\n")
    for dff in circuit.dffs.values():
        out.write(f"{dff.name} = DFF({dff.d})\n")
    for gate_name in circuit.topo_gates():
        gate = circuit.gates[gate_name]
        out.write(f"{gate.name} = {gate.op}({', '.join(gate.inputs)})\n")
    return out.getvalue()


def dump_bench(circuit: Circuit, path: str | os.PathLike[str]) -> None:
    """Write ``circuit`` to ``path`` in ``.bench`` format."""
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        handle.write(dumps_bench(circuit))
