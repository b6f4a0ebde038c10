"""BLIF (Berkeley Logic Interchange Format) subset reader and writer.

Supports the structural subset sufficient for sequential benchmarks:
``.model``, ``.inputs``, ``.outputs``, ``.latch`` (D flip-flops on the
implicit global clock), ``.names`` (single-output covers) and ``.end``.

Because the :class:`~repro.netlist.circuit.Circuit` model uses a fixed gate
library, ``.names`` covers are *functionally matched* against the library:
the cover is evaluated on all input combinations and recognized when it
equals one of the supported operators (AND/NAND/OR/NOR/XOR/XNOR/NOT/BUF or
a constant).  Covers that match no library function raise
:class:`~repro.errors.ParseError` — this keeps the reproduction honest
about what the substrate supports.
"""

from __future__ import annotations

import io
import itertools
import os

from .._util import nogc
from ..errors import ParseError
from ..faultplane.hooks import fault_point
from .cell_library import CellLibrary, evaluate_op
from .circuit import Circuit

_MATCH_OPS = ("BUF", "NOT", "AND", "NAND", "OR", "NOR", "XOR", "XNOR")


def _cover_truth(cover: list[str], n_inputs: int,
                 path: str | None, lineno: int) -> list[int]:
    """Evaluate a list of BLIF cover rows into a full truth table."""
    rows: list[tuple[str, int]] = []
    for row in cover:
        parts = row.split()
        if n_inputs == 0:
            if len(parts) != 1 or parts[0] not in ("0", "1"):
                raise ParseError(f"bad constant cover row {row!r}", path, lineno)
            rows.append(("", int(parts[0])))
            continue
        if len(parts) != 2 or parts[1] not in ("0", "1"):
            raise ParseError(f"bad cover row {row!r}", path, lineno)
        mask, value = parts
        if len(mask) != n_inputs or any(c not in "01-" for c in mask):
            raise ParseError(f"bad cover mask {mask!r}", path, lineno)
        rows.append((mask, int(value)))

    out_values = {v for _, v in rows}
    if len(out_values) > 1:
        raise ParseError("cover mixes on-set and off-set rows", path, lineno)
    cover_value = rows[0][1] if rows else 1

    table: list[int] = []
    for bits in itertools.product((0, 1), repeat=n_inputs):
        covered = any(
            all(m == "-" or int(m) == bit for m, bit in zip(mask, bits))
            for mask, _ in rows
        )
        table.append(cover_value if covered else 1 - cover_value)
    return table


def _match_op(table: list[int], n_inputs: int) -> str | None:
    """Return the library op whose truth table equals ``table``, if any."""
    if n_inputs == 0:
        return "CONST1" if table == [1] else "CONST0"
    if all(v == 0 for v in table):
        return None  # constant with phantom inputs; reject
    for op in _MATCH_OPS:
        if n_inputs == 1 and op not in ("BUF", "NOT"):
            continue
        if n_inputs > 1 and op in ("BUF", "NOT"):
            continue
        try:
            expected = [
                evaluate_op(op, list(bits))
                for bits in itertools.product((0, 1), repeat=n_inputs)
            ]
        except Exception:  # arity out of range for this op
            continue
        if expected == table:
            return op
    return None


@nogc
def loads_blif(text: str, library: CellLibrary | None = None,
               path: str | None = None) -> Circuit:
    """Parse BLIF source text into a :class:`Circuit`."""
    fault_point("parse.blif", path=path)
    circuit: Circuit | None = None
    pending_outputs: list[str] = []
    decl_lines: dict[str, int] = {}
    output_lines: dict[str, int] = {}

    # Join continuation lines ending in a backslash.
    logical_lines: list[tuple[int, str]] = []
    buffer = ""
    buffer_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not buffer:
            buffer_line = lineno
        if line.endswith("\\"):
            buffer += line[:-1] + " "
            continue
        buffer += line
        if buffer.strip():
            logical_lines.append((buffer_line, buffer.strip()))
        buffer = ""

    index = 0
    while index < len(logical_lines):
        lineno, line = logical_lines[index]
        index += 1
        if line.startswith(".model"):
            name = line.split(maxsplit=1)[1].strip() if " " in line else "blif"
            circuit = Circuit(name, library)
            continue
        if circuit is None:
            raise ParseError("statement before .model", path, lineno)
        if line.startswith(".inputs"):
            for net in line.split()[1:]:
                try:
                    circuit.add_input(net)
                except Exception as exc:  # e.g. duplicate net
                    raise ParseError(str(exc), path, lineno) from exc
                decl_lines[net] = lineno
        elif line.startswith(".outputs"):
            for net in line.split()[1:]:
                pending_outputs.append(net)
                output_lines.setdefault(net, lineno)
        elif line.startswith(".latch"):
            parts = line.split()[1:]
            if len(parts) < 2:
                raise ParseError(".latch needs input and output", path, lineno)
            d, q = parts[0], parts[1]
            init = 0
            if len(parts) > 2 and parts[-1] in ("0", "1", "2", "3"):
                init = int(parts[-1]) & 1  # treat don't-care/unknown as 0
            try:
                circuit.add_dff(q, d, init)
            except Exception as exc:
                raise ParseError(str(exc), path, lineno) from exc
            decl_lines[q] = lineno
        elif line.startswith(".names"):
            nets = line.split()[1:]
            if not nets:
                raise ParseError(".names needs at least an output", path, lineno)
            *in_nets, out_net = nets
            cover: list[str] = []
            while index < len(logical_lines) and \
                    not logical_lines[index][1].startswith("."):
                cover.append(logical_lines[index][1])
                index += 1
            table = _cover_truth(cover, len(in_nets), path, lineno)
            op = _match_op(table, len(in_nets))
            if op is None:
                raise ParseError(
                    f"cover for {out_net!r} matches no library gate",
                    path, lineno)
            try:
                if op in ("CONST0", "CONST1"):
                    circuit.add_gate(out_net, op, [])
                else:
                    circuit.add_gate(out_net, op, in_nets)
            except Exception as exc:  # e.g. duplicate net, bad arity
                raise ParseError(str(exc), path, lineno) from exc
            decl_lines[out_net] = lineno
        elif line.startswith(".end"):
            break
        elif line.startswith("."):
            raise ParseError(f"unsupported construct {line.split()[0]!r}",
                             path, lineno)
        else:
            raise ParseError(f"unexpected line {line!r}", path, lineno)

    if circuit is None:
        raise ParseError("no .model in BLIF input", path, None)
    for net in pending_outputs:
        try:
            circuit.add_output(net)
        except Exception as exc:
            raise ParseError(str(exc), path, output_lines.get(net)) from exc

    from .validate import validate_parsed

    validate_parsed(circuit, decl_lines, output_lines, path)
    return circuit


def load_blif(path: str | os.PathLike[str],
              library: CellLibrary | None = None) -> Circuit:
    """Read a BLIF file from ``path``."""
    path = os.fspath(path)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        # Binary garbage is a parse failure, not a programming error.
        raise ParseError(f"not valid UTF-8 text: {exc}", path) from exc
    return loads_blif(text, library=library, path=path)


def _op_cover(op: str, n_inputs: int) -> list[str]:
    """Emit cover rows implementing ``op`` over ``n_inputs`` inputs."""
    if op == "CONST1":
        return ["1"]
    if op == "CONST0":
        return []
    if op == "BUF":
        return ["1 1"]
    if op == "NOT":
        return ["0 1"]
    if op == "AND":
        return ["1" * n_inputs + " 1"]
    if op == "NAND":
        return ["1" * n_inputs + " 0"]
    if op == "OR":
        return ["-" * i + "1" + "-" * (n_inputs - i - 1) + " 1"
                for i in range(n_inputs)]
    if op == "NOR":
        return ["0" * n_inputs + " 1"]
    if op in ("XOR", "XNOR"):
        want = 1 if op == "XOR" else 0
        rows = []
        for bits in itertools.product((0, 1), repeat=n_inputs):
            if sum(bits) % 2 == want:
                rows.append("".join(str(b) for b in bits) + " 1")
        return rows
    raise ValueError(f"unknown op {op!r}")


def dumps_blif(circuit: Circuit) -> str:
    """Serialize ``circuit`` to BLIF source text."""
    out = io.StringIO()
    out.write(f".model {circuit.name}\n")
    if circuit.inputs:
        out.write(".inputs " + " ".join(circuit.inputs) + "\n")
    if circuit.outputs:
        out.write(".outputs " + " ".join(circuit.outputs) + "\n")
    for dff in circuit.dffs.values():
        out.write(f".latch {dff.d} {dff.name} re clk {dff.init}\n")
    for gate_name in circuit.topo_gates():
        gate = circuit.gates[gate_name]
        out.write(".names " + " ".join(gate.inputs + [gate.name]) + "\n")
        for row in _op_cover(gate.op, len(gate.inputs)):
            out.write(row + "\n")
    out.write(".end\n")
    return out.getvalue()


def dump_blif(circuit: Circuit, path: str | os.PathLike[str]) -> None:
    """Write ``circuit`` to ``path`` in BLIF format."""
    with open(os.fspath(path), "w", encoding="utf-8") as handle:
        handle.write(dumps_blif(circuit))
