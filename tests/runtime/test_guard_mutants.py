"""Seeded guard mutants: which post-retime check kills which corruption.

The guard (:func:`repro.runtime.guards.verify_retimed`) runs five
checks -- ``valid``, ``period``, ``registers``, ``cycle_weights`` and
``sequential`` -- on every retimed result.  Each case below takes a
real MinObs or MinObsWin result (the small corpus tier and three
Table I rows at scale 0.004), corrupts exactly one thing chosen by a
seeded RNG -- a label, a register, a fanin, an initial state -- and
records which checks reject it.  A co-simulation against the
unmutated rebuild, longer and wider than the guard's, decides whether
a netlist mutant is really wrong; a flipped label always is (it no
longer names the netlist that was rebuilt).

The resulting kill table is the one in the guard section of
``docs/algorithm.md``; :func:`test_kill_table_is_documented` keeps the
two equal.  A wrong mutant that no check kills is a finding about the
guard, not a reason to change a check.
"""

import zlib
from pathlib import Path

import numpy as np
import pytest

from repro.circuits.suites import table1_circuit
from repro.corpus import build_circuit, tier_specs
from repro.errors import NetlistError
from repro.graph.retiming_graph import RetimingGraph
from repro.netlist.validate import validate_circuit
from repro.pipeline import optimize_circuit, rebuild_retimed_states
from repro.retime.verify import CoSimulation
from repro.runtime.guards import FLUSH_CAP, verify_retimed

CHECKS = ("valid", "period", "registers", "cycle_weights", "sequential")
TABLE1_ROWS = ("s13207", "s15850.1", "b14_opt")
#: Mutants drawn per kind from every base result.
PER_KIND = 2
#: Attempts to draw a well-formed netlist mutant before giving up.
ATTEMPTS = 20
#: The oracle: cycles compared after the flush, and trace width.
ORACLE_CYCLES = 64
ORACLE_PATTERNS = 256

DOC = Path(__file__).resolve().parents[2] / "docs" / "algorithm.md"


# ----------------------------------------------------------------------
# Base results
# ----------------------------------------------------------------------

def base_circuits():
    for spec in tier_specs("small"):
        yield build_circuit(spec)
    for name in TABLE1_ROWS:
        yield table1_circuit(name, scale=0.004, seed=0)


def base_results():
    """``(tag, original, graph, r, phi, setup, retimed, exact)`` for
    every solver result that moves a register."""
    bases = []
    for circuit in base_circuits():
        result = optimize_circuit(circuit, n_frames=2, n_patterns=64)
        graph = RetimingGraph.from_circuit(circuit)
        for algorithm, outcome in result.outcomes.items():
            r = np.asarray(outcome.result.r, dtype=np.int64)
            if not r.any():
                continue
            retimed, exact = rebuild_retimed_states(circuit, graph, r)
            bases.append((f"{circuit.name}/{algorithm}", circuit, graph, r,
                          result.phi, circuit.library.setup_time, retimed,
                          exact))
    return bases


# ----------------------------------------------------------------------
# Netlist surgery
# ----------------------------------------------------------------------

def readers(circuit, net):
    """Every port reading ``net``: gate pins, register D pins, POs."""
    ports = [("gate", gate.name, pin)
             for gate in circuit.gates.values()
             for pin, source in enumerate(gate.inputs) if source == net]
    ports += [("dff", dff.name, 0)
              for dff in circuit.dffs.values() if dff.d == net]
    ports += [("po", index, 0)
              for index, po in enumerate(circuit.outputs) if po == net]
    return ports


def connect(circuit, port, net):
    kind, name, pin = port
    if kind == "gate":
        circuit.gates[name].inputs[pin] = net
    elif kind == "dff":
        circuit.dffs[name].d = net
    else:
        circuit.outputs[name] = net


def pick(rng, items):
    return items[int(rng.integers(0, len(items)))]


# ----------------------------------------------------------------------
# Mutant kinds: each returns (retimed, r) or None when not applicable
# ----------------------------------------------------------------------

def flip_label(rng, retimed, graph, r):
    flipped = r.copy()
    flipped[int(rng.integers(1, graph.n_vertices))] += pick(rng, (-1, 1))
    return retimed, flipped


def drop_register(rng, retimed, graph, r):
    mutant = retimed.copy()
    name = pick(rng, list(mutant.dffs))
    d = mutant.dffs[name].d
    for port in readers(mutant, name):
        connect(mutant, port, d)
    del mutant.dffs[name]
    return mutant, r


def duplicate_register(rng, retimed, graph, r):
    mutant = retimed.copy()
    name = pick(rng, list(mutant.dffs))
    twin = mutant.fresh_name(f"{name}_dup")
    for port in readers(mutant, name):
        connect(mutant, port, twin)
    mutant.add_dff(twin, name, init=mutant.dffs[name].init)
    return mutant, r


def swap_fanins(rng, retimed, graph, r):
    mutant = retimed.copy()
    first, second = (mutant.gates[name]
                     for name in rng.choice(list(mutant.gates), 2,
                                            replace=False))
    i = int(rng.integers(0, len(first.inputs)))
    j = int(rng.integers(0, len(second.inputs)))
    if first.inputs[i] == second.inputs[j]:
        return None
    first.inputs[i], second.inputs[j] = second.inputs[j], first.inputs[i]
    return mutant, r


def corrupt_initial_state(rng, retimed, graph, r):
    mutant = retimed.copy()
    dff = mutant.dffs[pick(rng, list(mutant.dffs))]
    dff.init = 1 - dff.init
    return mutant, r


def move_across_stem(rng, retimed, graph, r):
    """Peel one branch off a register that feeds a fanout stem: that
    branch now reads the register's D net, the others keep the
    register (a forward move applied to one branch only)."""
    mutant = retimed.copy()
    stems = [name for name in mutant.dffs
             if len(readers(mutant, name)) >= 2]
    if not stems:
        return None
    name = pick(rng, stems)
    connect(mutant, pick(rng, readers(mutant, name)), mutant.dffs[name].d)
    return mutant, r


KINDS = {
    "flip one label": flip_label,
    "drop a register": drop_register,
    "duplicate a register": duplicate_register,
    "swap two fanins": swap_fanins,
    "corrupt an initial state": corrupt_initial_state,
    "move a register across a fanout stem": move_across_stem,
}


def draw(kind, rng, retimed, graph, r):
    """A well-formed mutant of ``kind``, or None."""
    for _ in range(ATTEMPTS):
        mutant = KINDS[kind](rng, retimed, graph, r)
        if mutant is None:
            continue
        try:
            validate_circuit(mutant[0])
        except NetlistError:  # a combinational or register-only loop
            continue
        return mutant
    return None


def is_wrong(kind, retimed, mutant, exact, report):
    """The oracle: a label flip is wrong by construction; a netlist
    mutant is wrong when a co-simulation witnesses it behaving unlike
    the unmutated rebuild -- the guard's own mismatch (the rebuild
    passed that window), or a longer, wider run than the guard's (from
    reset with exact states, after the guard's largest flush
    otherwise)."""
    if kind == "flip one label" or not report.checks["sequential"]:
        return True
    start = 0 if exact else FLUSH_CAP
    cosim = CoSimulation(retimed, mutant, n_patterns=ORACLE_PATTERNS,
                         seed=1)
    return cosim.first_mismatch(start, start + ORACLE_CYCLES) >= 0


def kills(report):
    """The checks that rejected a mutant.  A label that fails ``valid``
    stops the guard there: the other checks never run."""
    if not report.checks["valid"]:
        return ("valid",)
    return tuple(check for check in CHECKS if not report.checks[check])


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def bases():
    return base_results()


@pytest.fixture(scope="module")
def outcomes(bases):
    """Per mutant: ``(kind, tag, wrong, kills)``."""
    rows = []
    for tag, original, graph, r, phi, setup, retimed, exact in bases:
        for kind in KINDS:
            for k in range(PER_KIND):
                seed = zlib.crc32(f"{tag}/{kind}/{k}".encode())
                mutant = draw(kind, np.random.default_rng(seed), retimed,
                              graph, r)
                if mutant is None:
                    continue
                circuit, label = mutant
                report = verify_retimed(original, circuit, graph, label,
                                        phi, setup, exact_states=exact)
                rows.append((kind, tag,
                             is_wrong(kind, retimed, circuit, exact,
                                      report),
                             kills(report)))
    return rows


def kill_table(outcomes):
    """Markdown rows: per kind, mutants, wrong ones, per-check kills
    with unique kills in parentheses, and wrong survivors."""
    lines = ["| Mutant | Drawn | Wrong | "
             + " | ".join(f"`{check}`" for check in CHECKS)
             + " | Wrong survivors |",
             "|---|---:|---:|" + "---:|" * len(CHECKS) + "---:|"]
    for kind in KINDS:
        rows = [row for row in outcomes if row[0] == kind]
        cells = []
        for check in CHECKS:
            total = sum(check in killed for *_, killed in rows)
            unique = sum(killed == (check,) for *_, killed in rows)
            cells.append(f"{total} ({unique})")
        survivors = sum(wrong and not killed
                        for _, _, wrong, killed in rows)
        lines.append(f"| {kind} | {len(rows)} | "
                     f"{sum(row[2] for row in rows)} | "
                     + " | ".join(cells) + f" | {survivors} |")
    return "\n".join(lines)


def test_unmutated_results_pass(bases):
    assert len(bases) >= 20
    for tag, original, graph, r, phi, setup, retimed, exact in bases:
        report = verify_retimed(original, retimed, graph, r, phi, setup,
                                exact_states=exact)
        assert report.ok, (tag, report.notes)


def test_every_kind_is_drawn(outcomes):
    drawn = {kind for kind, *_ in outcomes}
    assert drawn == set(KINDS)


def test_kills_are_wrong_netlists(outcomes):
    """A netlist mutant the oracle calls equivalent may only be killed
    by ``registers`` (a count change that cancels out in behaviour
    still breaks the netlist/graph bookkeeping)."""
    for kind, tag, wrong, killed in outcomes:
        if kind != "flip one label" and not wrong:
            assert set(killed) <= {"registers"}, (kind, tag, killed)


def test_kill_table_is_documented(outcomes):
    table = kill_table(outcomes)
    assert table in DOC.read_text(encoding="utf-8"), \
        "docs/algorithm.md's guard mutant table is stale:\n" + table
