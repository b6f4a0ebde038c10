"""Generator families and the sized corpus tiers.

A *family* is a named, seeded circuit generator; a :class:`CircuitSpec`
pins one concrete corpus member: ``(family, params, seed, format,
library)``.  The spec is the unit of reproducibility -- building the
same spec twice, in any process on any platform, must produce a
byte-identical emission (the manifest layer hashes exactly that).

Families (the dgen-rs-style registry):

``pipeline``
    Feed-forward pipelined datapaths (register banks between stages).
``fsm_datapath``
    An FSM controller gating a pipelined datapath -- mixed control/data
    topology.
``tree``
    Registered reduction trees with root-to-leaf feedback
    (tree-structured interconnect).
``mesh``
    Systolic 2-D meshes with registered torus wrap (nearest-neighbour
    interconnect).
``random``
    The locality-windowed random sequential circuits of
    :func:`repro.circuits.generators.random_sequential_circuit`.
``cslow``
    C-slowed cores: any other family as a base, every register replaced
    by ``c`` -- the register-rich end of the masking trade-off.

Tier policy: ``small`` is committed to the repository and exercised by
tier-1 tests and the CI ``corpus`` job; ``medium`` is the nightly /
``REPRO_CHAOS`` matrix tier; ``large`` scales generation and emission
to ~10^5 gates and is used for scaling benchmarks only (no matrix
cells -- solving 10^5-gate circuits is ROADMAP item 1's territory).

Everything here is importable and the builders are module-level, so
``functools.partial(corpus_circuit, tier)`` is picklable and usable as
the parallel executor's ``circuit_factory``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..circuits.generators import (
    fsm_datapath_circuit,
    mesh_circuit,
    pipeline_circuit,
    random_sequential_circuit,
    tree_circuit,
)
from .._util import nogc
from ..errors import NetlistError
from ..netlist.cell_library import (
    CellLibrary,
    generic_library,
    skewed_library,
    unit_delay_library,
)
from ..netlist.circuit import Circuit
from ..retime.cslow import c_slow


def resolve_library(spec: str) -> CellLibrary:
    """Build the cell library a spec string names.

    ``"generic"`` and ``"unit"`` name the shared surrogate libraries;
    ``"skewed:<seed>:<skew>"`` names a seeded process-skewed variant
    (see :func:`repro.netlist.cell_library.skewed_library`).  Fresh
    instances are returned so corpus builds can never mutate the shared
    defaults.
    """
    if spec == "generic":
        return generic_library()
    if spec == "unit":
        return unit_delay_library()
    if spec.startswith("skewed:"):
        parts = spec.split(":")
        if len(parts) != 3:
            raise NetlistError(
                f"malformed library spec {spec!r} "
                f"(expected 'skewed:<seed>:<skew>')")
        try:
            return skewed_library(seed=int(parts[1]), skew=float(parts[2]),
                                  name=spec)
        except ValueError as exc:
            raise NetlistError(
                f"malformed library spec {spec!r}: {exc}") from exc
    raise NetlistError(
        f"unknown library spec {spec!r} "
        f"(known: generic, unit, skewed:<seed>:<skew>)")


def _build_pipeline(name: str, params: dict[str, Any],
                    rng: np.random.Generator,
                    library: CellLibrary) -> Circuit:
    return pipeline_circuit(name, stages=params["stages"],
                            width=params["width"], rng=rng, library=library)


def _build_fsm_datapath(name: str, params: dict[str, Any],
                        rng: np.random.Generator,
                        library: CellLibrary) -> Circuit:
    return fsm_datapath_circuit(name, state_bits=params["state_bits"],
                                stages=params["stages"],
                                width=params["width"], rng=rng,
                                library=library)


def _build_tree(name: str, params: dict[str, Any],
                rng: np.random.Generator, library: CellLibrary) -> Circuit:
    return tree_circuit(name, leaves=params["leaves"],
                        reg_every=params["reg_every"], rng=rng,
                        library=library)


def _build_mesh(name: str, params: dict[str, Any],
                rng: np.random.Generator, library: CellLibrary) -> Circuit:
    return mesh_circuit(name, rows=params["rows"], cols=params["cols"],
                        rng=rng, library=library)


def _build_random(name: str, params: dict[str, Any],
                  rng: np.random.Generator, library: CellLibrary) -> Circuit:
    return random_sequential_circuit(
        name, n_gates=params["n_gates"], n_dffs=params["n_dffs"],
        n_inputs=params.get("n_inputs", 8),
        n_outputs=params.get("n_outputs", 8),
        avg_fanin=params.get("avg_fanin", 2.2),
        locality=params.get("locality", 64),
        feedback_fraction=params.get("feedback_fraction", 0.5),
        rng=rng, library=library)


def _build_cslow(name: str, params: dict[str, Any],
                 rng: np.random.Generator, library: CellLibrary) -> Circuit:
    base_family = params["base_family"]
    if base_family == "cslow":
        raise NetlistError("cslow bases cannot themselves be cslow")
    base = FAMILIES[base_family].build(f"{name}_core",
                                       params["base_params"], rng, library)
    return c_slow(base, params["c"], name=name)


@dataclass(frozen=True)
class Family:
    """One registered generator family."""

    name: str
    build: Any  # (name, params, rng, library) -> Circuit
    description: str
    #: Whether generation cost is O(gates) -- eligible for the large tier
    #: and the scaling benchmark's 10^5-gate points.
    scalable: bool = True


FAMILIES: dict[str, Family] = {
    f.name: f for f in (
        Family("pipeline", _build_pipeline,
               "feed-forward pipelined datapath"),
        Family("fsm_datapath", _build_fsm_datapath,
               "FSM controller gating a pipelined datapath"),
        Family("tree", _build_tree,
               "registered reduction tree with root feedback"),
        Family("mesh", _build_mesh,
               "systolic 2-D mesh with registered torus wrap"),
        # Generation is O(gates + dffs log dffs) since the incremental
        # register-eligibility pool replaced the per-gate rescan.
        Family("random", _build_random,
               "locality-windowed random sequential circuit"),
        Family("cslow", _build_cslow,
               "c-slowed core of another family (register-rich)"),
    )
}


@dataclass(frozen=True)
class CircuitSpec:
    """One corpus member: everything needed to rebuild it bit-for-bit."""

    name: str
    family: str
    params: dict[str, Any] = field(hash=False)
    seed: int = 0
    fmt: str = "bench"  # "bench" | "blif"
    library: str = "generic"

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise NetlistError(
                f"unknown corpus family {self.family!r} "
                f"(known: {', '.join(sorted(FAMILIES))})")
        if self.fmt not in ("bench", "blif"):
            raise NetlistError(
                f"unknown corpus format {self.fmt!r} "
                f"(known: bench, blif)")

    @property
    def filename(self) -> str:
        return f"{self.name}.{self.fmt}"

    def to_dict(self) -> dict[str, Any]:
        return {"family": self.family, "params": dict(self.params),
                "seed": self.seed, "format": self.fmt,
                "library": self.library}

    @classmethod
    def from_dict(cls, name: str, data: dict[str, Any]) -> "CircuitSpec":
        return cls(name=name, family=str(data["family"]),
                   params=dict(data["params"]), seed=int(data["seed"]),
                   fmt=str(data["format"]),
                   library=str(data["library"]))


@nogc
def build_circuit(spec: CircuitSpec) -> Circuit:
    """Build a spec's circuit from scratch (private RNG stream)."""
    family = FAMILIES[spec.family]
    rng = np.random.default_rng(spec.seed)
    return family.build(spec.name, spec.params, rng,
                        resolve_library(spec.library))


# ----------------------------------------------------------------------
# Tiers
# ----------------------------------------------------------------------

def _spec(name: str, family: str, fmt: str, library: str, seed: int,
          **params: Any) -> CircuitSpec:
    return CircuitSpec(name=name, family=family, params=params, seed=seed,
                       fmt=fmt, library=library)


#: Corpus tiers.  ``small`` is committed (see ``corpus/small/``) -- its
#: membership, params and seeds are pinned: changing anything here
#: invalidates the committed manifest and golden digests by design.
TIERS: dict[str, tuple[CircuitSpec, ...]] = {
    "small": (
        _spec("pipe_a", "pipeline", "bench", "generic", 11,
              stages=8, width=12),
        _spec("pipe_b", "pipeline", "blif", "unit", 12,
              stages=5, width=20),
        _spec("fsmdp_a", "fsm_datapath", "bench", "generic", 13,
              state_bits=5, stages=4, width=12),
        _spec("fsmdp_b", "fsm_datapath", "blif", "generic", 14,
              state_bits=6, stages=6, width=16),
        _spec("tree_a", "tree", "blif", "unit", 15,
              leaves=128, reg_every=2),
        _spec("tree_b", "tree", "bench", "skewed:7:0.3", 16,
              leaves=256, reg_every=3),
        _spec("mesh_a", "mesh", "bench", "skewed:11:0.4", 17,
              rows=8, cols=8),
        _spec("mesh_b", "mesh", "bench", "generic", 18,
              rows=12, cols=10),
        _spec("rand_a", "random", "bench", "generic", 19,
              n_gates=240, n_dffs=30),
        _spec("rand_b", "random", "blif", "unit", 20,
              n_gates=400, n_dffs=48, feedback_fraction=0.7),
        _spec("cslow_a", "cslow", "blif", "generic", 21,
              c=2, base_family="pipeline",
              base_params={"stages": 4, "width": 8}),
        _spec("cslow_b", "cslow", "bench", "generic", 22,
              c=3, base_family="tree",
              base_params={"leaves": 64, "reg_every": 2}),
    ),
    "medium": (
        _spec("pipe_m", "pipeline", "bench", "generic", 31,
              stages=40, width=50),
        _spec("fsmdp_m", "fsm_datapath", "bench", "generic", 32,
              state_bits=8, stages=30, width=100),
        _spec("tree_m", "tree", "bench", "unit", 33,
              leaves=4096, reg_every=2),
        _spec("mesh_m", "mesh", "bench", "skewed:7:0.3", 34,
              rows=64, cols=64),
        _spec("rand_m", "random", "bench", "generic", 35,
              n_gates=4000, n_dffs=400),
        _spec("cslow_m", "cslow", "bench", "generic", 36,
              c=3, base_family="pipeline",
              base_params={"stages": 20, "width": 50}),
    ),
    "large": (
        _spec("pipe_l", "pipeline", "bench", "generic", 41,
              stages=200, width=500),
        _spec("fsmdp_l", "fsm_datapath", "bench", "generic", 42,
              state_bits=10, stages=250, width=400),
        _spec("tree_l", "tree", "bench", "unit", 43,
              leaves=65536, reg_every=3),
        _spec("mesh_l", "mesh", "bench", "generic", 44,
              rows=320, cols=320),
        _spec("cslow_l", "cslow", "bench", "generic", 45,
              c=4, base_family="mesh",
              base_params={"rows": 160, "cols": 160}),
    ),
}


def tier_specs(tier: str) -> tuple[CircuitSpec, ...]:
    """The specs of a named tier (:class:`NetlistError` on a bad name)."""
    try:
        return TIERS[tier]
    except KeyError:
        raise NetlistError(
            f"unknown corpus tier {tier!r} "
            f"(known: {', '.join(sorted(TIERS))})") from None


def corpus_circuit(tier: str, name: str) -> Circuit:
    """Build one tier circuit by name -- the matrix's ``circuit_factory``.

    Module-level on purpose: ``functools.partial(corpus_circuit, tier)``
    must pickle into the parallel executor's worker processes.
    """
    for spec in tier_specs(tier):
        if spec.name == name:
            return build_circuit(spec)
    raise NetlistError(f"tier {tier!r} has no circuit named {name!r}")
