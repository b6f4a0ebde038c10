"""Corpus generation and the byte-determinism manifest.

The manifest (``format: repro-corpus-manifest``, version 1) records, for
every circuit of a tier, the generator coordinates ``(family, params,
seed)``, the emission format and cell library, the emitted file name,
its sha256, and the structural stats::

    {
      "format": "repro-corpus-manifest",
      "version": 1,
      "tier": "small",
      "checksum": "sha256:<hex>",        // over the canonical JSON
      "circuits": {
        "pipe_a": {
          "family": "pipeline",
          "params": {"stages": 8, "width": 12},
          "seed": 11,
          "format": "bench",
          "library": "generic",
          "file": "pipe_a.bench",
          "sha256": "sha256:<hex>",      // of the emitted file bytes
          "stats": {"inputs": ..., "gates": ..., "dffs": ...}
        }, ...
      }
    }

The per-circuit sha256 is the *determinism proof*: regenerating the
circuit from its coordinates and re-emitting must reproduce those exact
bytes, in any process on any platform.  Emissions are written in binary
mode (no platform newline translation) and hashed over the UTF-8
encoding of the emitted text, so the hash in the manifest is the hash
of the file on disk.  The manifest itself is a :mod:`repro.records`
envelope -- a hand-edited or torn manifest fails loudly.

See ``docs/corpus.md`` for the policy and ``docs/file_formats.md`` for
the field reference.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any

from .. import records
from ..errors import ManifestError
from ..netlist.bench_format import dumps_bench, loads_bench
from ..netlist.blif_format import dumps_blif, loads_blif
from ..netlist.circuit import Circuit
from .families import CircuitSpec, build_circuit, resolve_library, tier_specs

CORPUS_MANIFEST_FORMAT = "repro-corpus-manifest"
CORPUS_MANIFEST_VERSION = 1

#: Default name of a tier's manifest file inside its corpus directory.
MANIFEST_BASENAME = "corpus-manifest.json"


def circuit_sha256(text: str) -> str:
    """``"sha256:<hex>"`` over the UTF-8 encoding of an emitted netlist."""
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
    return f"sha256:{digest}"


def emit_circuit(spec: CircuitSpec, circuit: Circuit | None = None) -> str:
    """Emit a spec's circuit in its declared format.

    Both emitters write gates in topological order from a canonical
    traversal, so emission is a pure function of the circuit -- the
    byte-determinism claim reduces to generator determinism.
    """
    if circuit is None:
        circuit = build_circuit(spec)
    if spec.fmt == "bench":
        return dumps_bench(circuit)
    return dumps_blif(circuit)


def parse_emission(spec: CircuitSpec, text: str,
                   path: str | None = None) -> Circuit:
    """Parse an emitted corpus file back into a circuit."""
    library = resolve_library(spec.library)
    if spec.fmt == "bench":
        return loads_bench(text, name=spec.name, library=library, path=path)
    return loads_blif(text, library=library, path=path)


def generate_corpus(tier: str) -> tuple[dict[str, Any],
                                        dict[str, str]]:
    """Generate a tier and return ``(manifest payload, emissions)``.

    ``emissions`` maps file names to emitted text; nothing touches disk
    (see :func:`write_corpus`).
    """
    circuits: dict[str, Any] = {}
    emissions: dict[str, str] = {}
    for spec in tier_specs(tier):
        circuit = build_circuit(spec)
        text = emit_circuit(spec, circuit)
        emissions[spec.filename] = text
        entry = spec.to_dict()
        entry["file"] = spec.filename
        entry["sha256"] = circuit_sha256(text)
        entry["stats"] = circuit.stats()
        circuits[spec.name] = entry
    payload: dict[str, Any] = {
        "format": CORPUS_MANIFEST_FORMAT,
        "version": CORPUS_MANIFEST_VERSION,
        "tier": tier,
        "circuits": circuits,
    }
    return records.seal(payload), emissions


def write_corpus(tier: str, out_dir: str | os.PathLike[str]) -> dict[str, Any]:
    """Generate a tier and write its files plus manifest to ``out_dir``.

    Files are written in binary mode so the bytes on disk are exactly
    the hashed bytes on every platform; returns the manifest payload.
    """
    out_dir = os.fspath(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    payload, emissions = generate_corpus(tier)
    for filename, text in emissions.items():
        with open(os.path.join(out_dir, filename), "wb") as handle:
            handle.write(text.encode("utf-8"))
    records.atomic_write(os.path.join(out_dir, MANIFEST_BASENAME),
                         records.dumps(payload))
    return payload


def load_corpus_manifest(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Read and integrity-check a corpus manifest."""
    payload = records.load_record(
        path, fmt=CORPUS_MANIFEST_FORMAT,
        versions=(CORPUS_MANIFEST_VERSION,), error=ManifestError,
        what="corpus manifest",
        hint="regenerate it with 'repro-ser corpus generate'")
    if not isinstance(payload.get("circuits"), dict):
        raise ManifestError(f"{os.fspath(path)!r} has no 'circuits' object")
    return payload


def verify_corpus(manifest_path: str | os.PathLike[str],
                  check_files: bool = True) -> list[str]:
    """Re-derive every manifest entry and report mismatches.

    Three independent claims are checked per circuit:

    * *regeneration*: rebuilding from ``(family, params, seed)`` and
      re-emitting hashes to the recorded sha256 (cross-process /
      cross-platform byte determinism);
    * *file integrity* (when ``check_files``): the committed file's
      bytes hash to the recorded sha256;
    * *parsability*: the emitted text parses back into a circuit with
      the recorded stats.

    Returns a list of human-readable problem strings (empty = verified).
    """
    manifest_path = os.fspath(manifest_path)
    payload = load_corpus_manifest(manifest_path)
    corpus_dir = os.path.dirname(manifest_path) or "."
    problems: list[str] = []
    for name, entry in sorted(payload["circuits"].items()):
        try:
            spec = CircuitSpec.from_dict(name, entry)
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{name}: malformed manifest entry ({exc})")
            continue
        text = emit_circuit(spec)
        regenerated = circuit_sha256(text)
        if regenerated != entry.get("sha256"):
            problems.append(
                f"{name}: regenerated emission hashes to {regenerated}, "
                f"manifest records {entry.get('sha256')}")
        if check_files:
            file_path = os.path.join(corpus_dir, entry.get("file", ""))
            try:
                with open(file_path, "rb") as handle:
                    on_disk = handle.read()
            except OSError as exc:
                problems.append(f"{name}: cannot read {file_path!r} ({exc})")
            else:
                disk_digest = "sha256:" + \
                    hashlib.sha256(on_disk).hexdigest()
                if disk_digest != entry.get("sha256"):
                    problems.append(
                        f"{name}: file {file_path!r} hashes to "
                        f"{disk_digest}, manifest records "
                        f"{entry.get('sha256')}")
        try:
            parsed = parse_emission(spec, text)
        except Exception as exc:
            problems.append(f"{name}: emission does not parse ({exc})")
            continue
        if parsed.stats() != entry.get("stats"):
            problems.append(
                f"{name}: parsed stats {parsed.stats()} differ from "
                f"manifest stats {entry.get('stats')}")
    return problems
