"""The pinned configuration behind the golden-manifest fixture.

One module owns the config so the regression test and the regeneration
script can never drift apart.  To refresh the fixture after an
intentional behaviour change, run (from the repository root):

    python tests/golden/regenerate.py

and commit the rewritten ``expected_manifest.json`` together with the
change that motivated it.
"""

from pathlib import Path

FIXTURE_PATH = Path(__file__).resolve().parent / "expected_manifest.json"

#: Three small Table I stand-ins at a scale that keeps the whole run in
#: seconds.  Everything that determines results is pinned here; the
#: fixture stores both manifest checksums, so any unintentional change
#: to solver, simulation or serialization behaviour shows up as a diff.
GOLDEN_KNOBS = dict(
    circuits=("s13207", "s15850.1", "b14_1_opt"),
    scale=0.004,
    seed=0,
    n_frames=3,
    n_patterns=64,
)


def golden_config():
    from repro.runtime.suite import SuiteConfig

    return SuiteConfig(**GOLDEN_KNOBS)
