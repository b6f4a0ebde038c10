"""The object-core oracle seam shared by the flat-core tests.

Every engine caller looks up :func:`repro.flatcore.arena.flat_for` at
call time, so substituting it with ``lambda circuit: None`` runs the
original per-gate object engines -- the reference the differential
tests compare the flat core against.
"""

from contextlib import contextmanager

import pytest

from repro.flatcore import arena


@contextmanager
def _object_core():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arena, "flat_for", lambda circuit: None)
        yield


@pytest.fixture(scope="session")
def object_core():
    """Context manager running its block on the object core.

    Session-scoped so class-scoped fixtures can use it too; the
    substitution itself lasts only for the ``with`` block.
    """
    return _object_core
