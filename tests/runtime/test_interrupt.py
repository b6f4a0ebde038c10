"""Graceful SIGTERM/SIGINT handling of checkpointed CLI runs.

A real subprocess is interrupted mid-suite, serial and with two pool
workers: the exit code must be the sysexits ``EX_TEMPFAIL`` convention
(75, not a stack trace), the checkpoint manifest must stay loadable, and
``--resume`` must finish the remaining rows without redoing the
completed ones.
"""

import json
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import INTERRUPT_EXIT_CODE
from repro.runtime.manifest import RunManifest

CIRCUITS = ["s13207", "s15850.1", "s35932", "s38417"]


def table1_argv(manifest_path, workers):
    return [sys.executable, "-m", "repro.cli", "table1", *CIRCUITS,
            "--scale", "0.004", "--frames", "2", "--patterns", "64",
            "--seed", "0", "--resume", str(manifest_path),
            "--workers", str(workers)]


def completed_rows(manifest_path):
    try:
        payload = json.loads(manifest_path.read_text())
    except (OSError, json.JSONDecodeError):
        return 0
    return len(payload.get("completed", {}))


def case(signum, workers):
    """A (signal, workers) case; serial cases keep the bare signal id."""
    suffix = "" if workers == 1 else f"-workers{workers}"
    return pytest.param(signum, workers, id=f"{int(signum)}{suffix}")


@pytest.mark.parametrize(("signum", "workers"), [
    case(signal.SIGTERM, 1), case(signal.SIGINT, 1),
    case(signal.SIGTERM, 2), case(signal.SIGINT, 2)])
def test_interrupt_preserves_checkpoint_and_resume_finishes(
        tmp_path, signum, workers):
    manifest_path = tmp_path / "manifest.json"
    proc = subprocess.Popen(table1_argv(manifest_path, workers),
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    try:
        # Interrupt after the first checkpointed row so there is both
        # salvaged progress and remaining work.
        deadline = time.monotonic() + 300.0
        while time.monotonic() < deadline:
            if proc.poll() is not None or completed_rows(manifest_path):
                break
            time.sleep(0.05)
        if proc.poll() is None:
            proc.send_signal(signum)
        stdout, stderr = proc.communicate(timeout=120.0)
    finally:
        proc.kill()

    if proc.returncode == 0:
        # The suite outran the signal; nothing to salvage -- rare on a
        # fast machine, and the resume path below still gets exercised.
        pass
    else:
        assert proc.returncode == INTERRUPT_EXIT_CODE, stderr.decode()
        assert b"--resume" in stdout + stderr  # tells the operator how

    # The checkpoint survived the interrupt and is loadable.
    manifest = RunManifest.load(manifest_path)
    salvaged = set(manifest.completed)
    assert salvaged  # at least the row we waited for

    # Resume completes the remaining rows and exits cleanly.
    resumed = subprocess.run(table1_argv(manifest_path, workers),
                             capture_output=True, timeout=600.0)
    assert resumed.returncode == 0, resumed.stderr.decode()
    final = RunManifest.load(manifest_path)
    assert set(final.completed) == set(CIRCUITS)
    # Salvaged rows were skipped, not recomputed: their records are
    # byte-identical in the final manifest.
    for name in salvaged:
        assert final.completed[name].to_dict() == \
            manifest.completed[name].to_dict()
