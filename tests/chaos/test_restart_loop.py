"""The one subprocess kill loop, driven by a scripted child.

The child is a bare ``python -c`` script, not the CLI: it records the
fault seed it was launched with and exits with the code scripted for
that seed.  That keeps these tests fast enough for tier-1 while
covering every exit policy of
:func:`repro.faultplane.chaos.restart_until_complete`.  The service
kill-loop's two modes are checked as callers of it, over an empty
queue and a child that fails at once.
"""

import json
import sys

import pytest

from repro.errors import ExecutionError
from repro.faultplane import chaos
from repro.faultplane.chaos import reseeded, restart_until_complete
from repro.faultplane.plan import KILL_EXIT_CODE, FaultPlan
from repro.service import killloop

CHILD = """
import json, os, sys, time
seed = json.loads(os.environ["REPRO_FAULT_PLAN"])["seed"]
with open(sys.argv[1], "a") as log:
    log.write(f"{seed}\\n")
print(f"seed {seed}")
code = json.loads(sys.argv[2]).get(str(seed), 0)
if code == "sleep":
    time.sleep(30)
print(f"child {seed} says goodbye", file=sys.stderr)
sys.exit(code)
"""


def run(tmp_path, codes, max_restarts=10):
    """Run the loop over a child scripted by ``codes`` (seed -> exit),
    with the per-launch plans of base seed 10."""
    argv = [sys.executable, "-c", CHILD, str(tmp_path / "launches.txt"),
            json.dumps(codes)]
    return restart_until_complete(argv, reseeded(FaultPlan(seed=10)),
                                  str(tmp_path / "wd"),
                                  max_restarts=max_restarts)


def launched(tmp_path):
    """The fault seeds the child saw, one per launch."""
    return [int(seed) for seed in
            (tmp_path / "launches.txt").read_text().split()]


class TestRestartUntilComplete:
    def test_restarts_on_kill_with_each_launchs_plan(self, tmp_path):
        result = run(tmp_path, {"10": KILL_EXIT_CODE,
                                "11": KILL_EXIT_CODE, "12": 0})
        assert launched(tmp_path) == [10, 11, 12]
        assert [a.exit_code for a in result.attempts] == \
            [KILL_EXIT_CODE, KILL_EXIT_CODE, 0]
        assert [a.stdout for a in result.attempts] == \
            ["seed 10\n", "seed 11\n", "seed 12\n"]
        assert result.kills == 2
        assert result.restarts == 2
        assert result.stdout == "seed 12\n"

    def test_stops_on_zero(self, tmp_path):
        result = run(tmp_path, {})
        assert launched(tmp_path) == [10]
        assert result.kills == 0
        assert result.restarts == 0

    def test_other_exit_fails_at_once_with_stderr_tail(self, tmp_path):
        with pytest.raises(ExecutionError) as info:
            run(tmp_path, {"10": KILL_EXIT_CODE, "11": 3})
        assert launched(tmp_path) == [10, 11]
        message = str(info.value)
        assert "launch 2 exited 3" in message
        assert "child 11 says goodbye" in message

    def test_exhausted_restart_budget_fails(self, tmp_path):
        codes = {str(seed): KILL_EXIT_CODE for seed in range(10, 20)}
        with pytest.raises(ExecutionError, match="launch 3 was killed and no "
                           "restart is left"):
            run(tmp_path, codes, max_restarts=2)
        assert launched(tmp_path) == [10, 11, 12]

    def test_hung_launch_times_out(self, tmp_path, monkeypatch):
        monkeypatch.setattr(chaos, "LAUNCH_TIMEOUT", 1.0)
        with pytest.raises(ExecutionError, match="launch 2 timed out"):
            run(tmp_path, {"10": KILL_EXIT_CODE, "11": "sleep"})
        assert launched(tmp_path) == [10, 11]

    def test_child_runs_in_the_callers_directory(self, tmp_path,
                                                 monkeypatch):
        # A relative path in argv (``chaos --workdir rel``) must name
        # the same file for the child as for the caller.
        monkeypatch.chdir(tmp_path)
        argv = [sys.executable, "-c", CHILD, "launches.txt", "{}"]
        restart_until_complete(argv, reseeded(FaultPlan(seed=10)), "wd")
        assert launched(tmp_path) == [10]


class TestServiceKillLoop:
    def test_verbose_failure_keeps_the_stderr_tail(self, tmp_path,
                                                   monkeypatch, capsys):
        monkeypatch.setattr(killloop, "serve_argv",
                            lambda root, **_: chaos.cli_argv("serve"))
        result = killloop.run_kill_loop(str(tmp_path / "q"), [],
                                        verbose=True)
        assert len(result.violations) == 1
        assert "launch 1 exited 2" in result.violations[0]
        assert "required: --root" in result.violations[0]
        assert "[killloop seed=0] launch 1: exit 2" in \
            capsys.readouterr().err

    def test_worker_mode_never_restarts_a_killed_server(self, tmp_path,
                                                        monkeypatch):
        argv = [sys.executable, "-c",
                f"import sys; sys.exit({KILL_EXIT_CODE})"]
        monkeypatch.setattr(killloop, "serve_argv", lambda root, **_: argv)
        result = killloop.run_worker_kill_loop(str(tmp_path / "q"), [])
        assert len(result.violations) == 1
        assert "worker faults must not kill the server" in \
            result.violations[0]
        assert "launch 1 was killed" in result.violations[0]
