"""Cold start: only the LP oracle imports scipy.

``repro.core.oracle.lp_minobs_optimum`` is the sole scipy user, and it
imports scipy on call.  Loading scipy at package import more than
doubled ``import repro`` time and the resident set of every process
that never solves an LP (the CLI, the service, suite and matrix
workers).
"""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def test_package_and_cli_import_without_scipy():
    code = ("import sys, repro, repro.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
