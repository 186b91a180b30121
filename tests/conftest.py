"""Shared pytest hooks.

The acceptance tests record one verdict line each; echo them after the
run so a plain ``pytest -v`` log always ends with the verdict table.

``HYPOTHESIS_PROFILE=ci`` selects the ``ci`` profile, which derandomizes
every property test so a failing run replays with the same examples.
Without it the default profile draws fresh examples each run.
"""

import os
import sys

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "_RESULTS", None)
    if not lines:
        return
    terminalreporter.write_sep("=", "acceptance summary")
    for line in lines:
        terminalreporter.write_line(line)
