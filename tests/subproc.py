"""Child interpreters for tests that drive the real CLI in a process.

A child imports the ``src`` of the checkout these tests belong to and
runs in its root, whatever the working directory of the test run, so
a suite run from any checkout tests that checkout's code.
"""

import os
from pathlib import Path

#: The root of the checkout these tests belong to.
REPO = Path(__file__).resolve().parents[1]


def child_env(**extra):
    """This process's environment plus ``extra``, importing this tree."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    return env
