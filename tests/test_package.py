import os
import subprocess
import sys
from pathlib import Path

import spindemon


def test_import_does_not_load_scipy():
    # scipy is a test-only dependency; importing the package and its CLI
    # must not pull it in.
    src = str(Path(spindemon.__file__).resolve().parent.parent)
    code = (
        "import sys, spindemon, spindemon.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
