"""What importing the package loads: every CLI stage runs in a fresh process
and pays for it, so heavy modules no path needs stay out."""
import os
import subprocess
import sys

import genhjb

SRC = os.path.dirname(os.path.dirname(os.path.abspath(genhjb.__file__)))


def test_import_does_not_load_scipy_stats():
    # scipy.stats alone took about half of the import time; it is checked by
    # module name, not by timing
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = ("import sys, genhjb, genhjb.cli; "
            "print(genhjb.__file__); print('scipy.stats' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, timeout=120, check=True).stdout.split()
    assert os.path.samefile(out[0], genhjb.__file__)
    assert out[1] == "False"
