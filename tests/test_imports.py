"""What `import fairseed` loads, checked in a fresh interpreter."""

import os
import subprocess
import sys

import fairseed

# scipy.sparse.csgraph imports scipy.linalg, which added 0.156 s to
# `import fairseed` (2 shared cores, Python 3.11.7, scipy 1.17.1), about a
# third of the benchmark's set-up time. fairseed's sparse products need none
# of these modules.
UNWANTED = ("scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")


def test_import_loads_no_csgraph_or_linalg():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fairseed.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = ("import sys, fairseed\n"
            f"print(','.join(m for m in {UNWANTED!r} if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": path})
    assert out.stdout.strip() == ""
