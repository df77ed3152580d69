"""What importing the whole package loads besides numpy and the stdlib.

Every repro process pays for what ``repro`` imports, whether it runs it or
not: a graph library that only an unused method needed once cost each
end-to-end workload a quarter of its peak RSS.  The check runs in a fresh
interpreter, so it does not depend on what this test process has already
imported.

``python tests/test_import_footprint.py`` prints the same measurement as a
report: the peak RSS after the import and the third-party top-level modules
it added.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

#: imports numpy, notes the top-level modules, imports every module under
#: ``repro`` and prints what was added outside the stdlib, numpy and repro
FOOTPRINT = """
import importlib, json, pkgutil, resource, sys
import numpy, numpy.random
before = {name.partition(".")[0] for name in sys.modules}
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
added = {name.partition(".")[0] for name in sys.modules} - before
third_party = added - set(sys.stdlib_module_names) - {"numpy", "repro"}
print(json.dumps({
    "third_party": sorted(third_party),
    "ru_maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
}))
"""


def measure() -> dict:
    """Run :data:`FOOTPRINT` in a fresh interpreter that finds this
    checkout's ``repro``."""
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_repro_imports_nothing_beyond_numpy_and_the_stdlib():
    assert measure()["third_party"] == []


if __name__ == "__main__":
    report = measure()
    print(f"peak RSS after importing every repro module: "
          f"{report['ru_maxrss_mib']:.1f} MiB")
    print(f"third-party top-level modules added: {report['third_party']}")
