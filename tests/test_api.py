"""The package's public names, what importing it loads and the numpy it needs."""

import os
import subprocess
import sys
from pathlib import Path

import pbergman

# the directory that holds the imported package, for the child process
PACKAGE_ROOT = str(Path(pbergman.__file__).resolve().parents[1])


def test_every_exported_name_resolves_once():
    names = pbergman.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(pbergman, name)]
    assert missing == []


def test_import_loads_no_scipy():
    code = "import sys, pbergman, pbergman.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "[]"


def test_stacked_lstsq_gufunc_resolves():
    # the lockstep solver calls numpy's LAPACK least-squares gufunc directly
    # (numpy >= 2.0), with the complex signature np.linalg.lstsq uses
    from pbergman.reconstruct import _umath_linalg

    assert "DDd->Ddid" in _umath_linalg.lstsq.types
    assert _umath_linalg.lstsq.signature == "(m,n),(m,nrhs),()->(n,nrhs),(nrhs),(),(p)"
