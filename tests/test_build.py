import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_setup_py_build_imports(tmp_path):
    # perfbench builds the package this way and imports the result
    source = tmp_path / "source"
    shutil.copytree(ROOT / "src", source / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for name in ("setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, source / name)
    lib = tmp_path / "lib"
    subprocess.run(
        [sys.executable, "setup.py", "-q", "build", "--build-base", str(tmp_path / "build"),
         "--build-lib", str(lib)],
        cwd=source, check=True, capture_output=True, timeout=300)
    proc = subprocess.run(
        [sys.executable, "-c",
         "import graphtheta.treegen as t; print(t.BACKEND, t.count_trees(10), t.__file__)"],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": str(lib)},
        check=True, capture_output=True, text=True, timeout=120)
    backend, count, path = proc.stdout.split()
    assert (backend, count) == ("python", "106")
    assert Path(path) == lib / "graphtheta" / "treegen.py"


def test_star_import_resolves_every_public_name():
    # a stale __all__ entry would only fail for `from graphtheta import *` users
    import graphtheta

    namespace = {}
    exec("from graphtheta import *", namespace)
    assert set(graphtheta.__all__) <= namespace.keys()
    assert len(graphtheta.__all__) == len(set(graphtheta.__all__))
