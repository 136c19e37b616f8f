import ast
import importlib.util
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# runs the CLI with mpmath unimportable, as on an install with no extra,
# and decimal and fractions too: no command needs them, not even to sign
# a gap inside the zero tolerance's band
NO_MPMATH_CLI = """\
import sys
for name in ("mpmath", "decimal", "fractions"):
    sys.modules[name] = None
from graphtheta.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.fixture(scope="module")
def built_lib(tmp_path_factory):
    # perfbench builds the package this way and imports the result
    tmp_path = tmp_path_factory.mktemp("build")
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
    return lib


def run_built(lib, argv, **kwargs):
    return subprocess.run(
        [sys.executable, *argv], cwd=lib.parent, env={**os.environ, "PYTHONPATH": str(lib)},
        capture_output=True, text=True, timeout=120, **kwargs)


def test_setup_py_build_imports(built_lib):
    proc = run_built(built_lib, [
        "-c", "import graphtheta.treegen as t;"
        " print(t.BACKEND, sum(1 for _ in t.free_tree_sequences(10)), t.__file__)"],
        check=True)
    backend, count, path = proc.stdout.split()
    assert (backend, count) == ("python", "106")
    assert Path(path) == built_lib / "graphtheta" / "treegen.py"


def test_built_cli_runs_without_mpmath(built_lib):
    scan = run_built(built_lib, ["-c", NO_MPMATH_CLI, "scan", "11"])
    assert scan.returncode == 0, scan.stderr
    assert ",235,234,1,0," in scan.stdout
    # at tol 0.02 one tree of order 11 is in the band and certified zero
    rechecked = run_built(built_lib, ["-c", NO_MPMATH_CLI, "scan", "11", "--tol", "0.02"])
    assert rechecked.returncode == 0, rechecked.stderr
    assert ",235,233,1,1," in rechecked.stdout
    index = run_built(built_lib, ["-c", NO_MPMATH_CLI, "index"], input="A_\n")
    assert index.returncode == 0, index.stderr
    assert "\nA_,2,1," in index.stdout


def test_built_cli_import_loads_no_dataclasses_or_decimal(built_lib):
    # against a bare interpreter in the same environment, which may preload modules
    listed = "import sys; print(' '.join(sorted(sys.modules)))"
    bare = run_built(built_lib, ["-c", listed], check=True).stdout.split()
    cli = run_built(built_lib, ["-c", "import graphtheta.cli; " + listed], check=True)
    added = set(cli.stdout.split()) - set(bare)
    assert "graphtheta.cli" in added
    assert not added & {"dataclasses", "inspect", "decimal"}


def test_no_module_imports_decimal_or_fractions():
    # a sign is decided in integers (indices.certified_sign)
    found = []
    for path in sorted((ROOT / "src" / "graphtheta").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([a.name for a in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.partition(".")[0] in ("decimal", "fractions")]
    assert found == []


def test_star_import_resolves_every_public_name():
    # a stale __all__ entry would only fail for `from graphtheta import *` users
    import graphtheta

    namespace = {}
    exec("from graphtheta import *", namespace)
    assert set(graphtheta.__all__) <= namespace.keys()
    assert len(graphtheta.__all__) == len(set(graphtheta.__all__))


def is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_every_definition_is_referenced_in_the_package():
    # a function, method or class that nothing in the package names is
    # dead code, or library API that only a test calls; so is a
    # module-level name, or a field set as self.X, that nothing in the
    # package reads
    defined, referenced = {}, set()
    assigned, read = {}, set()
    fields, loaded = {}, set()
    for path in sorted((ROOT / "src" / "graphtheta").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for stmt in tree.body:
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
            for target in targets:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and not is_dunder(node.id):
                        assigned.setdefault(node.id, f"{path.name}:{node.lineno}")
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not is_dunder(node.name):
                    defined.setdefault(node.name, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.Name):
                referenced.add(node.id)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                read.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
                elif isinstance(node.value, ast.Name) and node.value.id == "self":
                    fields.setdefault(node.attr, f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.alias):
                names = (node.name.rpartition(".")[2], node.asname)
                referenced.update(names)
                read.update(names)
            elif isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
                referenced.update(ast.literal_eval(node.value))
    assert {name: at for name, at in defined.items() if name not in referenced} == {}
    # perfbench reads treegen.BACKEND, which goes once the run record names the kernel
    read.add("BACKEND")
    assert {name: at for name, at in assigned.items() if name not in read} == {}
    assert {name: at for name, at in fields.items() if name not in loaded} == {}


def test_tracer_sites_import():
    # perfbench/tracer.py imports each module it patches before the CLI
    # starts, so a module it names that is gone stops every traced run
    spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    sites = [*tracer.SITES.values(), *tracer.STREAMS.values(), [tracer.PARTITION[1]]]
    modules = {mod for pairs in sites for mod, _ in pairs}
    assert modules == {"treegen", "survey", "cli", "graph6", "smallgraphs", "linegraph"}
    for mod in modules:
        importlib.import_module(f"graphtheta.{mod}")


def test_traced_scan_writes_the_untraced_witnesses(tmp_path):
    # the benchmark's tracer runs the program it measures: its witness
    # file and report must be the untraced run's, byte for byte
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    runs = {}
    for name, argv in (("plain", ["-m", "graphtheta.cli"]),
                       ("traced", [str(ROOT / "perfbench" / "tracer.py"),
                                   str(tmp_path / "spans.jsonl")])):
        out = tmp_path / f"{name}.g6"
        proc = subprocess.run(
            [sys.executable, *argv, "scan", "12..14", "--witness-out", str(out)],
            cwd=tmp_path, env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs[name] = (proc.stdout, out.read_bytes())
    assert runs["traced"] == runs["plain"]
    # a header line per order, then its witnesses
    assert runs["plain"][1].count(b"\n") == 3 + 6 + 31 + 100
    assert (tmp_path / "spans.jsonl").stat().st_size > 0
