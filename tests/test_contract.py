"""The user-visible bytes pinned by the benchmark's golden hashes.

``perfbench/golden.json`` records the sha256 of the default ``verify``
report and of the highlighted ``bruhat-dot`` texts that the benchmark
produces.  These tests run the same commands through ``cli.main`` and
compare against that file, so a change to the report or the DOT bytes
fails here, not only in the benchmark.  The same commands must compile
no walk kernel, nor even load the kernel module in their process: their
walks are too short to repay a compile.  The
benchmark also reaches into the library by name: its tracer patches
functions in the modules that call them, and one probe passes
``workers=2``; those names are pinned here too, as are the tracer's view
of the substitution route, which it times through the ``closed_forms``
globals ``reiner_distribution`` and ``substitute``, and its view of the
command line, which wraps four ``cli`` attributes before it calls
``main``, one of them loaded on first use.
"""

import hashlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import coxfold._kernels
import coxfold.cli
import coxfold.closed_forms
import coxfold.coxeter
from coxfold.cli import main
from coxfold.closed_forms import substitution_route
from coxfold.folding import FamilyId, unfolding_series_bruteforce

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["full"]


def sha256_of_run(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_default_verify_report(tmp_path):
    assert sha256_of_run(tmp_path, ["verify"]) == GOLDEN["verify_grid"]["cold"]


HASSE_DOT = [
    ("D4 Bn-Dn+1 n=3", ["--group", "D4", "--folding", "Bn-Dn+1", "--n", "3"]),
    ("A4 Bn-A2n n=2", ["--group", "A4", "--folding", "Bn-A2n", "--n", "2"]),
    (
        "A5 Bn-A2n-1 n=3 max-len=6",
        ["--group", "A5", "--folding", "Bn-A2n-1", "--n", "3", "--max-len", "6"],
    ),
]


@pytest.mark.parametrize("key, argv", HASSE_DOT)
def test_highlighted_hasse_dot(tmp_path, key, argv):
    assert sha256_of_run(tmp_path, ["bruhat-dot"] + argv) == GOLDEN["hasse_dot"][key]


def test_verify_and_hasse_dot_compile_no_kernel(tmp_path, monkeypatch):
    # their walks store at most 1,156 nodes, under the trip's 1,500:
    # no system kernel and no folding's block kernel is compiled, though
    # every walk makes its nodes with the loops of coxeter._loops
    kernels, compiles, loops, compiled_loops = {}, [], [], []
    monkeypatch.setattr(coxfold._kernels, "_KERNELS", kernels)
    monkeypatch.setattr(
        coxfold._kernels, "compile", lambda *args: compiles.append(args) or compile(*args),
        raising=False,
    )
    primitive_loops, bucket_loops = coxfold.coxeter._loops, coxfold._kernels.bucket_loops
    monkeypatch.setattr(
        coxfold.coxeter, "_loops", lambda *args: loops.append(args) or primitive_loops(*args)
    )
    monkeypatch.setattr(
        coxfold._kernels, "bucket_loops",
        lambda *args: compiled_loops.append(args) or bucket_loops(*args),
    )
    sha256_of_run(tmp_path, ["verify"])
    for _, argv in HASSE_DOT:
        sha256_of_run(tmp_path, ["bruhat-dot"] + argv)
    assert kernels == {} and compiles == []
    assert loops and compiled_loops == []


def test_verify_and_hasse_dot_processes_never_load_the_kernels(tmp_path):
    # the traffic bound the compile trip rests on, in a fresh process as
    # the benchmark runs them: no walk of the default verify grid (at most
    # 1,156 nodes) or of the three highlighted Hasse diagrams reaches the
    # trip's 1,500 stored nodes, so coxfold._kernels is never imported
    runs = [["verify"]] + [["bruhat-dot"] + argv for _, argv in HASSE_DOT]
    runs = [argv + ["--out", str(tmp_path / f"out-{t}")] for t, argv in enumerate(runs)]
    probe = (
        "import sys; from coxfold.cli import main; "
        f"codes = [main(argv) for argv in {runs!r}]; "
        "print(codes, 'coxfold._kernels' in sys.modules)"
    )
    path = [str(PERFBENCH.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0] False"


def test_benchmark_patch_points_exist():
    # the tracer looks up every name it patches, so a renamed or deleted
    # one raises here
    spec = importlib.util.spec_from_file_location("perfbench_child", PERFBENCH / "child.py")
    child = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = child
    try:
        spec.loader.exec_module(child)
        tracer = child.Tracer()
        try:
            tracer.install()
        finally:
            tracer.uninstall()
    finally:
        del sys.modules[spec.name]
    inspect.signature(unfolding_series_bruteforce).bind(None, None, workers=2)


def test_commands_call_the_patch_points_through_cli(tmp_path, monkeypatch):
    # the tracer wraps these four `cli` attributes before it calls main, so
    # a command must read each one from the module when it runs, and the
    # lazy loading of `run_job` must keep a wrapper bound before it
    calls = dict.fromkeys(("run_job", "bruhat_dot", "build_system", "standard_folding"), 0)

    def counter(name, fn):
        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(coxfold.cli, name, counter(name, getattr(coxfold.cli, name)))
    sha256_of_run(tmp_path, ["verify", "--family", "I2-An"])
    sha256_of_run(tmp_path, ["bruhat-dot", "--group", "A3", "--folding", "Bn-A2n-1", "--n", "2"])
    assert all(calls.values()), calls


def test_substitution_route_calls_the_patched_globals(monkeypatch):
    calls = {}

    def counter(name, fn):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    for name in ("reiner_distribution", "substitute"):
        original = getattr(coxfold.closed_forms, name)
        monkeypatch.setattr(coxfold.closed_forms, name, counter(name, original))
    substitution_route(FamilyId("affC-affC2n", 2), 10)
    assert calls == {"reiner_distribution": 1, "substitute": 1}
