"""The user-visible bytes pinned by the benchmark's golden hashes.

``perfbench/golden.json`` records the sha256 of the default ``verify``
report and of the highlighted ``bruhat-dot`` texts that the benchmark
produces.  These tests run the same commands through ``cli.main`` and
compare against that file, so a change to the report or the DOT bytes
fails here, not only in the benchmark.  The same commands must compile
no walk kernel: their walks are too short to repay a compile.  The
benchmark also reaches into the library by name: its tracer patches
functions in the modules that call them, and one probe passes
``workers=2``; those names are pinned here too, as are the tracer's view
of the substitution route, which it times through the ``closed_forms``
globals ``reiner_distribution`` and ``substitute``, and its view of the
command line, which wraps four ``cli`` attributes before it calls
``main``, one of them loaded on first use.
"""

import functools
import hashlib
import importlib.util
import inspect
import json
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
    # their walks store too few nodes per generator for a compile to pay:
    # no system kernel and no folding's block kernel is compiled, though
    # the folding walks read their steps from block-step tables
    kernels, compiles, step_tables = {}, [], []
    monkeypatch.setattr(coxfold._kernels, "_KERNELS", kernels)
    monkeypatch.setattr(
        coxfold._kernels, "compile", lambda *args: compiles.append(args) or compile(*args),
        raising=False,
    )
    step_table = coxfold.coxeter.CoxeterSystem._step_table

    def recording(system, target, words):
        table = step_table(system, target, words)
        step_tables.append(table)
        return table

    monkeypatch.setattr(coxfold.coxeter.CoxeterSystem, "_step_table", recording)
    sha256_of_run(tmp_path, ["verify"])
    for _, argv in HASSE_DOT:
        sha256_of_run(tmp_path, ["bruhat-dot"] + argv)
    assert kernels == {} and compiles == []
    assert step_tables
    for table in step_tables:
        assert all(isinstance(step, functools.partial) for step in table)


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
