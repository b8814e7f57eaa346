"""The user-visible bytes pinned by the benchmark's golden hashes.

``perfbench/golden.json`` records the sha256 of the default ``verify``
report and of the highlighted ``bruhat-dot`` texts that the benchmark
produces.  These tests run the same commands through ``cli.main`` and
compare against that file, so a change to the report or the DOT bytes
fails here, not only in the benchmark.  Both forms of ``catalog``, which
the benchmark runs as a set-up probe, and the report of the opt-in
``Thm1.5-literal`` verify row are pinned here by hash too.  The
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
import sys
from pathlib import Path

import pytest

import coxfold.cli
import coxfold.closed_forms
from coxfold.cli import main
from coxfold.closed_forms import substitution_route
from coxfold.folding import FamilyId, unfolding_series_bruteforce

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text())["full"]


def sha256_of_run(tmp_path, argv, code=0):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == code
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_default_verify_report(tmp_path):
    assert sha256_of_run(tmp_path, ["verify"]) == GOLDEN["verify_grid"]["cold"]


@pytest.mark.parametrize(
    "argv, code, digest",
    [
        (["catalog"], 0, "739b0bbdf0f174db073dfcb87c36c37d1b6bdfe5ef7d8de6f9eda875749c7741"),
        (
            ["catalog", "--format", "text"],
            0,
            "33ee6d3d4cb8e94f374a29e38ddfa0734ed20b1b64720cc881cc306fe94d8a29",
        ),
        # one error:NonUnitDivisor entry: the product from k = 1 divides by 1 - q^0
        (
            ["verify", "--family", "Thm1.5-literal"],
            1,
            "6e5a7935db373d969344d199a84448e791fe732ab207af2789500983dc92611d",
        ),
    ],
    ids=["catalog-json", "catalog-text", "verify-Thm1.5-literal"],
)
def test_pinned_bytes(tmp_path, argv, code, digest):
    assert sha256_of_run(tmp_path, argv, code) == digest


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
