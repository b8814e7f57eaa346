"""Smoke tests of the benchmark itself.

They run every workload at the small "smoke" sizes, check the golden
hashes and that every metric is printed, and check that a changed output
or a tree without sources fails the run.  Run from the repository root:

    python3 -m pytest perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# the end-to-end names the human-readable lines carry besides the JSON metrics
PRINTED = ["grid_cold_s", "grid_warm_s", "grid_w2_s", "formula_s", "stretch_s", "dot_s",
           "wall_norm_s", "wall_s", "peak_rss_mb", "setup_s", "setup_wall_s", "ref_s",
           "failed_ratio"]


def bench(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--seed", "7", "--seconds", "1",
         "--smoke", *args],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc):
    return json.loads(proc.stdout.splitlines()[-1])


def check_metrics(result, metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for workload in WORKLOADS:
        for metric in metrics:
            got = result["metrics"][f"{workload}.{metric['name']}"]
            assert got["unit"] == metric["unit"]
            assert isinstance(got["value"], (int, float)), (workload, metric)


def test_end_to_end_smoke():
    proc = bench(ROOT, "--workload", "all", "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    check_metrics(result_of(proc), SPEC["end_to_end"])
    for metric in SPEC["end_to_end"]:
        for workload in WORKLOADS:
            assert result_of(proc)["metrics"][f"{workload}.{metric['name']}"]["value"] > 0
    for name in PRINTED:
        assert re.search(rf"^\w+ {name} [0-9.]+ \S+ ", proc.stdout, re.M), name
    provenance = json.loads(proc.stdout.splitlines()[0].split(" ", 1)[1])
    assert {"nproc", "python", "platform", "commit"} <= set(provenance)


def test_traced_smoke():
    proc = bench(ROOT, "--workload", "all", "--trace", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    check_metrics(result_of(proc), SPEC["per_layer"])
    metrics = result_of(proc)["metrics"]
    assert metrics["verify_grid.folding.bruteforce_calls"]["value"] > 0
    assert metrics["hasse_dot.dot.bruhat_leq_calls"]["value"] > 0
    assert "overhead" in proc.stdout


def copy_tree(name, with_sources):
    """A copy of the benchmark, with or without the sources, inside .perfbench/."""
    dst = ROOT / ".perfbench" / name
    shutil.rmtree(dst, ignore_errors=True)
    dst.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dst)
    shutil.copytree(ROOT / "perfbench", dst / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if with_sources:
        shutil.copytree(ROOT / "src", dst / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dst


def test_changed_output_fails():
    tree = copy_tree("test-changed-output", with_sources=True)
    golden_path = tree / "perfbench" / "golden.json"
    golden = json.loads(golden_path.read_text())
    for key in golden["smoke"]["hasse_dot"]:
        golden["smoke"]["hasse_dot"][key] = "0" * 64
    golden_path.write_text(json.dumps(golden))
    proc = bench(tree, "--workload", "hasse_dot", "--trace", "0")
    shutil.rmtree(tree)
    assert proc.returncode == 1
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "FAILED hasse_dot" in proc.stdout


def test_tree_without_sources_fails():
    tree = copy_tree("test-no-sources", with_sources=False)
    proc = bench(tree, "--workload", "verify_grid", "--trace", "0")
    shutil.rmtree(tree)
    assert proc.returncode != 0
    assert proc.stdout == ""
