"""The user-visible bytes pinned by the benchmark's golden hashes.

``perfbench/golden.json`` records the sha256 of the default ``verify``
report and of the highlighted ``bruhat-dot`` texts that the benchmark
produces.  These tests run the same commands through ``cli.main`` and
compare against that file, so a change to the report or the DOT bytes
fails here, not only in the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from coxfold.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text()
)["full"]


def sha256_of_run(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_default_verify_report(tmp_path):
    assert sha256_of_run(tmp_path, ["verify"]) == GOLDEN["verify_grid"]["cold"]


@pytest.mark.parametrize(
    "key, argv",
    [
        ("D4 Bn-Dn+1 n=3", ["--group", "D4", "--folding", "Bn-Dn+1", "--n", "3"]),
        ("A4 Bn-A2n n=2", ["--group", "A4", "--folding", "Bn-A2n", "--n", "2"]),
        (
            "A5 Bn-A2n-1 n=3 max-len=6",
            ["--group", "A5", "--folding", "Bn-A2n-1", "--n", "3", "--max-len", "6"],
        ),
    ],
)
def test_highlighted_hasse_dot(tmp_path, key, argv):
    assert sha256_of_run(tmp_path, ["bruhat-dot"] + argv) == GOLDEN["hasse_dot"][key]
