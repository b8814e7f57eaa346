"""Pinned bytes of the ``series`` and ``reiner`` writers and of the rank-2
``bruhat-dot`` diagrams, and the cost of the ``bruhat-dot`` source-label
search.

Each writer case records the sha256 of stdout and the exit code, for
every format and source choice, so any change to the rendered bytes or
the exit-code rule fails here.  The mismatch cases swap the formula side
for a different series, so the ``FAIL`` verdict and exit 1 are pinned
too.
"""

import hashlib

import pytest

import coxfold.cli
import coxfold.folding
from coxfold.closed_forms import reiner_distribution, unfolding_closed_form
from coxfold.folding import FamilyId

SERIES_FAMILIES = {
    "finite": ["--family", "Bn-A2n-1", "--n", "3"],
    "affine": ["--family", "affC-affC2n", "--n", "2", "--max-len", "8"],
}

SERIES_SHA = {
    ("finite", "both", "text"): "a5f5fa9a92c21d50d1fed4afe8bd493e670d8ed870d119b00e4a008686034586",
    ("finite", "both", "json"): "250bdb425eed2f1ad3c69f774160658bdba03f19e8fe450bf4dbb6684ffbba7c",
    ("finite", "both", "csv"): "3349fee381751547246952f0e6267a602bc749a886a18af078dfa5b45cfb2b2a",
    ("finite", "bruteforce", "text"): "b4890b1ad1c55c060f772c488833dcf8e912248fe6b405abd85c41b9071e4485",
    ("finite", "bruteforce", "json"): "11bdd124e57b3dd88abedbdb3a91c56dce105ab065ee5b2917983a1121105aab",
    ("finite", "bruteforce", "csv"): "3349fee381751547246952f0e6267a602bc749a886a18af078dfa5b45cfb2b2a",
    ("finite", "formula", "text"): "c00252d45d5d39df8d8a27c373a9afa7ade78e80721945a69af6cd64e701a631",
    ("finite", "formula", "json"): "a782098c44864941e2f0761221cc7f1010c847d4837da4c27a97ee532fad837a",
    ("finite", "formula", "csv"): "3349fee381751547246952f0e6267a602bc749a886a18af078dfa5b45cfb2b2a",
    ("affine", "both", "text"): "61ddc813661da6bfec5aec0d4eea7b9c51e2d90e643557fdba57e358a1b1e5c6",
    ("affine", "both", "json"): "35849b75445d9f12d22a474f71b378ef230c037c2edef4ef869e730ec7a7a9c5",
    ("affine", "both", "csv"): "c6eb212f0cad9932beecf77febe3b69ec86d032826cd36174bb10f4048267ca2",
    ("affine", "bruteforce", "text"): "2481c4179c11e05c7b09b2e441f1a9bfe5b941b213b596cc9b75a71b399b04e3",
    ("affine", "bruteforce", "json"): "413c2731f33f67d2441ca8bf16f23acb96d4c82e32505f98f4ae165c5b09435a",
    ("affine", "bruteforce", "csv"): "c6eb212f0cad9932beecf77febe3b69ec86d032826cd36174bb10f4048267ca2",
    ("affine", "formula", "text"): "ffde53dd52d5fd0a1e96179e0ec16ec7b22e2f461ee0fbfa4eea89c1c1e57aa0",
    ("affine", "formula", "json"): "473e4df4b4af305a8d9ca91fa384a33bc649556ef058bff1747ce254ace2ec8a",
    ("affine", "formula", "csv"): "c6eb212f0cad9932beecf77febe3b69ec86d032826cd36174bb10f4048267ca2",
}

REINER_ARGV = ["reiner", "--type", "affC", "--n", "2", "--max-len", "4"]

REINER_SHA = {
    (None, "text"): "420647b3f794b6c8eda41f63eeb1d23233527738d64ff27c2adc877ec36c6d33",
    (None, "json"): "5941ab021800fdc9cd46f2d12d843dba5ee42e6276d1797304c58c4f0548ccc4",
    (None, "csv"): "5938e45d4568f3bd994c6a8f3265be0c01a8c28c229bf415e6c58fcf4f1ae6e4",
    ("a=1,b=q^-1,q=q^2", "text"): "84257c48f9c96857744b52d06b485d52e0e5613332957c232d4021a4b264f27a",
    ("a=1,b=q^-1,q=q^2", "json"): "77d180fc1576b9d4d1f4fbd1e436ed4fe3c2cc85f5d6aa8579035c6af0c65040",
    ("a=1,b=q^-1,q=q^2", "csv"): "5938e45d4568f3bd994c6a8f3265be0c01a8c28c229bf415e6c58fcf4f1ae6e4",
}

MISMATCH_SHA = {
    ("series", "text"): "44ca42f2177f93d17759f7fcc96670f530bd645f95cd587cb1ea4ac41f4c002d",
    ("series", "json"): "5e78b1022168f6d83709d8ee3c66b0995f31a3bf97d731b3c500c39cf0bd7103",
    ("series", "csv"): "3349fee381751547246952f0e6267a602bc749a886a18af078dfa5b45cfb2b2a",
    ("reiner", "text"): "18751fad2f5ac3ed81176a249c514ea13574f21d133e74302a53e0f58098b6f7",
    ("reiner", "json"): "abdfc7e357364997f94112ba437eabf306e6189dd52d153599e810998db6dfe6",
    ("reiner", "csv"): "50d5c78cc1c8243f8c64915b1900dc7244a2645c87225e09183499dc9992f758",
}

# every rank-2 shape: a finite and an infinite dihedral group, and a
# dihedral source folded into A2 and into A3
DOT_SHA = {
    ("--group", "I2(5)"): "354ea621f31ca2afb19a7e1893c6197c59f7c272fe36385a320d2c9750eeff43",
    ("--group", "affine-A1", "--max-len", "5"):
        "3848bc1de212a5b60739e56f887ca87c2c47895fcf1737e868597dfcc6f9c207",
    ("--group", "A2", "--folding", "I2-An", "--n", "2"):
        "ea1504530d1652023fa23d90d334af3dc67151cd764c4b8e35c175871c24c1bd",
    ("--group", "A3", "--folding", "B2"):
        "37a023c2873c23d982e718f8271191a8d33076b3d82d877bdd16c00fdeeddfee",
}


def stdout_sha(capsys, argv):
    code = coxfold.cli.main(argv)
    captured = capsys.readouterr()
    assert captured.err == ""
    return hashlib.sha256(captured.out.encode()).hexdigest(), code


@pytest.mark.parametrize("kind, source, fmt", list(SERIES_SHA))
def test_series_bytes(capsys, kind, source, fmt):
    argv = ["series", *SERIES_FAMILIES[kind], "--source", source, "--format", fmt]
    assert stdout_sha(capsys, argv) == (SERIES_SHA[kind, source, fmt], 0)


@pytest.mark.parametrize("subst, fmt", list(REINER_SHA))
def test_reiner_bytes(capsys, subst, fmt):
    argv = [*REINER_ARGV, "--format", fmt]
    if subst is not None:
        argv += ["--subst", subst]
    assert stdout_sha(capsys, argv) == (REINER_SHA[subst, fmt], 0)


@pytest.mark.parametrize("command, fmt", list(MISMATCH_SHA))
def test_mismatch_bytes_exit_one(capsys, monkeypatch, command, fmt):
    if command == "series":
        other = FamilyId("Bn-A2n", 3)
        monkeypatch.setattr(
            coxfold.cli, "unfolding_closed_form",
            lambda family, L, route: unfolding_closed_form(other, L, route),
        )
        argv = ["series", *SERIES_FAMILIES["finite"]]
    else:
        monkeypatch.setattr(
            coxfold.cli, "reiner_distribution",
            lambda kind, n, L: reiner_distribution("affB", n + 1, L),
        )
        argv = [*REINER_ARGV, "--subst", "a=q"]
    assert stdout_sha(capsys, argv + ["--format", fmt]) == (MISMATCH_SHA[command, fmt], 1)


@pytest.mark.parametrize("args", list(DOT_SHA), ids=" ".join)
def test_rank2_dot_bytes(capsys, args):
    assert stdout_sha(capsys, ["bruhat-dot", *args]) == (DOT_SHA[args], 0)


def test_failing_source_label_search_is_bounded(capsys, monkeypatch):
    # B3 folds into no A81; the search must not build every (n, m) up to the rank
    calls = []
    for name, row in list(coxfold.folding._FAMILIES.items()):
        def counted(n, m, build=row.build):
            calls.append((n, m))
            return build(n, m)

        monkeypatch.setitem(coxfold.folding._FAMILIES, name, row._replace(build=counted))
    code = coxfold.cli.main(["bruhat-dot", "--group", "A81", "--max-len", "1", "--folding", "B3"])
    err = capsys.readouterr().err
    assert code == 2 and "no registered folding" in err
    assert len(calls) <= 1400


def test_source_label_at_n_equal_to_rank(capsys):
    # I2(n+1) folds into A_n, the one registered folding whose n is its target's rank
    argv = ["bruhat-dot", "--group", "A3", "--folding"]
    assert coxfold.cli.main(argv + ["I2(4)"]) == 0
    by_label = capsys.readouterr().out
    assert coxfold.cli.main(argv + ["I2-An", "--n", "3"]) == 0
    assert capsys.readouterr().out == by_label and "color=red" in by_label
