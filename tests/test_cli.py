import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from coxfold.cli import main
from coxfold.qseries import QSeries, StatSeries


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_usage_error(code, out, err, word):
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1 and word in err


# every subcommand that takes --workers and --budget
BUDGETED_COMMANDS = [
    ["series", "--family", "Bn-A2n-1", "--n", "2"],
    ["verify", "--family", "I2-An"],
    ["reiner", "--type", "affB", "--n", "3", "--max-len", "2"],
    ["bruhat-dot", "--group", "A2"],
]


@pytest.mark.parametrize("argv", BUDGETED_COMMANDS)
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_is_usage_error(capsys, argv, workers):
    assert_usage_error(*run(capsys, *argv, "--workers", workers), "--workers")


@pytest.mark.parametrize("argv", BUDGETED_COMMANDS)
@pytest.mark.parametrize("budget", ["0", "-3"])
def test_nonpositive_budget_is_usage_error(capsys, argv, budget):
    # every walk stores the identity first, so no budget below 1 can be met
    assert_usage_error(*run(capsys, *argv, "--budget", budget), "--budget")


@pytest.mark.parametrize(
    "argv, word",
    [
        (["bruhat-dot", "--group", "Ax"], "'Ax'"),
        (["bruhat-dot", "--group", "affine-Cx", "--max-len", "2"], "'affine-Cx'"),
        (["bruhat-dot", "--group", "I2(x)"], "'I2(x)'"),
        (["bruhat-dot", "--group", "I2()"], "'I2()'"),
        (["bruhat-dot", "--group", "A1.5"], "'A1.5'"),
        (["reiner", "--type", "affB", "--n", "3", "--max-len", "4", "--subst", "a=q^x"], "'q^x'"),
        # checked by the library, not by the command line
        (["series", "--family", "Bn-A2n-1"], "n >= 2"),
        (["series", "--family", "Zn-Z2n", "--n", "2"], "'Zn-Z2n'"),
        (["verify", "--family", "nope"], "nope"),
        (["verify", "--family", "I2-An", "--n", "77"], "empty"),
        (["reiner", "--type", "affD", "--n", "3", "--max-len", "2"], "'affD'"),
        (["bruhat-dot", "--group", "A3", "--folding", "Bn-A2n-1"], "n >= 2"),
    ],
)
def test_malformed_input_is_usage_error(capsys, argv, word):
    # an uncaught exception would end the real CLI in a traceback with exit 1
    assert_usage_error(*run(capsys, *argv), word)


class TestSeries:
    def test_both_sources_match(self, capsys):
        code, out, _ = run(
            capsys, "series", "--family", "Bn-A2n-1", "--n", "2", "--source", "both"
        )
        assert code == 0
        assert "match: PASS" in out
        assert "1 + q + q^2 + 2q^3 + q^4 + q^5 + q^6" in out

    def test_cutoff_zero(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--family", "affA-affA", "--n", "2", "--m", "2", "--max-len", "0",
        )
        assert code == 0
        assert out.splitlines()[0].endswith("1")

    def test_json_roundtrip(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--family", "affC-affC2n", "--n", "2", "--max-len", "12",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        series = QSeries.from_json(payload["bruteforce"])
        assert len(payload["bruteforce"]["coeffs"]) == 13
        assert payload["match"] is True
        assert series == QSeries.from_json(payload["formula"])

    def test_csv_rows(self, capsys):
        code, out, _ = run(
            capsys,
            "series", "--family", "Bn-A2n-1", "--n", "2",
            "--source", "bruteforce", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "degree,coefficient"
        assert lines[1] == "0,1" and lines[4] == "3,2"

    def test_affine_without_cutoff_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "--family", "affA-affA", "--n", "2", "--m", "2")
        assert code == 2 and "max-len" in err

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, err = run(capsys, "series", "--family", "Zn-Z2n", "--n", "2")
        assert code == 2

    def test_negative_cutoff_is_usage_error(self, capsys):
        out = run(capsys, "series", "--family", "Bn-A2n-1", "--n", "2", "--max-len", "-1")
        assert_usage_error(*out, "--max-len")

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "series.json"
        code, out, _ = run(
            capsys,
            "series", "--family", "Bn-A2n", "--n", "2", "--format", "json",
            "--out", str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["match"] is True


class TestVerify:
    def test_restricted_grid_passes(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "verify", "--family", "I2-An", "--out", str(path)
        )
        assert code == 0
        assert "6/6 passed" in out
        report = json.loads(path.read_text())
        assert len(report["cases"]) == 6
        assert all(c["millis"] is None for c in report["cases"])

    def test_literal_debug_family_fails(self, capsys):
        code, out, _ = run(capsys, "verify", "--family", "Thm1.5-literal")
        assert code == 1
        assert "error:NonUnitDivisor" in out

    def test_unknown_family(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "Thm9.9")
        assert code == 2

    def test_empty_grid(self, capsys):
        code, _, err = run(capsys, "verify", "--family", "I2-An", "--n", "77")
        assert code == 2 and "empty" in err

    def test_report_bytes_stable_across_worker_flag(self, capsys, tmp_path):
        blobs = set()
        for w in ("1", "2", "4"):
            path = tmp_path / f"report{w}.json"
            code, _, _ = run(
                capsys,
                "verify", "--family", "Bn-A2n", "--workers", w, "--out", str(path),
            )
            assert code == 0
            blobs.add(path.read_bytes())
        assert len(blobs) == 1

    def test_cache_flag(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        code, _, _ = run(
            capsys, "verify", "--family", "Bn-A2n-1", "--cache", str(cache)
        )
        assert code == 0
        assert list(cache.glob("*.json"))


class TestReiner:
    def test_match_and_preview_equals_series(self, capsys):
        code, out, _ = run(
            capsys,
            "reiner", "--type", "affB", "--n", "3", "--max-len", "4", "--subst", "a=q",
        )
        assert code == 0 and "match: PASS" in out
        preview = re.search(r"substituted: (.+)", out).group(1)
        code, series_out, _ = run(
            capsys,
            "series", "--family", "affB-affDn+1", "--n", "3", "--max-len", "4",
            "--source", "formula",
        )
        assert preview in series_out

    @pytest.mark.parametrize("subst", ["a=q^-1", "a=q^-1,b=q^-1", "a=0,b=q^-1"])
    def test_preview_that_lowers_degree_is_refused(self, capsys, subst):
        # a term a^i b^j q^k past --max-len can land at or below it
        argv = ("reiner", "--type", "affC", "--n", "2", "--max-len", "3", "--subst", subst)
        assert_usage_error(*run(capsys, *argv), "lower q-degree")

    @pytest.mark.parametrize(
        "kind, subst, preview",
        [
            ("affB", "a=q", "1 + 3q + 6q^2 + 10q^3 + 15q^4 + 22q^5 + 31q^6"),
            # b is unused by affB, so its value cannot lower the degree
            ("affB", "a=q^-1,b=q^-5,q=q^2", "1 + q + 3q^2 + 4q^3 + 6q^4 + 10q^5 + 11q^6"),
            ("affC", "a=1,b=q^-1,q=q^2", "1 + q + 3q^2 + 4q^3 + 6q^4 + 9q^5 + 11q^6"),
            ("affC", "a=0,b=q", "1 + 2q + 3q^2 + 4q^3 + 5q^4 + 6q^5 + 6q^6"),
        ],
    )
    def test_accepted_preview_is_exact(self, capsys, kind, subst, preview):
        # the distribution taken twice as far gives the same coefficients
        previews = []
        for max_len in ("6", "12"):
            argv = ("reiner", "--type", kind, "--n", "3", "--max-len", max_len, "--subst", subst)
            code, out, _ = run(capsys, *argv)
            assert code == 0
            previews.append(re.search(r"substituted: (.+)", out).group(1))
        assert previews[0] == preview and previews[1].startswith(preview + " + ")

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys,
            "reiner", "--type", "affC", "--n", "2", "--max-len", "3", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["match"] is True
        brute = StatSeries.from_json(payload["bruteforce"])
        assert brute == StatSeries.from_json(payload["formula"])

    def test_csv(self, capsys):
        code, out, _ = run(
            capsys,
            "reiner", "--type", "affC", "--n", "2", "--max-len", "1", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines()[0] == "a,b,q,coefficient"

    def test_bad_type(self, capsys):
        code, _, _ = run(capsys, "reiner", "--type", "affZ", "--n", "2", "--max-len", "2")
        assert code == 2

    def test_below_range(self, capsys):
        code, _, _ = run(capsys, "reiner", "--type", "affB", "--n", "2", "--max-len", "2")
        assert code == 2

    def test_negative_cutoff_is_usage_error(self, capsys):
        out = run(capsys, "reiner", "--type", "affB", "--n", "3", "--max-len", "-1")
        assert_usage_error(*out, "--max-len")


class TestBruhatDot:
    def test_rank_one(self, capsys):
        code, out, _ = run(capsys, "bruhat-dot", "--group", "A1")
        assert code == 0
        nodes = re.findall(r'^  "([^"]+)"(?: \[[^\]]*\])?;$', out, re.M)
        edges = re.findall(r'^  "([^"]+)" -> "([^"]+)";$', out, re.M)
        assert nodes == ["e", "s1"]
        assert edges == [("e", "s1")]

    def test_folding_highlight_by_source_label(self, capsys):
        code, out, _ = run(capsys, "bruhat-dot", "--group", "A3", "--folding", "B2")
        assert code == 0
        red = re.findall(r'^  "([^"]+)" \[color=red\];$', out, re.M)
        assert len(red) == 8

    def test_folding_highlight_by_family_name(self, capsys):
        code, out, _ = run(
            capsys,
            "bruhat-dot", "--group", "A3", "--folding", "Bn-A2n-1", "--n", "2",
        )
        assert code == 0
        assert len(re.findall(r"color=red", out)) == 8

    def test_source_label_past_rank_forty(self, capsys):
        # the source-label search runs up to the rank of the drawn group
        argv = ("bruhat-dot", "--group", "A81", "--max-len", "1", "--folding")
        code, by_label, _ = run(capsys, *argv, "B41")
        assert code == 0
        code, by_family, _ = run(capsys, *argv, "Bn-A2n-1", "--n", "41")
        assert code == 0
        assert by_label == by_family and "color=red" in by_label

    def test_source_label_resolves_at_every_m(self, capsys):
        # affine A1 sits in affine A5 through affA-affA at m = 3
        argv = ("bruhat-dot", "--group", "affine-A5", "--max-len", "2", "--folding")
        code, by_label, _ = run(capsys, *argv, "affine-A1")
        assert code == 0
        code, by_family, _ = run(capsys, *argv, "affA-affA", "--n", "2", "--m", "3")
        assert code == 0
        assert by_label == by_family and "color=red" in by_label

    def test_target_mismatch(self, capsys):
        code, _, err = run(
            capsys, "bruhat-dot", "--group", "A4", "--folding", "Bn-A2n-1", "--n", "2"
        )
        assert code == 2

    def test_rank_two_fork_family_targets_a3(self, capsys):
        # Bn-Dn+1 at n = 2 is registered with target A3 (= D3 relabelled)
        argv = ("bruhat-dot", "--folding", "Bn-Dn+1", "--n", "2", "--group")
        code, out, _ = run(capsys, *argv, "A3")
        assert code == 0 and len(re.findall(r"color=red", out)) == 8
        assert_usage_error(*run(capsys, *argv, "D3"), "targets A3")

    def test_deterministic(self, capsys):
        outs = set()
        for _ in range(2):
            _, out, _ = run(capsys, "bruhat-dot", "--group", "A2")
            outs.add(out)
        assert len(outs) == 1

    def test_affine_without_cutoff_is_usage_error(self, capsys):
        assert_usage_error(*run(capsys, "bruhat-dot", "--group", "affine-A2"), "--max-len")

    def test_affine_folding_highlight_within_cutoff(self, capsys):
        # the highlighted source is infinite; the cutoff must bound it too
        code, out, _ = run(
            capsys,
            "bruhat-dot", "--group", "affine-A3", "--folding", "affA-affA",
            "--n", "2", "--m", "2", "--max-len", "2",
        )
        assert code == 0
        red = re.findall(r'^  "([^"]+)" \[color=red\];$', out, re.M)
        assert red == ["e", "s0 s2", "s1 s3"]


class TestCatalog:
    def test_json(self, capsys):
        code, out, _ = run(capsys, "catalog")
        assert code == 0
        entries = json.loads(out)
        assert any(e["tag"] == "Thm1.5" for e in entries)

    def test_text(self, capsys):
        code, out, _ = run(capsys, "catalog", "--format", "text")
        assert code == 0 and "Poincare-An" in out


def assert_one_error_line(code, err, expected_code, word):
    assert code == expected_code
    assert err.startswith("error:") and len(err.splitlines()) == 1 and word in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--family", "Bn-A2n", "--n", "2"],
        ["verify", "--family", "Bn-A2n", "--n", "2"],
    ],
)
def test_unwritable_out_is_usage_error(capsys, tmp_path, argv):
    path = tmp_path / "missing" / "r.json"
    code, _, err = run(capsys, *argv, "--out", str(path))
    assert_one_error_line(code, err, 2, "r.json")


def test_cache_path_that_is_a_file_is_usage_error(capsys, tmp_path):
    path = tmp_path / "cache"
    path.write_text("")
    code, _, err = run(capsys, "verify", "--family", "Bn-A2n", "--n", "2", "--cache", str(path))
    assert_one_error_line(code, err, 2, "cache")


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--family", "affA-affA", "--n", "2", "--m", "2", "--max-len", "4",
         "--budget", "1"],
        ["reiner", "--type", "affC", "--n", "2", "--max-len", "3", "--budget", "2"],
        ["bruhat-dot", "--group", "A3", "--budget", "3"],
    ],
)
def test_budget_exhaustion_exits_one(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert out == ""
    assert_one_error_line(code, err, 1, "element budget exceeded")


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify"], "r.json"),
        (["series", "--family", "Bn-Dn+1", "--n", "3"], "s.txt"),
    ],
)
def test_out_into_missing_directory_fails_before_the_work(capsys, tmp_path, argv, name):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / name))
    assert out == ""
    assert_one_error_line(code, err, 2, name)


def test_out_that_is_a_directory_is_usage_error(capsys, tmp_path):
    code, out, err = run(capsys, "catalog", "--out", str(tmp_path))
    assert out == ""
    assert_one_error_line(code, err, 2, str(tmp_path))


def test_write_time_oserror_exits_two(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise PermissionError("permission denied")

    monkeypatch.setattr("coxfold.cli.open", refuse, raising=False)
    code, _, err = run(capsys, "catalog", "--out", str(tmp_path / "c.json"))
    assert_one_error_line(code, err, 2, "permission denied")


def test_verify_stdout_is_reproducible(capsys):
    argv = ["verify", "--family", "Bn-A2n", "--family", "Poincare-An"]
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first[0] == 0 and first[1] == second[1]
    assert " ms)" not in first[1]
    code, timed, _ = run(capsys, *argv, "--timings")
    lines = timed.splitlines()
    assert code == 0 and len(lines) == len(first[1].splitlines())
    assert all(re.search(r" \(\d+ ms\)$", line) for line in lines[:-1])


def test_import_loads_no_unused_stdlib():
    # every coxfold process pays for what `import coxfold.cli` loads:
    # records are __slots__ classes, hashlib loads on first cache use, and
    # the kernel generator on the first compile
    path = [str(Path(__file__).resolve().parents[1] / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    probe = (
        "import sys, coxfold.cli; "
        "unused = {'dataclasses', 'inspect', 'hashlib', 'coxfold._kernels'}; "
        "print(sorted(unused & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"
