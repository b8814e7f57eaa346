import json
import re

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


@pytest.mark.parametrize(
    "argv",
    [
        ["series", "--family", "Bn-A2n-1", "--n", "2"],
        ["verify", "--family", "I2-An"],
        ["reiner", "--type", "affB", "--n", "3", "--max-len", "2"],
        ["bruhat-dot", "--group", "A2"],
    ],
)
@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_is_usage_error(capsys, argv, workers):
    assert_usage_error(*run(capsys, *argv, "--workers", workers), "--workers")


@pytest.mark.parametrize(
    "argv, word",
    [
        (["bruhat-dot", "--group", "Ax"], "'Ax'"),
        (["bruhat-dot", "--group", "affine-Cx", "--max-len", "2"], "'affine-Cx'"),
        (["bruhat-dot", "--group", "I2(x)"], "'I2(x)'"),
        (["bruhat-dot", "--group", "I2()"], "'I2()'"),
        (["bruhat-dot", "--group", "A1.5"], "'A1.5'"),
        (["reiner", "--type", "affB", "--n", "3", "--max-len", "4", "--subst", "a=q^x"], "'q^x'"),
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

    def test_target_mismatch(self, capsys):
        code, _, err = run(
            capsys, "bruhat-dot", "--group", "A4", "--folding", "Bn-A2n-1", "--n", "2"
        )
        assert code == 2

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
