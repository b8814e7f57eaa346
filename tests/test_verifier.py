import json
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coxfold.errors import CorruptCache, CoxfoldError, InvalidParameters
from coxfold.qseries import QSeries
from coxfold.verifier import (
    VerificationCase,
    VerificationJob,
    cache_get,
    cache_key,
    cache_put,
    default_cases,
    run_job,
)


def case_by(report, family, **params):
    for c in report.cases:
        if c["family"] == family and dict(c["params"]) | params == dict(c["params"]):
            return c
    raise AssertionError(f"no case {family} {params}")


class TestGrid:
    def test_default_grid_covers_everything(self):
        families = {c.family for c in default_cases()}
        assert "Bn-A2n-1" in families and "affC-affC2n" in families
        assert "Cor1.4" in families and "Reiner-affB" in families
        assert "Thm1.5-literal" not in families  # debug tag is opt-in

    def test_restriction(self):
        cases = default_cases(["I2-An"])
        assert {c.family for c in cases} == {"I2-An"}
        assert len(cases) == 6

    def test_empty_job_rejected(self):
        with pytest.raises(CoxfoldError):
            VerificationJob([])

    def test_unknown_family_rejected(self):
        with pytest.raises(InvalidParameters, match="'Thm9.9'"):
            default_cases(["I2-An", "Thm9.9"])


class TestRunJob:
    def test_single_family_passes(self):
        report = run_job(VerificationJob(default_cases(["Bn-A2n-1"])))
        assert report.passed
        for c in report.cases:
            assert c["status"] == "pass"
            assert c["lhs"] == c["rhs"]
            assert c["first_mismatch"] is None
        assert case_by(report, "Bn-A2n-1", n=2)["elements_enumerated"] == 8

    def test_both_routes_present_for_affine(self):
        report = run_job(VerificationJob(default_cases(["affC-affC2n"])))
        routes = {dict(c["params"])["route"] for c in report.cases}
        assert routes == {"product", "substitution"}
        assert report.passed

    def test_literal_tag_reports_failure(self):
        report = run_job(VerificationJob(default_cases(["Thm1.5-literal"])))
        assert not report.passed
        assert report.cases[0]["status"] == "error:NonUnitDivisor"

    @pytest.mark.parametrize(
        "case",
        [
            VerificationCase.make("Bn-A2n-1", None),
            VerificationCase.make("CosetFactor-Lemma3.1", None, part=4, n=2),
            VerificationCase.make("CosetFactor-Lemma3.1", None, part=0, n=2),
            VerificationCase.make("Bott-affA", 14),
            VerificationCase.make("affC-affC2n", None, n=2, route="product"),
            VerificationCase.make("Reiner-affC", None, n=2),
            VerificationCase.make("Bott-affA", -1, n=2),
            VerificationCase.make("affC-affC2n", -1, n=2, route="product"),
            VerificationCase.make("affC-affC2n", -1, n=2, route="substitution"),
            VerificationCase.make("Bn-Dn+1", "5", n=3),
            VerificationCase.make("Poincare-Bn", "5", n=3),
            VerificationCase.make("CosetFactor-Lemma3.1", "5", part=1, n=2),
            VerificationCase.make("Cor1.4", "5", n=3, variant="A2n-1"),
            VerificationCase.make("Cor1.4", -1, n=3, variant="A2n-1"),
            VerificationCase.make("CosetFactor-Lemma3.1", True, part=1, n=2),
            VerificationCase.make("Cor1.4", True, n=3, variant="A2n-1"),
            VerificationCase.make("Poincare-An", n=True),
            VerificationCase.make("CosetFactor-Lemma3.1", part=True, n=2),
            VerificationCase.make("CosetFactor-Lemma3.1", part=1.0, n=2),
            VerificationCase.make("CosetFactor-Lemma3.1", -1, part=1, n=2),
        ],
        ids=[
            "folding-without-n", "coset-part-4", "coset-part-0",
            "histogram-without-n", "affine-folding-without-L", "reiner-without-L",
            "histogram-negative-L", "product-negative-L", "substitution-negative-L",
            "folding-str-L", "histogram-str-L", "coset-str-L", "corollary-str-L",
            "corollary-negative-L", "coset-bool-L", "corollary-bool-L",
            "histogram-bool-n", "coset-bool-part", "coset-float-part", "coset-negative-L",
        ],
    )
    def test_bad_parameters_become_entries(self, case):
        # the runners pass parameters on unchecked and evaluate the formula
        # side first, so the library rejects them before any walk
        report = run_job(VerificationJob([case]))
        assert report.cases[0]["status"] == "error:InvalidParameters"

    @pytest.mark.parametrize(
        "case",
        [
            VerificationCase.make("CosetFactor-Lemma3.1", 1, part=1, n=2),
            VerificationCase.make("Cor1.4", 1, n=3, variant="A2n-1"),
        ],
        ids=["coset", "corollary"],
    )
    def test_every_runner_applies_its_L(self, case):
        # the coset walk and its factor stop at ambient length 1, and the
        # corollary's identity is compared up to q^1
        (entry,) = run_job(VerificationJob([case])).cases
        assert entry["status"] == "pass" and entry["lhs"]["order"] == entry["rhs"]["order"] == 1
        assert entry["lhs"] == entry["rhs"]
        exact = run_job(VerificationJob([VerificationCase(case.family, case.params, None)]))
        assert exact.cases[0]["lhs"]["order"] == "exact"

    @pytest.mark.parametrize("family", ["Poincare-An", "Poincare-Bn"])
    def test_histogram_rows_truncate_both_sides(self, family):
        # the whole-group walk stops at length 2, and so does the product
        (entry,) = run_job(VerificationJob([VerificationCase.make(family, 2, n=3)])).cases
        assert entry["status"] == "pass" and entry["rhs"]["order"] == 2
        assert entry["lhs"] == entry["rhs"]

    def test_resource_limit_becomes_status(self):
        job = VerificationJob(default_cases(["Poincare-An"]), budget=1)
        report = run_job(job)
        assert all(c["status"] == "resource-limit" for c in report.cases)

    def test_mismatch_reporting(self, monkeypatch):
        import coxfold.verifier as verifier

        wrong = QSeries([1, 99, 1])
        monkeypatch.setattr(verifier, "poincare_a", lambda n, m, L: wrong)
        report = run_job(VerificationJob([VerificationCase.make("Poincare-An", None, n=1)]))
        case = report.cases[0]
        assert case["status"] == "coefficient-mismatch"
        assert case["first_mismatch"] == {"at": 1, "lhs": 1, "rhs": 99}

    def test_report_bytes_stable_across_runs(self):
        cases = default_cases(["I2-An", "Reiner-affC"])
        blobs = {run_job(VerificationJob(cases)).to_json() for _ in range(4)}
        assert len(blobs) == 1

    def test_timings_only_on_request(self):
        report = run_job(VerificationJob(default_cases(["I2-An"])))
        plain = json.loads(report.to_json())
        timed = json.loads(report.to_json(include_timings=True))
        assert all(c["millis"] is None for c in plain["cases"])
        assert all(isinstance(c["millis"], int) for c in timed["cases"])

    def test_summary_lines(self):
        report = run_job(VerificationJob(default_cases(["Cor1.4"])))
        lines = list(report.summary_lines())
        assert len(lines) == 3 and all(line.startswith("pass") for line in lines)


class TestCache:
    def test_put_then_get(self, tmp_path):
        series = QSeries([1, 2, 3], 4)
        key = cache_key("demo", (("n", 2),), 4)
        cache_put(tmp_path, key, series)
        assert cache_get(tmp_path, key) == series

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=30),
        st.one_of(st.none(), st.integers(0, 40)),
    )
    def test_round_trip_keeps_coefficients_and_order(self, coeffs, order):
        series = QSeries(coeffs, order)
        key = cache_key("demo", (("n", 3),), order)
        with tempfile.TemporaryDirectory() as cache_dir:
            cache_put(cache_dir, key, series)
            got = cache_get(cache_dir, key)
        assert got == series
        assert (got.coeffs, got.order) == (series.coeffs, series.order)

    def test_entry_name_and_bytes(self, tmp_path):
        # the file name is sha256(key) and the checksum sha256 of the series payload
        path = cache_put(tmp_path, cache_key("demo", (("n", 2),), 4), QSeries([1, 2, 3], 4))
        assert path.name == "5ec6382bf430b15eae3fd58c8f4c1b281d5592fc20b3b5f5e943af7602b666e0.json"
        assert path.read_text() == (
            '{"checksum": "47019bfc32b32cc3411dbfeee2af66da5933b6108a419fa5c7f5c4924dd82019", '
            '"key": "demo|n=2|L=4", "series": {"coeffs": [1, 2, 3, 0, 0], "order": 4}}'
        )

    def test_missing_is_none(self, tmp_path):
        assert cache_get(tmp_path, "absent|n=1|L=2") is None

    def test_tampered_entry_detected(self, tmp_path):
        series = QSeries([1, 2, 3], 4)
        key = cache_key("demo", (("n", 2),), 4)
        path = cache_put(tmp_path, key, series)
        record = json.loads(path.read_text())
        record["series"]["coeffs"][1] = 99
        path.write_text(json.dumps(record))
        with pytest.raises(CorruptCache):
            cache_get(tmp_path, key)
        # an intact entry filed under another key's name is corrupt too
        other = cache_key("demo", (("n", 3),), 4)
        cache_put(tmp_path, other, series).replace(path)
        with pytest.raises(CorruptCache):
            cache_get(tmp_path, key)

    def test_run_job_recomputes_over_corruption(self, tmp_path):
        cases = default_cases(["Bn-A2n-1"])
        run_job(VerificationJob(cases), cache_dir=tmp_path)
        victim = next(tmp_path.glob("*.json"))
        record = json.loads(victim.read_text())
        record["series"]["coeffs"][0] = 77
        victim.write_text(json.dumps(record))
        report = run_job(VerificationJob(cases), cache_dir=tmp_path)
        assert report.passed
        # the corrupted entry was overwritten with a valid one
        restored = json.loads(victim.read_text())
        assert cache_get(tmp_path, restored["key"]) is not None

    def test_cache_hit_equals_recomputation(self, tmp_path):
        cases = default_cases(["affC-affBn+1"])
        cold = run_job(VerificationJob(cases), cache_dir=tmp_path).to_json()
        warm = run_job(VerificationJob(cases), cache_dir=tmp_path).to_json()
        fresh = run_job(VerificationJob(cases)).to_json()
        assert cold == warm == fresh

    def test_atomic_put_replaces_truncated_entry(self, tmp_path):
        series = QSeries([1, 2, 3], 4)
        key = cache_key("demo", (("n", 2),), 4)
        path = cache_put(tmp_path, key, series)
        whole = path.read_text()
        path.write_text(whole[: len(whole) // 2])
        with pytest.raises(CorruptCache):
            cache_get(tmp_path, key)
        assert cache_put(tmp_path, key, series) == path
        assert path.read_text() == whole
        assert cache_get(tmp_path, key) == series
        assert [p.name for p in tmp_path.iterdir()] == [path.name]

    def test_failed_put_keeps_old_entry(self, tmp_path, monkeypatch):
        import coxfold.verifier as verifier

        key = cache_key("demo", (("n", 2),), 4)
        path = cache_put(tmp_path, key, QSeries([1, 2, 3], 4))

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(verifier.os, "replace", crash)
        with pytest.raises(OSError):
            cache_put(tmp_path, key, QSeries([7, 7, 7], 4))
        assert cache_get(tmp_path, key) == QSeries([1, 2, 3], 4)
        assert [p.name for p in tmp_path.iterdir()] == [path.name]


class TestSharedBruteforce:
    @pytest.mark.parametrize("cached", [False, True])
    def test_routes_share_one_enumeration(self, tmp_path, monkeypatch, cached):
        import coxfold.verifier as verifier

        calls = []
        real = verifier.unfolding_series_bruteforce

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(verifier, "unfolding_series_bruteforce", counting)
        cases = [
            VerificationCase.make("affC-affBn+1", 8, n=2, route=route)
            for route in ("product", "substitution")
        ]
        report = run_job(VerificationJob(cases), cache_dir=tmp_path if cached else None)
        assert report.passed and len(report.cases) == 2
        assert report.cases[0]["lhs"] == report.cases[1]["lhs"]
        assert len(calls) == 1
        if cached:
            assert len(list(tmp_path.iterdir())) == 1
