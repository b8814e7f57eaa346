#!/usr/bin/env python3
"""The coxfold benchmark.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1> [--smoke]

Every timed sample runs in fresh interpreters that call ``coxfold.cli``
or the public library functions, with ``src`` on PYTHONPATH and
``COXFOLD_CACHE`` removed from the environment; each sample gets its own
cache and output directory under ``.perfbench/``, deleted afterwards.
Load is a closed loop: one client, one command at a time.

With ``--trace 0`` the run repeats samples of the workload for about
``--seconds`` and reports end-to-end medians.  Between samples it runs
``perfbench/ref.py``, a fixed Python loop, and divides each sample's
wall time by the mean of the loops on either side of it: the reported
times are seconds on a host where that loop takes ``REF_S``.

With ``--trace 1`` it instead runs the workload in process twice, once
untraced and once with spans around every layer boundary, plus seeded
probes of each module; it reports the per-layer metrics and the tracing
overhead, and keeps the spans in ``.perfbench/trace-<workload>.json``.

Every output is checked against the sha256 hashes in
``perfbench/golden.json``; a mismatch, a non-zero exit or a failed case
counts as a failed operation and makes the run exit with status 1.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
WORK = ROOT / ".perfbench"
DEADLINE_S = 170.0
# nominal time of the reference loop; normalized times are wall times
# rescaled to a host that runs the loop in this many seconds
REF_S = 0.2

WORKLOADS = ("verify_grid", "formula_high_order", "stretch_exact", "hasse_dot")
LAYERS = ("cli", "verifier", "folding", "coxeter", "closed_forms", "qseries", "dot")
AFFINE_FAMILIES = (
    "affA-affA",
    "affB-affDn+1",
    "affB-affD2n",
    "affB-affD2n+1",
    "affC-affA2n+1",
    "affC-affA2n",
    "affC-affA2n-1",
    "affC-affBn+1",
    "affC-affDn+2",
    "affC-affC2n+1",
    "affC-affC2n",
)

# The paper's grids are fixed; the seed only draws probe operands and the
# order of the commands within a sample.  "smoke" is a seconds-long
# version of every workload for the benchmark's own test.
SIZES = {
    "full": {
        "verify": [],
        "formula": {"ns": [3, 4], "product_L": 500, "substitution_L": 150},
        "stretch": [
            {"family": "Bn-Dn+1", "n": 6, "L": None},
            {"family": "affB-affDn+1", "n": 4, "L": 18},
        ],
        "dot": [
            {"group": "D4", "family": "Bn-Dn+1", "n": 3},
            {"group": "A4", "family": "Bn-A2n", "n": 2},
            {"group": "A5", "family": "Bn-A2n-1", "n": 3, "max_len": 6},
        ],
        "setup_reps": 7,
        "startup_reps": 3,
        "probe": {
            "words": 1000,
            "word_len": 30,
            "enum_group": ["D6", 23040],
            "bytes_group": ["D5", 1920],
            "shortlex": 100,
            "build_labels": [
                "A3", "A5", "A7", "B3", "B4", "B6", "D4", "D5", "D7",
                "affine-A3", "affine-B4", "affine-C3", "affine-D5",
            ],
            "bruteforce_family": ["Bn-Dn+1", 5],
            "product_L": 200,
            "substitution_L": 60,
            "reiner_L": 60,
            "qseries_order": 200,
            "stat_order": 150,
            "reps": 5,
            "stat_reps": 3,
        },
    },
    "smoke": {
        "verify": ["--family", "Bn-A2n-1", "--family", "affC-affA2n-1", "--family", "Poincare-An"],
        "formula": {"ns": [3], "product_L": 40, "substitution_L": 20},
        "stretch": [
            {"family": "Bn-Dn+1", "n": 3, "L": None},
            {"family": "affB-affDn+1", "n": 3, "L": 8},
        ],
        "dot": [{"group": "A3", "family": "Bn-A2n-1", "n": 2}],
        "setup_reps": 2,
        "startup_reps": 1,
        "probe": {
            "words": 20,
            "word_len": 10,
            "enum_group": ["D4", 192],
            "bytes_group": ["A3", 24],
            "shortlex": 10,
            "build_labels": ["A3", "D4", "affine-C2"],
            "bruteforce_family": ["Bn-Dn+1", 3],
            "product_L": 20,
            "substitution_L": 10,
            "reiner_L": 10,
            "qseries_order": 20,
            "stat_order": 15,
            "reps": 1,
            "stat_reps": 1,
        },
    },
}

# names the human-readable lines give to the parts of ``wall_s``: one per
# verify command, or one for the whole sample
COMMAND_TIMES = {"verify_grid": {"cold": "grid_cold_s", "warm": "grid_warm_s", "w2": "grid_w2_s"}}
SAMPLE_TIME = {"formula_high_order": "formula_s", "stretch_exact": "stretch_s", "hasse_dot": "dot_s"}


# ---------------------------------------------------------------------------
# processes


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "COXFOLD_CACHE"}
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


class Runner:
    """Starts one child at a time and measures its wall time and peak RSS."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.env = child_env()

    def run(self, argv, stdout_path: Path):
        """Return (exit code, wall seconds, peak RSS in MB) of one child."""
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(stdout_path, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *argv],
                cwd=ROOT,
                env=self.env,
                stdin=subprocess.DEVNULL,
                stdout=out,
                stderr=subprocess.STDOUT,
            )
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - t0
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
                killer.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, wall, usage.ru_maxrss / 1024

    def ref(self, tmp: Path) -> float:
        """Wall seconds of one reference loop in a fresh interpreter."""
        out_path = tmp / "ref-out.txt"
        code, _, _ = self.run([str(BENCH / "ref.py")], out_path)
        if code != 0:
            raise RuntimeError(f"reference loop failed with exit code {code}")
        return float(out_path.read_text().split()[-1])

    def task(self, task: str, spec: dict, tmp: Path):
        """Run a child.py task; return (exit code, wall, RSS, its JSON or None)."""
        spec_path = tmp / f"{task}-spec.json"
        spec_path.write_text(json.dumps(spec))
        out_path = tmp / f"{task}-out.txt"
        code, wall, rss = self.run([str(BENCH / "child.py"), task, str(spec_path)], out_path)
        lines = out_path.read_text().splitlines()
        result = None
        if code == 0 and lines:
            try:
                result = json.loads(lines[-1])
            except ValueError:
                result = None
        return code, wall, rss, result


def file_sha(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# workloads


def make_ops(workload: str, sizes: dict, rng: random.Random, tmp: Path) -> list:
    """The operations of one sample, in the order the seed draws."""
    if workload == "verify_grid":
        extra = list(sizes["verify"])

        def verify(key, cache, workers):
            argv = ["verify", "--cache", str(tmp / cache), "--out", str(tmp / f"{key}.json")]
            argv += ["--workers", str(workers)] + extra
            return {"kind": "cli", "key": key, "argv": argv, "out": str(tmp / f"{key}.json")}

        ops = {
            "cold": verify("cold", "cache-cold", 1),
            "warm": verify("warm", "cache-cold", 1),
            "w2": verify("w2", "cache-w2", 2),
        }
        # the warm run reads what the cold run wrote, so it follows it
        order = rng.choice([("cold", "warm", "w2"), ("cold", "w2", "warm"), ("w2", "cold", "warm")])
        return [ops[key] for key in order]
    if workload == "formula_high_order":
        spec = sizes["formula"]
        ops = []
        for name in AFFINE_FAMILIES:
            m = 2 if name == "affA-affA" else None
            for n in spec["ns"]:
                for route in ("product", "substitution"):
                    L = spec[f"{route}_L"]
                    key = f"{name} n={n}{'' if m is None else f' m={m}'} {route} L={L}"
                    ops.append(
                        {"kind": "formula", "key": key, "family": name, "n": n, "m": m,
                         "route": route, "L": L}
                    )
        rng.shuffle(ops)
        return ops
    if workload == "stretch_exact":
        ops = []
        for case in sizes["stretch"]:
            L = "exact" if case["L"] is None else f"L={case['L']}"
            ops.append({"kind": "stretch", "key": f"{case['family']} n={case['n']} {L}", **case})
        rng.shuffle(ops)
        return ops
    if workload == "hasse_dot":
        ops = []
        for case in sizes["dot"]:
            key = f"{case['group']} {case['family']} n={case['n']}"
            argv = ["bruhat-dot", "--group", case["group"], "--folding", case["family"]]
            argv += ["--n", str(case["n"])]
            if "max_len" in case:
                key += f" max-len={case['max_len']}"
                argv += ["--max-len", str(case["max_len"])]
            out = str(tmp / f"dot-{len(ops)}.dot")
            ops.append({"kind": "cli", "key": key, "argv": argv + ["--out", out], "out": out,
                        "group": case["group"], "family": case["family"], "n": case["n"]})
        rng.shuffle(ops)
        return ops
    raise ValueError(f"unknown workload {workload!r}")


def fresh_dir() -> Path:
    WORK.mkdir(exist_ok=True)
    path = WORK / f"tmp-{os.getpid()}-{time.monotonic_ns()}"
    path.mkdir()
    return path


def judge(results: list, golden) -> list:
    """Mark each op result failed unless it passed and matches its golden."""
    for res in results:
        expected = None if golden is None else golden.get(res["key"])
        res["failed"] = not res["ok"] or (golden is not None and res["sha"] != expected)
    return results


def run_sample(runner: Runner, workload: str, sizes: dict, rng: random.Random, golden) -> dict:
    """One end-to-end sample: every command of the workload in fresh interpreters."""
    tmp = fresh_dir()
    try:
        ops = make_ops(workload, sizes, rng, tmp)
        results, walls, rss = [], [], []
        if ops[0]["kind"] == "cli":
            for op in ops:
                code, wall, peak = runner.run(
                    ["-m", "coxfold.cli", *op["argv"]], tmp / f"{op['key']}.stdout"
                )
                walls.append(wall)
                rss.append(peak)
                results.append(
                    {"key": op["key"], "ok": code == 0, "sha": file_sha(Path(op["out"])),
                     "wall": wall}
                )
        else:
            code, wall, peak, out = runner.task("run", {"ops": ops}, tmp)
            walls.append(wall)
            rss.append(peak)
            for op in ops:
                res = {"key": op["key"], "ok": False, "sha": None, "wall": wall}
                if out is not None:
                    res.update(next(r for r in out["ops"] if r["key"] == op["key"]))
                results.append(res)
        return {"wall": sum(walls), "rss": max(rss), "ops": judge(results, golden)}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


# ---------------------------------------------------------------------------
# traces


def span_metrics(trace: dict) -> tuple:
    """Per-layer metrics and a self-time table from one traced run."""
    spans = trace["spans"]
    covered = [0.0] * len(spans)
    for name, start, end, parent, op, note in spans:
        if parent >= 0:
            covered[parent] += end - start
    self_by_name = defaultdict(float)
    self_by_layer = defaultdict(float)
    total_by_name = defaultdict(float)
    calls = defaultdict(int)
    bruteforce = defaultdict(int)
    distinct = defaultdict(set)
    hits = 0
    for i, (name, start, end, parent, op, note) in enumerate(spans):
        own = (end - start) - covered[i]
        self_by_name[name] += own
        self_by_layer[name.split(".")[0]] += own
        total_by_name[name] += end - start
        calls[name] += 1
        if name == "folding.unfolding_series_bruteforce":
            bruteforce[op] += 1
            distinct[op].add(note)
        hits += note == "hit"
    table = sorted(self_by_name.items(), key=lambda kv: -kv[1])
    gets = calls["verifier.cache_get"]
    metrics = {
        "folding.standard_folding_ms": total_by_name["folding.standard_folding"] * 1000,
        "folding.bruteforce_calls": sum(bruteforce.values()),
        "folding.bruteforce_distinct": sum(len(keys) for keys in distinct.values()),
        "verifier.cache_put_ms": total_by_name["verifier.cache_put"] * 1000,
        "verifier.cache_get_ms": total_by_name["verifier.cache_get"] * 1000,
        "verifier.cache_hit_ratio": hits / gets if gets else 0.0,
        "verifier.report_json_ms": total_by_name["verifier.report_json"] * 1000,
        "verifier.run_job_self_ms": self_by_name["verifier.run_job"] * 1000,
        "dot.covering_relations_s": total_by_name["dot.covering_relations"],
        "dot.bruhat_leq_calls": trace["counts"].get("dot.bruhat_leq", 0),
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_by_layer[layer]
    per_op = {op: (bruteforce[op], len(distinct[op])) for op in bruteforce}
    return metrics, table, calls, per_op, hits, gets


def trace_round(runner: Runner, workload: str, sizes: dict, rng: random.Random, golden, log):
    """Untraced and traced in-process runs, probes and CLI start-up."""
    failed, attempted, walls = 0, 0, {}
    trace = None
    for traced in (False, True):
        tmp = fresh_dir()
        try:
            ops = make_ops(workload, sizes, random.Random(rng.random()), tmp)
            spans_out = WORK / f"trace-{workload}.json"
            spec = {"ops": ops, "trace": traced, "spans_out": str(spans_out)}
            code, _, _, out = runner.task("run", spec, tmp)
            attempted += len(ops)
            if out is None:
                failed += len(ops)
                log(f"in-process run failed with exit code {code}")
                continue
            results = judge(out["ops"], golden)
            failed += sum(r["failed"] for r in results)
            walls[traced] = sum(r["wall"] for r in results)
            if traced:
                trace = json.loads(spans_out.read_text())
        finally:
            shutil.rmtree(tmp, ignore_errors=True)

    metrics: dict = {}
    if trace is not None and len(walls) == 2:
        metrics, table, calls, per_op, hits, gets = span_metrics(trace)
        metrics["trace.overhead_s"] = walls[True] - walls[False]
        log(f"traced wall {walls[True]:.4f} s, untraced {walls[False]:.4f} s, "
            f"overhead {walls[True] - walls[False]:.4f} s")
        log("self time by span (largest first):")
        for name, own in table[:10]:
            log(f"  {name:<42} {own:9.4f} s {100 * own / walls[True]:5.1f}%  calls={calls[name]}")
        for op, (n_calls, n_keys) in sorted(per_op.items()):
            log(f"  brute force in {op!r}: {n_calls} calls, {n_keys} distinct (family,n,m,L)")
        if gets:
            log(f"  cache lookups {gets}, hits {hits}")

    tmp = fresh_dir()
    try:
        code, _, _, out = runner.task(
            "probe", {"seed": rng.randrange(2**31), "sizes": sizes["probe"]}, tmp
        )
        attempted += 1
        if out is None or out["failures"]:
            failed += 1
            log(f"probe failures: {None if out is None else out['failures']} (exit {code})")
        else:
            for name, (value, samples) in out["metrics"].items():
                metrics[name] = value
                log(f"  probe {name} = {value:.6g} over {samples} samples")
        startup = []
        for i in range(sizes["startup_reps"]):
            target = tmp / f"catalog-{i}.json"
            code, wall, _ = runner.run(
                ["-m", "coxfold.cli", "catalog", "--out", str(target)], tmp / "catalog.stdout"
            )
            attempted += 1
            failed += code != 0 or not target.exists()
            startup.append(wall)
        metrics["cli.startup_s"] = statistics.median(startup)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return metrics, attempted, failed


# ---------------------------------------------------------------------------
# command line


def provenance(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "sizes": "smoke" if args.smoke else "full",
        "load": "closed loop, one client, one command at a time",
    }


def repeat(seconds: float, deadline: float, one_round) -> list:
    """Run rounds until the next one would end after ``seconds``; at least one."""
    start = time.monotonic()
    rounds = []
    while True:
        t0 = time.monotonic()
        rounds.append(one_round())
        took = time.monotonic() - t0
        end = time.monotonic() + took
        if end - start > seconds or end > deadline:
            return rounds


def bracketed(runner: Runner, tmp: Path, refs: list, measure):
    """Run ``measure``, then a reference loop; return its result and the
    mean of the loops just before and after it (``refs`` ends with the
    one before)."""
    result = measure()
    refs.append(runner.ref(tmp))
    return result, (refs[-2] + refs[-1]) / 2


def describe(values: list) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.4f} q3={q3:.4f} max={max(values):.4f}"


def run_workload(workload: str, args, spec: dict, sizes: dict, golden: dict, log) -> tuple:
    """Return (metrics with units, attempted, failed) for one workload."""
    deadline = time.monotonic() + DEADLINE_S / (len(WORKLOADS) if args.workload == "all" else 1)
    runner = Runner(deadline)
    rng = random.Random(f"{args.seed}/{workload}")
    golden = golden[workload]

    tmp = fresh_dir()
    try:
        setup_ops = make_ops(workload, sizes, random.Random(0), tmp)
        runner.task("setup", {"ops": setup_ops}, tmp)  # unmeasured: byte-compiles the sources
        if args.trace:
            rounds = repeat(
                args.seconds, deadline,
                lambda: trace_round(runner, workload, sizes, rng, golden, log),
            )
        else:
            refs = [runner.ref(tmp)]
            setups = [
                bracketed(runner, tmp, refs, lambda: runner.task("setup", {"ops": setup_ops}, tmp))
                for _ in range(sizes["setup_reps"])
            ]
            samples = repeat(
                args.seconds, deadline,
                lambda: bracketed(
                    runner, tmp, refs, lambda: run_sample(runner, workload, sizes, rng, golden)
                ),
            )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if args.trace:
        attempted = sum(r[1] for r in rounds)
        failed = sum(r[2] for r in rounds)
        metrics = {}
        for metric in spec["per_layer"]:
            values = [r[0][metric["name"]] for r in rounds if metric["name"] in r[0]]
            value = statistics.median(values) if values else None
            metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        log(f"{workload}: {len(rounds)} traced round(s)")
        return metrics, attempted, failed

    refs_around = [ref for _, ref in samples]
    samples = [s for s, _ in samples]
    attempted = sum(len(s["ops"]) for s in samples) + len(setups)
    failed = sum(r["failed"] for s in samples for r in s["ops"])
    failed += sum(code != 0 for (code, *_), _ in setups)
    values = {
        "wall_norm_s": [s["wall"] * REF_S / ref for s, ref in zip(samples, refs_around)],
        "wall_s": [s["wall"] for s in samples],
        "peak_rss_mb": [s["rss"] for s in samples],
        "setup_s": [wall * REF_S / ref for (_, wall, *_), ref in setups],
        "setup_wall_s": [wall for (_, wall, *_), _ in setups],
        "ref_s": refs,
    }
    for key, name in COMMAND_TIMES.get(workload, {}).items():
        values[name] = [r["wall"] for s in samples for r in s["ops"] if r["key"] == key]
    if workload in SAMPLE_TIME:
        values[SAMPLE_TIME[workload]] = values["wall_s"]
    for res in (r for s in samples for r in s["ops"] if r["failed"]):
        log(f"FAILED {workload} {res['key']}: ok={res['ok']} sha={res['sha']}")
    for name, vals in values.items():
        unit = {"peak_rss_mb": "MB"}.get(name, "s")
        log(f"{workload} {name} {statistics.median(vals):.4f} {unit} ({describe(vals)})")
    log(f"{workload} failed_ratio {failed / attempted:.4f} 1 ({failed} of {attempted})")
    metrics = {
        m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
        for m in spec["end_to_end"]
    }
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small sizes, for the self-test")
    args = parser.parse_args(argv)
    # turn SIGTERM into SystemExit, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "coxfold" / "__init__.py").is_file():
        print(f"error: no coxfold sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden_all = json.loads((BENCH / "golden.json").read_text())
    sizes_name = "smoke" if args.smoke else "full"
    sizes, golden = SIZES[sizes_name], golden_all[sizes_name]

    def log(line):
        print(line, flush=True)

    log("provenance " + json.dumps(provenance(args), sort_keys=True))
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    for workload in workloads:
        got, a, f = run_workload(workload, args, spec, sizes, golden, log)
        attempted += a
        failed += f
        for name, value in got.items():
            metrics[name if len(workloads) == 1 else f"{workload}.{name}"] = value
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
