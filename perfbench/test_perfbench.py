"""Smoke test of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

Runs every workload briefly (`--smoke`), untraced and traced, and checks
that every metric named in BENCHMARK.json is emitted, that every op was
correct, that traced call counts repeat exactly for a fixed seed, and that
the correctness gate rejects deliberately wrong outputs.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


CODEC_NAMED = {"%s_ms_%s" % (phase, stat)
               for phase in ("encode", "decode", "decode_fast")
               for stat in ("p50", "p90")}
REPORTED = {
    "codec-q2-deep": CODEC_NAMED,
    "codec-wide-q": CODEC_NAMED,
    "stream-verify": {"stream_items_per_s", "verify_items_per_s"},
    "cli": {"cli_encode_s", "cli_decode_s", "cli_gen_s", "cli_verify_s",
            "cli_gen_seeded_s", "cli_proj_s"},
}


def bench_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def smoke(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         "--smoke"], cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def saved_result(workload, seed=3):
    path = os.path.join(run.OUT_DIR, "result-%s-seed%d-trace0.json"
                        % (workload, seed))
    with open(path) as f:
        return json.load(f)


def test_layer_names_match_benchmark_json():
    spec = bench_spec()
    layers = run.load_layers()
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [(m["name"], m["unit"], m["better"]) for m in layers]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    moved = {w for layer in layers for w, _ in layer["moves"]}
    assert moved <= set(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_emits_every_metric(workload):
    spec = bench_spec()
    line = smoke(workload, 0)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in line["metrics"].values())
    named = saved_result(workload)["results"][0]["named"]
    assert set(named) >= {"setup_s", "error_rate"} | REPORTED[workload]
    assert named["error_rate"]["value"] == 0
    assert all(m["samples"] >= 1 for m in named.values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric(workload):
    spec = bench_spec()
    line = smoke(workload, 1)
    assert line["correct"] and line["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == expected


def test_traced_call_counts_repeat_exactly():
    first = smoke("codec-wide-q", 1, seed=11)["metrics"]
    second = smoke("codec-wide-q", 1, seed=11)["metrics"]
    counts = [k for k in first if k.endswith(".calls")]
    assert counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert first["linalg.reduce_vector.calls"]["value"] > 0


# ---------------------------------------------------------------------------
# The gate is live: wrong outputs count as failures.


@pytest.fixture
def gs():
    return run.fresh_import()


def test_codec_gate_counts_wrong_decode(gs):
    wl = workloads.make("codec-wide-q", ROOT, None, workloads.Gauge())
    wl.build(gs)
    real = gs.codec.decode_fast
    gs.codec.decode_fast = lambda params, sub: real(params, sub) + 1
    try:
        runner = run.Runner(wl)
        runner.loop(wl.ops(random.Random(0)), 0.0, False, minimum=3)
    finally:
        gs.codec.decode_fast = real
    assert runner.attempted == 3 and runner.failed == 3


def test_codec_gate_counts_non_canonical_result(gs):
    wl = workloads.make("codec-q2-deep", ROOT, None, workloads.Gauge())
    wl.build(gs)
    params, m = next(wl.ops(random.Random(0)))
    sub = gs.codec.encode(params, m)
    assert wl.check((params, m), (sub, m, m)) == []
    rows = (tuple(a ^ b for a, b in zip(sub.rows[0], sub.rows[1])),) \
        + sub.rows[1:]
    bad = gs.linalg.CanonicalSubspace(sub.ctx, sub.n, rows, sub.pivots)
    assert wl.check((params, m), (bad, m, m))


def test_stream_gate_counts_short_or_failed_stream(gs):
    wl = workloads.make("stream-verify", ROOT, None, workloads.Gauge(),
                        smoke=True)
    wl.build(gs)
    _, output = wl.run(None)
    assert wl.check(None, output) == []
    count, first, passed, size = output
    assert wl.check(None, (count - 1, first, passed, size))
    assert wl.check(None, (count, first, False, size))


def test_cli_gate_counts_wrong_outputs(gs, tmp_path):
    wl = workloads.make("cli", ROOT, str(tmp_path), workloads.Gauge())
    wl.build(gs)
    op = next(wl.ops(random.Random(0)))
    _, outputs = wl.run(op, in_process=True)
    assert wl.check(op, outputs) == []
    m = op[0]
    for label, bad in (("decode", (0, "%d\n" % (m + 1))),
                       ("verify", (1, "FAIL: 3 duplicate subspaces\n")),
                       ("verify_proj", (0, "PASS: 1 items\n")),
                       ("gen", (2, ""))):
        wrong = dict(outputs, **{label: bad})
        assert len(wl.check(op, wrong)) == 1, label


def test_exception_in_op_counts_as_failure(gs):
    wl = workloads.make("codec-wide-q", ROOT, None, workloads.Gauge())
    wl.build(gs)
    runner = run.Runner(wl)
    params, _ = next(wl.ops(random.Random(0)))
    runner.record((params, -1), *runner.attempt((params, -1), False)[1:])
    assert runner.attempted == 1 and runner.failed == 1


def test_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "codec-q2-deep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
