"""The four benchmark workloads, their correctness checks and the speed gauge.

Each workload is a closed loop with one client: the next op starts when
the previous one has finished.  A workload has

- `build(gs)`: the set-up timed as `setup_s` (fields, codec parameters);
- `ops(rng)`: an endless, seeded stream of op inputs;
- `run(op, in_process)`: does one op, returns (timings, output);
- `check(op, output)`: the list of problems found, one per failed unit;
- `units`: how many units (counted in attempted/failed) one op holds;
- `summarize(records)`: the named end-to-end metrics of the report, and
  the gated `item_ms`, the mean time of one item.

`gs` is a namespace holding the grayspace modules imported for this run.
Every time a workload reports is scaled by the speed gauge (see Gauge).
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
from collections import deque
from time import perf_counter

CHUNK = 1000  # stream items per timed chunk


def median(xs):
    return statistics.median(xs)


def p90(xs):
    """90th percentile; None unless at least ten samples lie beyond it."""
    if len(xs) < 100:
        return None
    return statistics.quantiles(xs, n=10, method="inclusive")[8]


def metric(value, unit, samples):
    return {"value": value, "unit": unit, "samples": samples}


def latency_metrics(prefix, seconds):
    """`<prefix>_ms_p50` and `<prefix>_ms_p90` from per-op seconds."""
    ms = [s * 1e3 for s in seconds]
    return {prefix + "_ms_p50": metric(median(ms), "ms", len(ms)),
            prefix + "_ms_p90": metric(p90(ms), "ms", len(ms))}


# ---------------------------------------------------------------------------
# Speed gauge.


def _gauge_loop():
    """Fixed pure-Python work shaped like grayspace's row arithmetic."""
    mul = lambda a, b: (a * b) % 3  # noqa: E731
    sub = lambda a, b: (a - b) % 3  # noqa: E731
    row = [i % 3 for i in range(96)]
    v = [(i * 7) % 3 for i in range(96)]
    seen = {}
    for r in range(100):
        v = [sub(x, mul(2, y)) if y else x for x, y in zip(v, row)]
        seen[tuple(v)] = r
    return len(seen)


class Gauge:
    """Scales measured times to a fixed reference speed of the machine.

    On a shared machine other tenants slow interpreter-bound code by up to
    75% for tens of seconds at a time.  The gauge times `_gauge_loop` just
    before each timed op; a time multiplied by `scale()` is what the op
    would have taken had the loop taken REFERENCE_S.  The scale uses the
    median of the last few loop times.
    """

    REFERENCE_S = 1e-3
    WINDOW = 5

    def __init__(self):
        self.samples = []
        self._recent = deque(maxlen=self.WINDOW)

    def scale(self):
        t0 = perf_counter()
        _gauge_loop()
        elapsed = perf_counter() - t0
        self.samples.append(elapsed)
        self._recent.append(elapsed)
        return self.REFERENCE_S / median(self._recent)


# ---------------------------------------------------------------------------
# Codec: encode, decode and decode_fast of seeded random indices.


class CodecWorkload:
    kind = "codec"
    units = 1

    def __init__(self, name, grid, traced_ops, gauge):
        self.name = name
        self.grid = grid
        self.traced_ops = traced_ops
        self.gauge = gauge

    def build(self, gs):
        self.gs = gs
        self.params = []
        for n, k, q in self.grid:
            params = gs.codec.CodecParams(n, k, gs.field.field_from_order(q))
            self.params.append((params, params.size))

    def contexts(self):
        return [p.ctx for p, _ in self.params]

    def ops(self, rng):
        while True:
            for params, size in self.params:
                yield params, rng.randrange(size)

    def run(self, op, in_process=True):
        codec = self.gs.codec
        params, m = op
        scale = self.gauge.scale()
        t0 = perf_counter()
        sub = codec.encode(params, m)
        t1 = perf_counter()
        slow = codec.decode(params, sub)
        t2 = perf_counter()
        fast = codec.decode_fast(params, sub)
        t3 = perf_counter()
        timings = {"encode": (t1 - t0) * scale, "decode": (t2 - t1) * scale,
                   "decode_fast": (t3 - t2) * scale}
        return timings, (sub, slow, fast)

    def check(self, op, output):
        params, m = op
        sub, slow, fast = output
        if not (slow == m == fast):
            return ["index %d: decode %r, decode_fast %r" % (m, slow, fast)]
        if (sub.n, sub.k) != (params.n, params.k) or \
                self.gs.linalg.canonicalize(sub.rows, sub.n, sub.ctx) != sub:
            return ["index %d: encode result is not canonical" % m]
        return []

    def summarize(self, records):
        out = {}
        for phase in ("encode", "decode", "decode_fast"):
            out.update(latency_metrics(phase, [t[phase] for t in records]))
        totals = [sum(t.values()) for t in records]
        gated = {"item_ms": metric(statistics.fmean(totals) * 1e3, "ms",
                                   len(totals))}
        return out, gated


# ---------------------------------------------------------------------------
# Streaming: drain iter_simple, then feed a fresh iter_simple to
# verify_gray_stream.  One op is one full pass over the code.


def _timed_chunks(items, out, gauge):
    """Pass items through, appending scaled seconds per CHUNK items.

    The gauge runs between chunks, outside the timed spans.
    """
    count = 0
    scale = gauge.scale()
    start = perf_counter()
    for item in items:
        yield item
        count += 1
        if count == CHUNK:
            out.append((perf_counter() - start) * scale)
            count = 0
            scale = gauge.scale()
            start = perf_counter()
    out.append((perf_counter() - start) * scale)


class StreamWorkload:
    kind = "stream"
    name = "stream-verify"
    units = 2
    traced_ops = 1

    def __init__(self, gauge, n=8, k=4, q=2):
        self.gauge = gauge
        self.nkq = (n, k, q)

    def build(self, gs):
        self.gs = gs
        n, k, q = self.nkq
        self.ctx = gs.field.field_from_order(q)
        self.size = gs.qcombin.gaussian(n, k, q)
        self.simple = gs.linalg.simple_subspace(n, k, self.ctx)

    def contexts(self):
        return [self.ctx]

    def ops(self, rng):
        # the input is the whole code, so the seed picks nothing here
        while True:
            yield None

    def run(self, op, in_process=True):
        gg = self.gs.grassmann_gray
        n, k, _ = self.nkq
        drain, verify = [], []
        count = 0
        first = None
        for item in _timed_chunks(gg.iter_simple(n, k, self.ctx), drain,
                                  self.gauge):
            if first is None:
                first = item
            count += 1
        report = gg.verify_gray_stream(
            _timed_chunks(gg.iter_simple(n, k, self.ctx), verify, self.gauge),
            n, k, self.ctx)
        timings = {"drain": sum(drain), "verify": sum(verify)}
        return timings, (count, first, report.passed, report.size)

    def check(self, op, output):
        count, first, passed, size = output
        problems = []
        if count != self.size or first != self.simple:
            problems.append("iter_simple gave %d items (expected %d), first "
                            "simple: %s" % (count, self.size,
                                            first == self.simple))
        if not passed or size != self.size:
            problems.append("verify_gray_stream: passed=%s size=%d "
                            "(expected %d)" % (passed, size, self.size))
        return problems

    def summarize(self, records):
        drain_s = sum(t["drain"] for t in records)
        verify_s = sum(t["verify"] for t in records)
        items = self.size * len(records)
        out = {
            "stream_items_per_s": metric(items / drain_s, "1/s", len(records)),
            "verify_items_per_s": metric(items / verify_s, "1/s",
                                         len(records)),
        }
        gated = {"item_ms": metric((drain_s + verify_s) / items * 1e3, "ms",
                                   len(records))}
        return out, gated


# ---------------------------------------------------------------------------
# CLI: one op is a session of eight sequential invocations.


class CliWorkload:
    kind = "cli"
    name = "cli"
    units = 8
    traced_ops = 1
    CODEC = (128, 32, 2)
    GEN = (7, 3, 2)
    PROJ = (5, 3)

    def __init__(self, root, workdir, gauge):
        self.root = root
        self.workdir = workdir
        self.gauge = gauge

    def build(self, gs):
        self.gs = gs
        n, k, q = self.CODEC
        ctx = gs.field.parse_field_spec(str(q))
        self.params = gs.codec.CodecParams(n, k, ctx)
        self.codec_size = self.params.size
        gn, gk, gq = self.GEN
        self.gen_size = gs.qcombin.gaussian(gn, gk, gq)
        pn, pq = self.PROJ
        self.proj_size = sum(gs.qcombin.gaussian(pn, i, pq)
                             for i in range(pn + 1))

    def contexts(self):
        return [self.params.ctx]

    def ops(self, rng):
        while True:
            yield rng.randrange(self.codec_size), rng.randrange(2 ** 31)

    def commands(self, op):
        """(label, argv) of one session, in order."""
        m, seed = op
        n, k, q = (str(x) for x in self.CODEC)
        gn, gk, gq = (str(x) for x in self.GEN)
        pn, pq = (str(x) for x in self.PROJ)
        return [
            ("encode", ["encode", "--n", n, "--k", k, "--q", q,
                        "--index", str(m)]),
            ("decode", ["decode", "--n", n, "--k", k, "--q", q,
                        "--input", "m.txt", "--fast"]),
            ("gen", ["gen", "--n", gn, "--k", gk, "--q", gq,
                     "--out", "simple.gray"]),
            ("verify", ["verify", "simple.gray"]),
            ("gen_seeded", ["gen", "--n", gn, "--k", gk, "--q", gq,
                            "--seed", str(seed), "--out", "seeded.gray"]),
            ("verify_seeded", ["verify", "seeded.gray"]),
            ("proj", ["proj", "--n", pn, "--q", pq, "--out", "code.proj"]),
            ("verify_proj", ["verify", "code.proj"]),
        ]

    def _invoke(self, argv, in_process):
        if in_process:
            out = io.StringIO()
            cwd = os.getcwd()
            os.chdir(self.workdir)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = self.gs.cli.main(argv)
            finally:
                os.chdir(cwd)
            return code, out.getvalue()
        env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        proc = subprocess.run([sys.executable, "-m", "grayspace.cli"] + argv,
                              cwd=self.workdir, env=env, capture_output=True,
                              text=True, timeout=120)
        return proc.returncode, proc.stdout

    def _timed_invoke(self, argv, in_process):
        scale = self.gauge.scale()
        t0 = perf_counter()
        code, text = self._invoke(argv, in_process)
        return (perf_counter() - t0) * scale, code, text

    def run(self, op, in_process=False):
        timings, outputs = {}, {}
        for label, argv in self.commands(op):
            timings[label], code, text = self._timed_invoke(argv, in_process)
            outputs[label] = (code, text)
            if label == "encode":
                with open(os.path.join(self.workdir, "m.txt"), "w") as f:
                    f.write(text)
        return timings, outputs

    def startup_s(self, repeats):
        """Median time of a subprocess that does next to nothing."""
        argv = ["count", "--n", "1", "--k", "0", "--q", "2"]
        return median([self._timed_invoke(argv, False)[0]
                       for _ in range(repeats)])

    def check(self, op, outputs):
        m, _ = op
        expected = {
            "encode": self.gs.linalg.format_subspace(
                self.gs.codec.encode(self.params, m)).strip(),
            "decode": str(m),
            "verify": "PASS: %d items" % self.gen_size,
            "verify_seeded": "PASS: %d items" % self.gen_size,
            "verify_proj": "PASS: %d items" % self.proj_size,
        }
        problems = []
        for label, (code, text) in outputs.items():
            want = expected.get(label)
            if code != 0:
                problems.append("%s exited %r" % (label, code))
            elif want is not None and text.strip() != want:
                problems.append("%s printed %r, expected %r"
                                % (label, text.strip()[:80], want[:80]))
        return problems

    def summarize(self, records):
        out = {}
        for label, _ in self.commands((0, 0)):
            times = [t[label] for t in records]
            out["cli_%s_s" % label] = metric(median(times), "s", len(times))
        invocations = [s for t in records for s in t.values()]
        gated = {"item_ms": metric(statistics.fmean(invocations) * 1e3, "ms",
                                   len(invocations))}
        return out, gated


def make(name, root, workdir, gauge, smoke=False):
    if name == "codec-q2-deep":
        return CodecWorkload(name, [(128, 32, 2)], 12, gauge)
    if name == "codec-wide-q":
        return CodecWorkload(name, [(256, 4, 3), (192, 6, 4), (128, 4, 8)],
                             30, gauge)
    if name == "stream-verify":
        return StreamWorkload(gauge, 6, 3, 2) if smoke \
            else StreamWorkload(gauge)
    if name == "cli":
        return CliWorkload(root, workdir, gauge)
    raise ValueError("unknown workload %r" % name)


WORKLOADS = ("codec-q2-deep", "codec-wide-q", "stream-verify", "cli")
