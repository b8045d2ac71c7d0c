"""grayspace benchmark: codec latency, streaming throughput, CLI wall time.

Run from the repository root:

    python3 perfbench/run.py --workload cli --seed 1 --seconds 20 --trace 0

`--workload all` runs the four workloads in turn.  With `--trace 0` a
run times set-up, then runs a closed loop of ops for `--seconds` seconds.
It prints a report: every named end-to-end metric with unit and sample
count, the interpreter, platform, CPU count, commit and seed.  The last
line is one JSON object with the gated metrics `setup_s` and `item_ms`.
Every time is scaled to a reference machine speed by the speed gauge in
workloads.py.  With `--trace 1` a fixed, seeded list of ops runs with
every public grayspace function wrapped (see spans.py), then untraced
ops fill the rest of the time.  The last line then holds the per-layer
metrics named in layers.json, and the spans are written under
`.perfbench/`.

Every op's output is checked; an exception or a wrong output counts as a
failed op and makes `correct` false.  The exit code is 0 when the run
completed, whether or not every op was correct, and 2 when the grayspace
sources are missing or the arguments are invalid.
"""

from __future__ import annotations

import argparse
import copy
import importlib
import json
import os
import platform
import random
import shutil
import statistics
import sys
import traceback
from time import perf_counter
from types import SimpleNamespace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench")

sys.path.insert(0, HERE)
import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 15      # set-ups before the first op
SETUP_INTERVAL = 0.5    # then one more between ops every this many seconds
STARTUP_REPEATS = 5
MAX_PROBLEMS_SHOWN = 5


def load_layers():
    with open(os.path.join(HERE, "layers.json")) as f:
        return json.load(f)["per_layer"]


def fresh_import():
    """Import every traced grayspace module anew, dropping cached copies."""
    for name in list(sys.modules):
        if name.split(".")[0] == "grayspace":
            del sys.modules[name]
    return SimpleNamespace(**{m: importlib.import_module("grayspace." + m)
                              for m in spans.MODULES})


def git_commit():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Runner:
    """Runs ops of one workload, checking each, and tallies the results."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, op, output, error=None):
        units = self.wl.units
        self.attempted += units
        if error is not None:
            problems = [error]
        else:
            try:
                problems = self.wl.check(op, output)
            except Exception:
                problems = ["check raised:\n" + traceback.format_exc()]
        self.failed += min(units, len(problems))
        self.problems.extend(problems)
        return not problems

    def attempt(self, op, in_process):
        """Run one op; (timings, output, error text or None)."""
        try:
            timings, output = self.wl.run(op, in_process)
        except Exception:
            return None, None, "op raised:\n" + traceback.format_exc()
        return timings, output, None

    def loop(self, ops, seconds, in_process, minimum=1, between=None):
        """Closed loop until `seconds` have passed; timings of correct ops.

        `between`, if given, is called after every op.
        """
        records = []
        start = perf_counter()
        done = 0
        while done < minimum or perf_counter() - start < seconds:
            op = next(ops)
            timings, output, error = self.attempt(op, in_process)
            if self.record(op, output, error):
                records.append(timings)
            done += 1
            if between is not None:
                between()
        return records


def time_setup(wl, keep):
    """One timed set-up: import grayspace afresh and build the workload.

    With keep=False the set-up is done on a copy of the workload and the
    modules in use are put back afterwards, so a set-up can be timed
    between ops without changing what the ops run.
    """
    saved = {name: module for name, module in sys.modules.items()
             if name.split(".")[0] == "grayspace"}
    scale = wl.gauge.scale()
    t0 = perf_counter()
    gs = fresh_import()
    (wl if keep else copy.copy(wl)).build(gs)
    elapsed = (perf_counter() - t0) * scale
    if not keep:
        sys.modules.update(saved)
    return gs, elapsed


def run_plain(wl, args, ops, runner, setup_times):
    """Untraced run: the end-to-end metrics.

    Set-up is timed again between ops every SETUP_INTERVAL seconds, so its
    median covers the whole run and not only the first moments of it.
    """
    last = perf_counter()

    def between():
        nonlocal last
        if perf_counter() - last >= SETUP_INTERVAL:
            setup_times.append(time_setup(wl, keep=False)[1])
            last = perf_counter()

    records = runner.loop(ops, args.seconds, in_process=False,
                          between=between)
    if not records:
        return {}, {}
    return wl.summarize(records)


def layer_value(name, tracer, ops, extra):
    if name in extra:
        return extra[name]
    fn, stat = name.rsplit(".", 1)
    if fn.startswith("field."):
        return tracer.field_calls[fn.split(".", 1)[1]] / ops
    if stat == "calls":
        return tracer.calls[fn] / ops
    if stat == "self_s":
        return tracer.self_s[fn] / ops
    if stat == "total_s":
        return tracer.total_s[fn] / ops
    raise ValueError("no rule for per-layer metric %r" % name)


def run_traced(wl, args, gs, ops, runner, layers):
    """Traced run of a fixed op list, then untraced ops for the overhead."""
    lru = gs.qcombin.gaussian_product_tree
    lru.cache_clear()
    tracer = spans.Tracer()
    tracer.install(vars(gs))
    for ctx in wl.contexts():
        tracer.count_field(ctx)
    traced = []
    t_start = perf_counter()
    try:
        for i in range(wl.traced_ops):
            tracer.op = i
            op = next(ops)
            traced.append((op,) + runner.attempt(op, True))
    finally:
        tracer.uninstall()
    info = lru.cache_info()
    traced_records = [timings for op, timings, output, error in traced
                      if runner.record(op, output, error)]
    remaining = args.seconds - (perf_counter() - t_start)
    plain_records = runner.loop(ops, remaining, in_process=True)

    ccl = "grassmann_gray.closing_class_index"
    extra = {
        "qcombin.gaussian_product_tree.hit_ratio":
            info.hits / (info.hits + info.misses)
            if info.hits + info.misses else 0.0,
        ccl + ".contains_per_call":
            tracer.child_calls[(ccl, "linalg.contains")] / tracer.calls[ccl]
            if tracer.calls[ccl] else 0.0,
        ccl + ".share_of_decode":
            tracer.under[("codec.decode", ccl)]
            / tracer.total_s["codec.decode"]
            if tracer.total_s["codec.decode"] else 0.0,
        "cli.startup_s":
            wl.startup_s(STARTUP_REPEATS) if wl.kind == "cli" else 0.0,
        "trace.overhead_ms": 0.0,
    }
    if traced_records and plain_records:
        with_trace = wl.summarize(traced_records)[1]["item_ms"]["value"]
        without = wl.summarize(plain_records)[1]["item_ms"]["value"]
        extra["trace.overhead_ms"] = with_trace - without
    n_ops = max(1, len(traced))
    metrics = {layer["name"]: {"value": layer_value(layer["name"], tracer,
                                                    n_ops, extra),
                               "unit": layer["unit"]}
               for layer in layers}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "spans-%s-seed%d.csv" % (wl.name, args.seed))
    tracer.write_spans(path)
    notes = {"traced_ops": len(traced), "spans_stored": len(tracer.spans),
             "spans_dropped": tracer.dropped,
             "spans_file": os.path.relpath(path, ROOT),
             "untraced_ops": len(plain_records)}
    return metrics, notes


def run_workload(name, args, layers):
    workdir = os.path.join(OUT_DIR, "tmp-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        gauge = workloads.Gauge()
        wl = workloads.make(name, ROOT, workdir, gauge, smoke=args.smoke)
        if args.smoke:
            wl.traced_ops = min(wl.traced_ops, 2)
        setup_times = []
        for _ in range(1 if args.smoke or args.trace else SETUP_REPEATS):
            gs, elapsed = time_setup(wl, keep=True)
            setup_times.append(elapsed)
        runner = Runner(wl)
        ops = wl.ops(random.Random(args.seed))
        if args.trace:
            metrics, notes = run_traced(wl, args, gs, ops, runner, layers)
            named = {}
        else:
            named, gated = run_plain(wl, args, ops, runner, setup_times)
            setup = workloads.metric(statistics.median(setup_times), "s",
                                     len(setup_times))
            named = {"setup_s": setup, **named}
            if runner.attempted:
                named["error_rate"] = workloads.metric(
                    runner.failed / runner.attempted, "1", runner.attempted)
            metrics = {"setup_s": setup, **gated}
            notes = {}
        notes["gauge_ms_median"] = statistics.median(gauge.samples) * 1e3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"workload": name, "attempted": runner.attempted,
            "failed": runner.failed, "problems": runner.problems,
            "named": named, "metrics": metrics, "notes": notes}


def fmt(value):
    return "n/a" if value is None else "%.6g" % value


def print_report(result, env):
    print("== %s  seed=%s  trace=%s  %s %s  %s  nproc=%s  commit=%s" % (
        result["workload"], env["seed"], env["trace"], env["implementation"],
        env["python"], env["platform"], env["nproc"], env["commit"][:12]))
    print("   attempted=%d failed=%d"
          % (result["attempted"], result["failed"]))
    rows = dict(result["named"])
    rows.update({k: v for k, v in result["metrics"].items() if k not in rows})
    for key, m in rows.items():
        samples = m.get("samples")
        print("   %-48s %14s %-9s %s" % (key, fmt(m["value"]), m["unit"],
                                         "" if samples is None
                                         else "n=%d" % samples))
    for key, value in result["notes"].items():
        print("   %-48s %s" % (key, value))
    for problem in result["problems"][:MAX_PROBLEMS_SHOWN]:
        print("FAILED: " + problem, file=sys.stderr)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="shrink set-up repeats, traced ops and the stream "
                         "code, for the benchmark's own test")
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "grayspace", "cli.py")):
        print("error: grayspace sources not found under %s"
              % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    layers = load_layers()
    env = environment(args)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = run_workload(name, args, layers)
        print_report(result, env)
        results.append(result)
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, "result-%s.json" % tag), "w") as f:
        json.dump({"environment": env, "results": results}, f, indent=1)
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {"%s.%s" % (r["workload"], k): v for r in results
                   for k, v in r["metrics"].items()}
    line = {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                        for k, v in metrics.items()}}
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
