#!/usr/bin/env python3
"""Benchmark driver for the reproduction: see benchmark/README.md.

One run:

    python3 benchmark/run.py --workload regen_cold --seed 1 --seconds 40 --trace 0

builds benchmark/probe.exe from source (into .bench_build), measures the
workload for about --seconds seconds, checks every output against
benchmark/pins.json, prints one line per metric and, as its last line,
one JSON object {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 a separate
traced run publishes the per-layer ones.

Steadiness check (two sets of runs of every workload, compared against
the bounds in BENCHMARK.json):

    python3 benchmark/run.py --steadiness --runs 10 --seconds 40

Each sample is a fresh probe process on the sequential engine at
--jobs 1, so no memo table survives from one sample to the next.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = ".bench_build"
OUT_DIR = os.path.join(ROOT, ".bench_out")
PROBE = os.path.join(ROOT, BUILD_DIR, "default", "benchmark", "probe.exe")
PINS_FILE = os.path.join(HERE, "pins.json")

# Every run ends well inside the 180 s a run may take; a probe that would
# outlive this budget is stopped and counted as failed.
RUN_BUDGET_S = 170.0
# Per-operation deadlines, about twenty times each operation's usual time.
DEADLINE_S = {"regen": 60.0, "sim": 30.0, "layers": 120.0, "calib": 30.0}
# Fewest samples a measured phase takes, however short --seconds is.
MIN_SAMPLES = {"regen_cold": 3, "large_p": 5}

WORKLOADS = ("regen_cold", "large_p")

MB = 1e6
WORD_BYTES = 8


# ---------------------------------------------------------------- stats


def median(values):
    return statistics.median(values)


def quartiles(values):
    """First quartile, median and third quartile, as statistics.quantiles
    gives them (its default, exclusive method); a single value is its
    own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def worse_by(first, second, better):
    """How much worse the second median is than the first, as a share of
    the first (negative when it is better)."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


# ---------------------------------------------------------------- running


class Run:
    """The operations of one run: what was attempted, what failed and why."""

    def __init__(self, workload, budget_s=RUN_BUDGET_S, probe=(PROBE,)):
        self.workload = workload
        self.probe = list(probe)
        self.t_end = time.monotonic() + budget_s
        self.attempted = 0
        self.failures = []

    def remaining(self):
        return self.t_end - time.monotonic()

    def fail(self, phase, what, count=1):
        self.failures.append((phase, what, count))

    @property
    def failed(self):
        return sum(count for _, _, count in self.failures)

    def op(self, phase, args, deadline, check=lambda result: []):
        """Run one probe operation in a fresh process. It fails when it
        raises, when it overruns [deadline] (it is then killed) and when
        [check] finds a wrong output; returns its result, or None when it
        did not finish."""
        self.attempted += 1
        timeout = min(deadline, self.remaining())
        if timeout <= 0:
            self.fail(phase, "not started: the run's %.0f s budget is spent" % RUN_BUDGET_S)
            return None
        spawn_at = time.time()
        try:
            proc = subprocess.run(
                self.probe + args,
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            self.fail(phase, "overran its %.1f s deadline and was stopped" % timeout)
            return None
        exit_at = time.time()
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            err = proc.stderr.strip().splitlines()
            self.fail(phase, "raised: %s" % (err[-1] if err else "exit %d" % proc.returncode))
            return None
        result = json.loads(lines[-1])
        result["spawn_at"] = spawn_at
        result["exit_at"] = exit_at
        problems = check(result)
        if problems:
            self.fail(phase, "; ".join(problems))
        return result

    def report(self):
        for phase, what, count in self.failures:
            print("FAILED %s/%s: %s%s" % (self.workload, phase, what,
                                          "" if count == 1 else " (%d operations)" % count))


def load_pins():
    with open(PINS_FILE) as f:
        return json.load(f)


def check_regen_text(pins, text_md5, item_md5):
    """Problems with one regeneration's text, naming each wrong item."""
    if text_md5 == pins["regen"]["text_md5"]:
        return []
    wrong = sorted(k for k, v in pins["regen"]["item_md5"].items() if item_md5.get(k) != v)
    return ["regenerated text digest %s, pinned %s; wrong items: %s"
            % (text_md5, pins["regen"]["text_md5"], ", ".join(wrong) or "none")]


def check_regen(pins):
    def check(r):
        problems = check_regen_text(pins, r["text_md5"], r["item_md5"])
        if r["events"] != pins["regen"]["events"]:
            problems.append("simulated %d events, pinned %d" % (r["events"], pins["regen"]["events"]))
        return problems
    return check


def check_counts(pinned, counts, what):
    return ["%s %s = %r, pinned %r" % (what, k, counts[k], v)
            for k, v in pinned.items() if counts[k] != v]


def check_sim(pins):
    def check(r):
        p = pins["large_p"]
        problems = check_counts(p["counts"], r, "large_p summary")
        if r["events"] != p["events"]:
            problems.append("simulated %d events, pinned %d" % (r["events"], p["events"]))
        if r["summary_md5"] != p["summary_md5"]:
            problems.append("summary digest %s, pinned %s" % (r["summary_md5"], p["summary_md5"]))
        return problems
    return check


def check_layers(pins):
    def check(r):
        problems = check_counts(pins["regen"]["counts"], r["regen_counts"], "regeneration")
        if r["memo_disk_reads"] != 0:
            problems.append("memo pass read the disk cache %d times" % r["memo_disk_reads"])
        return problems
    return check


def work_dir(workload):
    return os.path.join(".bench_out", "work-" + workload)


def scratch_dir(workload, name):
    """A path under the run's work directory, relative to the checkout
    root (the probes' working directory). Its length is the same in
    every run and every checkout: the probe allocates strings built from
    it, and minor words must repeat exactly."""
    d = os.path.join(work_dir(workload), name)
    os.makedirs(os.path.join(ROOT, work_dir(workload)), exist_ok=True)
    return d


def remove(rel):
    shutil.rmtree(os.path.join(ROOT, rel), ignore_errors=True)


def cold_op(run, pins, phase, cache, spans=None):
    """One cold regeneration into the empty directory [cache]."""
    args = ["regen", "--cache", cache] + (["--spans", spans] if spans else [])
    return run.op(phase, args, DEADLINE_S["regen"], check_regen(pins))


def sim_op(run, pins, phase, spans=None):
    """One 2048-processor run."""
    args = ["sim"] + (["--spans", spans] if spans else [])
    return run.op(phase, args, DEADLINE_S["sim"], check_sim(pins))


def sample_loop(run, workload, seconds, op):
    """Fresh-process samples of [op] for [seconds], and at least
    MIN_SAMPLES; stops at the first operation that does not finish."""
    samples = []
    t_stop = time.monotonic() + seconds
    while len(samples) < MIN_SAMPLES[workload] or time.monotonic() < t_stop:
        if run.remaining() <= 0:
            break
        r = op(len(samples))
        if r is None:
            break
        samples.append(r)
    return samples


def end_to_end(workload, run, pins, seconds):
    """Metrics of one untraced run, or None when nothing was measured."""
    if workload == "regen_cold":
        def op(i):
            cache = scratch_dir(workload, "cache")
            r = cold_op(run, pins, "measured", cache)
            remove(cache)
            return r
        events = pins["regen"]["events"]
    else:
        def op(i):
            return sim_op(run, pins, "measured")
        events = pins["large_p"]["events"]
    samples = sample_loop(run, workload, seconds, op)
    if not samples:
        return None
    walls = [s["wall_s"] for s in samples]
    print("%s: %d samples, wall %s s" % (workload, len(walls), fmt_list(walls)))
    return {
        "wall_s": median(walls),
        "cpu_s": median([s["cpu_s"] for s in samples]),
        "events_per_s": events / median(walls),
        "minor_words_per_event": median([s["minor_words"] for s in samples]) / events,
        "peak_heap_mb": max(s["top_heap_words"] for s in samples) * WORD_BYTES / MB,
        "setup_s": median([s["ready_at"] - s["spawn_at"] for s in samples]),
    }


def per_layer(workload, run, pins, seed, seconds, host):
    """Metrics of one traced run, or None when nothing was measured. Spans
    of every traced probe go to .bench_out/trace-<workload>-s<seed>.jsonl."""
    trace_file = os.path.join(OUT_DIR, "trace-%s-s%d.jsonl" % (workload, seed))
    span_files = []

    def spans(name):
        f = scratch_dir(workload, "spans-%s.jsonl" % name)
        span_files.append((name, f))
        return f

    cache = scratch_dir(workload, "cache")
    fill = cold_op(run, pins, "traced", cache)
    if fill is None:
        return None
    layers = run.op("traced",
                    ["layers", "--cache", cache, "--scratch", scratch_dir(workload, "store"),
                     "--spans", spans("layers")],
                    DEADLINE_S["layers"], check_layers(pins))
    if layers is None:
        return None
    m = dict(layers["metrics"])

    # Traced against untraced operations of the workload itself, in
    # alternating pairs; the seed picks which side of a pair goes first.
    untraced, traced, gc = [], [], []
    t_stop = time.monotonic() + seconds
    k = 0
    while k == 0 or time.monotonic() < t_stop:
        if run.remaining() <= 0:
            break
        for tr in ((False, True) if (seed + k) % 2 == 0 else (True, False)):
            sp = spans("op%d" % k) if tr else None
            if workload == "regen_cold":
                c = scratch_dir(workload, "pair-cache")
                r = cold_op(run, pins, "traced", c, sp)
                remove(c)
            else:
                r = sim_op(run, pins, "traced", sp)
            if r is None:
                return None
            (traced if tr else untraced).append(r["wall_s"])
            if not tr:
                gc.append(r)
        k += 1
    remove(cache)

    if workload == "large_p":
        counts = gc[0]
    else:
        counts = layers["regen_counts"]
    m.update({
        "core.tasks": counts["tasks"],
        "core.fetches": counts["fetches"],
        "core.broadcasts": counts["broadcasts"],
        "net.msgs": counts["msgs"],
        "net.mbytes": counts["mbytes"],
        "gc.major_collections": median([r["major_collections"] for r in gc]),
        "gc.top_heap_mb": max(r["top_heap_words"] for r in gc) * WORD_BYTES / MB,
        "host.cores": host["cores"],
        "trace.overhead_pct": 100.0 * (median(traced) / median(untraced) - 1.0),
    })
    print("%s: traced run, %d untraced and %d traced samples" % (workload, len(untraced), len(traced)))

    with open(trace_file, "w") as out:
        for name, f in span_files:
            if os.path.exists(os.path.join(ROOT, f)):
                with open(os.path.join(ROOT, f)) as src:
                    for line in src:
                        out.write('%s,"process":"%s"}\n' % (line.rstrip()[:-1], name))
    print("%s: spans written to %s" % (workload, os.path.relpath(trace_file, ROOT)))
    return m


# ---------------------------------------------------------------- set-up


def build():
    """Build the probe from source; False (with dune's output on stderr)
    when it does not build."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    dune = ["dune"] if shutil.which("dune") else ["opam", "exec", "--", "dune"]
    try:
        proc = subprocess.run(
            dune + ["build", "--root", ".", "--build-dir", BUILD_DIR,
                    "--profile", "release", "benchmark/probe.exe"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=900)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("build failed: %s" % e, file=sys.stderr)
        return False
    if proc.returncode != 0 or not os.path.exists(PROBE):
        sys.stderr.write(proc.stdout + proc.stderr)
        print("build failed: benchmark/probe.exe did not build", file=sys.stderr)
        return False
    return True


def source_md5():
    """Digest of the program's sources, which names the code measured
    even where there is no git history."""
    h = hashlib.md5()
    for top in ("lib", "bin"):
        for d, _, files in sorted(os.walk(os.path.join(ROOT, top))):
            for f in sorted(files):
                if f.endswith((".ml", ".mli")) or f == "dune":
                    p = os.path.join(d, f)
                    h.update(os.path.relpath(p, ROOT).encode())
                    with open(p, "rb") as src:
                        h.update(src.read())
    return h.hexdigest()


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def host_block(run):
    calib = run.op("set-up", ["calib"], DEADLINE_S["calib"])
    if calib is None:
        return None
    host = {
        "nproc": os.cpu_count(),
        "cores": calib["cores"],
        "ocaml": calib["ocaml"],
        "commit": commit(),
        "source_md5": source_md5(),
        "host.calib_ms": calib["calib_ms"],
    }
    print("host: " + json.dumps(host))
    return host


# ---------------------------------------------------------------- output


def fmt_list(values):
    return "[" + ", ".join("%.4f" % v for v in values) + "]"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def one_run(workload, seed, seconds, trace):
    """One run; returns the process exit code."""
    spec = load_spec()
    if not build():
        return 2
    pins = load_pins()
    remove(work_dir(workload))
    run = Run(workload)
    host = host_block(run)
    metrics = None
    if host is not None:
        if trace:
            metrics = per_layer(workload, run, pins, seed, seconds, host)
        else:
            metrics = end_to_end(workload, run, pins, seconds)
    remove(work_dir(workload))
    run.report()
    print("%s: attempted %d, failed %d, fail_ratio %.6f"
          % (workload, run.attempted, run.failed, run.failed / max(run.attempted, 1)))
    if metrics is None:
        print("%s: nothing was measured" % workload, file=sys.stderr)
        return 1
    names = spec["per_layer"] if trace else spec["end_to_end"]
    out = {}
    for m in names:
        out[m["name"]] = {"value": float(metrics[m["name"]]), "unit": m["unit"]}
        print("%-32s %18.6f %s" % (m["name"], metrics[m["name"]], m["unit"]))
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": out}))
    return 0


# ---------------------------------------------------------------- steadiness


def steadiness(workloads, runs, seconds):
    """Two sets of [runs] runs of each workload, each run with its own
    seed. For each end-to-end metric, print each set's quartiles and
    whether the spread and the drift between the sets stay within the
    metric's bound. Returns 0 when every check passes."""
    spec = load_spec()
    ok = True
    summary = {}
    for w in workloads:
        sets = []
        for s in range(2):
            values = {m["name"]: [] for m in spec["end_to_end"]}
            for i in range(runs):
                seed = 1000 * (s + 1) + i
                proc = subprocess.run(
                    [sys.executable, os.path.abspath(__file__), "--workload", w,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=200)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
                if result is None or not result["correct"]:
                    print("%s set %d seed %d: run failed\n%s%s"
                          % (w, s + 1, seed, proc.stdout, proc.stderr))
                    ok = False
                    continue
                for name, v in result["metrics"].items():
                    values[name].append(v["value"])
            sets.append(values)
        summary[w] = {}
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a, b = sets[0][name], sets[1][name]
            if len(a) < 2 or len(b) < 2:
                ok = False
                continue
            qa, qb = quartiles(a), quartiles(b)
            sa, sb = spread(a), spread(b)
            drift = worse_by(qa[1], qb[1], m["better"])
            spread_ok = name == "setup_s" or max(sa, sb) <= bound
            agree = drift <= bound
            ok = ok and spread_ok and agree
            summary[w][name] = {"set1": qa, "set2": qb, "spread1": sa, "spread2": sb,
                                "drift": drift, "bound": bound}
            print("%-10s %-22s set1 %.6g [%.6g, %.6g] spread %.4f | set2 %.6g [%.6g, %.6g] "
                  "spread %.4f | drift %+.4f bound %.2f %s%s"
                  % (w, name, qa[1], qa[0], qa[2], sa, qb[1], qb[0], qb[2], sb, drift, bound,
                     "agree" if agree else "DISAGREE",
                     "" if spread_ok else " SPREAD>BOUND"))
            sys.stdout.flush()
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, "steadiness.json"), "w") as f:
        json.dump(summary, f, indent=1)
    print("steadiness: %s" % ("every metric agrees within its bound" if ok else "FAILED"))
    return 0 if ok else 1


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steadiness", action="store_true")
    ap.add_argument("--runs", type=int, default=10)
    a = ap.parse_args(argv)
    seconds = a.seconds if a.seconds is not None else load_spec()["run_seconds"]
    if a.steadiness:
        return steadiness([a.workload] if a.workload else list(WORKLOADS), a.runs, seconds)
    if a.workload is None:
        ap.error("--workload is required")
    return one_run(a.workload, a.seed, seconds, a.trace == 1)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
