#!/usr/bin/env python3
"""End-to-end and per-layer benchmark for alive-mutate-go.

Runs one workload as the user-facing command at its default flags, timed
from outside the process, and prints one JSON result as its last line:

    python3 perfbench/run.py --workload slice --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics with the program's telemetry
off. --trace 1 runs the same command once more with the existing
-metrics-out snapshot on and reports the per-layer metrics read from it.
--workload all runs every workload both ways and prints the full report.

The workloads' inputs are fixed (program seeds 7, 2 and 7): the stored
census tables are only valid for them, and other throughput seeds run for
minutes (see README.md). --seed therefore does not change the inputs; it
is echoed in the report.

Everything the benchmark builds or writes stays under .bench_build/ at the
root of the checkout.
"""

import argparse
import hashlib
import json
import math
import os
import re
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")
EXPECTED = os.path.join(HERE, "expected")

# Where the counts and the untraced wall of the code under test are kept:
# .bench_build/state/<fingerprint of the built binaries>, set by main. A run
# compares itself only with earlier runs of identical code, even when
# several commits are measured in one checkout.
STATE = None

# The CLIs a workload runs, plus the three discrete tools bench-throughput
# links itself: building them here warms the Go cache so that its set-up
# time measures a link, not a first compile.
PACKAGES = ["fuzz-campaign", "bench-throughput", "mutate-tool", "opt", "alive-tv"]

# A run must end within 180 s; invocations are killed past this point.
RUN_LIMIT_S = 170

# Counts that must repeat exactly between traced runs of one checkout:
# guard name -> the per-layer metric that carries it.
GUARDED_COUNTS = {
    "mutants": "mutants",
    "verdict.valid": "verdict.valid",
    "verdict.invalid": "verdict.invalid",
    "verdict.unknown": "tv.unknown",
    "verdict.unsupported": "verdict.unsupported",
    "tv.queries": "tv.queries",
    "sat.conflicts": "sat.conflicts",
    "sat.propagations": "sat.propagations",
}


class Workload:
    def __init__(self, name, tool, args, probe, probes, rep_s):
        self.name = name
        self.tool = tool
        self.args = args
        self.probe = probe  # the same command cut to its first mutants
        self.probes = probes  # set-up samples per run
        # A run repeats the command round(--seconds / rep_s) times, so
        # every commit measures the same amount of work. rep_s is the
        # workload's weight rather than its length: at 30 s the ~11 s
        # slice and the ~17 s throughput workload, which a speed-up of
        # the TV layers is measured on, get two samples each, and the
        # ~30 s registry workload one, so that a full series of runs of
        # every workload stays within its time limit.
        self.rep_s = rep_s

    def reps(self, seconds):
        return max(1, round(seconds / self.rep_s))

    @property
    def is_throughput(self):
        return self.tool == "bench-throughput"

    def flag(self, name):
        return int(self.args[self.args.index("-" + name) + 1])


def registry_issues():
    """The seeded bugs in registry order, read from the stored census table."""
    with open(os.path.join(EXPECTED, "registry.txt"), encoding="utf-8") as f:
        return re.findall(r"^(\d+) ", f.read(), re.M)


# Registry bugs whose first 8 mutants already take 0.4-8 s of solving: the
# registry's set-up probe leaves them out.
SLOW_FIRST_MUTANTS = {"55003", "55287", "55296", "55342", "55490"}


def campaign_probe(issues):
    """The campaign cut to the first mutants of each unit of issues. A unit
    near its bug gets budget/2 mutants and any other unit budget/8, where 0
    would mean unbounded: 8 is the smallest budget that bounds every unit."""
    return ["-budget", "8", "-only", ",".join(issues), "-tvbudget", "4000", "-seed", "7", "-workers", "1"]


WORKLOADS = {
    w.name: w
    for w in [
        # Set-up: both units of the slice, about 7 ms.
        Workload("slice", "fuzz-campaign",
                 ["-budget", "660", "-only", "53252,55129", "-tvbudget", "4000", "-seed", "7", "-workers", "1"],
                 campaign_probe(["53252", "55129"]), 101, 15),
        # Set-up: includes the build of the three discrete-tool binaries
        # that bench-throughput does itself.
        Workload("throughput", "bench-throughput",
                 ["-gen", "10", "-count", "100", "-seed", "2", "-workers", "1"],
                 ["-gen", "1", "-count", "1", "-seed", "2", "-workers", "1"], 5, 15),
        # Set-up: the per-unit preprocessing of 28 of the 33 bugs' units,
        # about 60 ms.
        Workload("registry", "fuzz-campaign",
                 ["-budget", "40", "-tvbudget", "4000", "-seed", "7", "-workers", "1"],
                 campaign_probe([i for i in registry_issues() if i not in SLOW_FIRST_MUTANTS]), 41, 30),
    ]
}

# End-to-end metrics: name -> unit. Every run reports all of them.
END_TO_END = {
    "mutants_per_s": "1/s",
    "speedup_geomean": "x",
    "speedup_min": "x",
    "decided_share": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Metrics a workload does not measure. They read 1 with no samples (n/a).
# The speedups compare against the discrete tools, which only the throughput
# workload runs. bench-throughput's peak RSS from wait4 would include the
# go build and discrete-tool processes it waits for; fuzz-campaign starts
# no process, so its figure is its own.
NOT_MEASURED = {
    "fuzz-campaign": ("speedup_geomean", "speedup_min"),
    "bench-throughput": ("peak_rss_mb",),
}


# ---------------------------------------------------------------- snapshot

def _hist(snap, name):
    return snap.get("histograms", {}).get(name)


def _family_present(snap, prefixes):
    keys = list(snap.get("counters", {})) + list(snap.get("histograms", {}))
    return any(k.startswith(p) for k in keys for p in prefixes)


def counter(snap, name, family=None):
    """A counter's value. The snapshot omits counters that stayed zero, so
    a missing counter reads 0 when its layer left any other key (family
    prefixes) and None (absent) when the layer left none."""
    c = snap.get("counters", {})
    if name in c:
        return c[name]
    if family is None or _family_present(snap, family):
        return 0
    return None


def seconds(snap, hist):
    h = _hist(snap, hist)
    return None if h is None else h["total_ns"] / 1e9


def ratio(snap, num, parts, family=None):
    """Counter num as a share of the sum of counters parts; None when one
    is absent or the sum is 0."""
    vals = [counter(snap, n, family) for n in (num,) + parts]
    if None in vals or not sum(vals[1:]):
        return None
    return vals[0] / sum(vals[1:])


def percentile_ms(snap, hist, q):
    """Estimate a latency percentile from a snapshot histogram's log2
    buckets, interpolating linearly inside the bucket."""
    h = _hist(snap, hist)
    if h is None or h["count"] == 0:
        return None
    bounds, buckets = h["bounds_ns"], h["buckets"]
    rank = q * h["count"]
    cum = 0
    for i, n in enumerate(buckets):
        if n and cum + n >= rank:
            lo = bounds[i - 1] if i > 0 else h["min_ns"]
            hi = bounds[i] if i < len(bounds) else h["max_ns"]
            lo, hi = max(lo, h["min_ns"]), min(hi, h["max_ns"])
            return (lo + (hi - lo) * (rank - cum) / n) / 1e6
        cum += n
    return h["max_ns"] / 1e6


def top_level_stage_s(snap):
    """Stage time that does not nest in another stage (analysis nests in
    opt; the static and concrete rungs nest in tv)."""
    return sum(seconds(snap, "stage." + s) or 0.0
               for s in ("parse", "preprocess", "mutate", "opt", "tv", "interp", "discrete"))


CONCRETE = ("tv.concrete.", "stage.ctv")
STATIC = ("tv.static.", "stage.stv")
SRCENC = ("tv.srcenc.",)
PORTFOLIO = ("sat.portfolio.",)
CACHE = ("tv.cache.",)

MPS_CAMPAIGNS = "mutants_per_s (slice, registry)"
MPS_ALL = "mutants_per_s (all)"
MPS_REGISTRY = "mutants_per_s (registry)"
THROUGHPUT_BODY = "speedup_min, speedup_geomean, mutants_per_s (throughput)"
THROUGHPUT_MPS = "mutants_per_s (throughput)"

# Per-layer metrics: (name, unit, fn(snap, wall_s), end-to-end metric it
# should move). A fn returns None when the layer left nothing to read.
LAYERS = [
    # TV tail
    ("tv.unknown_s", "s", lambda s, w: seconds(s, "tv.unknown"), MPS_CAMPAIGNS),
    ("tv.unknown", "count", lambda s, w: counter(s, "verdict.unknown"), MPS_CAMPAIGNS),
    ("sat.portfolio.races", "count", lambda s, w: counter(s, "sat.portfolio.races", PORTFOLIO), MPS_CAMPAIGNS),
    ("sat.conflicts", "count", lambda s, w: counter(s, "sat.conflicts"), MPS_CAMPAIGNS),
    # TV body
    ("tv.valid_s", "s", lambda s, w: seconds(s, "tv.valid"), THROUGHPUT_BODY),
    ("tv.query_p50_ms", "ms", lambda s, w: percentile_ms(s, "stage.tv", 0.50), THROUGHPUT_BODY),
    ("tv.query_p99_ms", "ms", lambda s, w: percentile_ms(s, "stage.tv", 0.99), THROUGHPUT_BODY),
    ("tv.srcenc.hit_share", "ratio",
     lambda s, w: ratio(s, "tv.srcenc.hit", ("tv.srcenc.hit", "tv.srcenc.miss"), SRCENC), THROUGHPUT_BODY),
    ("tv.srcenc.proved_share", "ratio",
     lambda s, w: ratio(s, "tv.srcenc.proved", ("tv.srcenc.hit", "tv.srcenc.miss"), SRCENC), THROUGHPUT_BODY),
    ("sat.propagations", "count", lambda s, w: counter(s, "sat.propagations"), THROUGHPUT_BODY),
    # Cheap rungs in front of the solver
    ("tv.static.s", "s", lambda s, w: seconds(s, "stage.stv"), MPS_ALL),
    ("tv.static.proved_share", "ratio",
     lambda s, w: ratio(s, "tv.static.proved",
                        ("tv.static.proved", "tv.static.bailout", "tv.static.refuted-to-sat"), STATIC), MPS_ALL),
    ("tv.cache.hit_share", "ratio",
     lambda s, w: ratio(s, "tv.cache.hit", ("tv.cache.hit", "tv.cache.miss"), CACHE), MPS_ALL),
    ("core.fastpath_share", "ratio", lambda s, w: ratio(s, "tv.fastpath", ("checks",)), MPS_ALL),
    # Refutation
    ("tv.invalid_s", "s", lambda s, w: seconds(s, "tv.invalid"), MPS_REGISTRY),
    ("tv.concrete.s", "s", lambda s, w: seconds(s, "stage.ctv"), MPS_REGISTRY),
    ("tv.concrete.diverged", "count", lambda s, w: counter(s, "tv.concrete.diverged", CONCRETE), MPS_REGISTRY),
    ("interp.s", "s", lambda s, w: seconds(s, "stage.interp"), MPS_REGISTRY),
    ("opt.crashes", "count", lambda s, w: counter(s, "crashes"), MPS_REGISTRY),
    # Per-unit set-up and everything outside the stages
    ("core.preprocess_s", "s", lambda s, w: seconds(s, "stage.preprocess"),
     "mutants_per_s (registry), setup_s (throughput)"),
    ("loop.other_s", "s", lambda s, w: w - top_level_stage_s(s),
     "mutants_per_s (registry), setup_s (throughput)"),
    # Non-TV stages
    ("parser.parse_s", "s", lambda s, w: seconds(s, "stage.parse"), THROUGHPUT_MPS),
    ("mutate.s", "s", lambda s, w: seconds(s, "stage.mutate"), THROUGHPUT_MPS),
    ("opt.s", "s", lambda s, w: seconds(s, "stage.opt"), THROUGHPUT_MPS),
    ("opt.analysis_s", "s", lambda s, w: seconds(s, "stage.analysis"), THROUGHPUT_MPS),
    ("discrete.s", "s", lambda s, w: seconds(s, "stage.discrete"), "speedup_min, speedup_geomean (throughput)"),
    # Work counts (the determinism guard's subjects)
    ("mutants", "count", lambda s, w: counter(s, "mutants"), MPS_ALL),
    ("tv.queries", "count", lambda s, w: _hist(s, "stage.tv")["count"] if _hist(s, "stage.tv") else 0, MPS_ALL),
    ("verdict.valid", "count", lambda s, w: counter(s, "verdict.valid"), "decided_share"),
    ("verdict.invalid", "count", lambda s, w: counter(s, "verdict.invalid"), "decided_share"),
    ("verdict.unsupported", "count", lambda s, w: counter(s, "verdict.unsupported"), "decided_share"),
    ("run.wall_s", "s", lambda s, w: w, "base of every share"),
]

# Set by the runner rather than read from the snapshot.
TRACING_OVERHEAD = ("tracing_overhead", "ratio", "every end-to-end metric (traced vs untraced wall)")


def per_layer(snap, wall_s):
    """Per-layer metrics of one traced run: name -> (value or None, unit)."""
    return {name: (fn(snap, wall_s), unit) for name, unit, fn, _ in LAYERS}


def counts(snap):
    layer = per_layer(snap, 0.0)
    return {k: layer[src][0] for k, src in GUARDED_COUNTS.items()}


def decided_share(c):
    return (c["tv.queries"] - c["verdict.unknown"]) / c["tv.queries"]


# ---------------------------------------------------------------- running

def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOFLAGS": "",
        # The go command and bench-throughput's temp directory write here
        # instead of the home directory and /tmp.
        "HOME": os.path.join(BUILD, "home"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "home", ".config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "home", ".cache"),
        "TMPDIR": os.path.join(BUILD, "tmp"),
    })
    return env


ENV = go_env()


class BenchError(Exception):
    pass


def build():
    """Build the CLIs into .bench_build/bin and return a fingerprint of the
    binaries. The go command's cache makes a rebuild of unchanged sources
    cost only the links."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        raise BenchError("no go.mod at %s: run from a checkout of the repository" % ROOT)
    for d in ("gocache", "gopath", "home", "tmp", "bin"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    pkgs = ["./cmd/" + p for p in PACKAGES]
    r = subprocess.run(["go", "build", "-o", BIN + os.sep] + pkgs, cwd=ROOT, env=ENV,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    if r.returncode != 0:
        raise BenchError("go build failed:\n" + r.stdout.decode(errors="replace"))
    h = hashlib.sha256()
    for p in PACKAGES:
        with open(os.path.join(BIN, p), "rb") as f:
            h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()[:16]


class Result:
    def __init__(self, code, wall_s, rss_mb, stdout, rundir):
        self.code = code
        self.wall_s = wall_s
        self.rss_mb = rss_mb
        self.stdout = stdout
        self.rundir = rundir


def invoke(tool, args, rundir, deadline):
    """Run one CLI invocation in rundir, timed from outside the process.
    Peak RSS comes from wait4: the child's, or that of a process it waited
    for if larger."""
    os.makedirs(rundir, exist_ok=True)
    out_path = os.path.join(rundir, "stdout")
    with open(out_path, "wb") as fo, open(os.path.join(rundir, "stderr"), "wb") as fe:
        t0 = time.perf_counter()
        p = subprocess.Popen([os.path.join(BIN, tool)] + args, cwd=rundir, env=ENV, stdout=fo, stderr=fe)
        killer = threading.Timer(max(1.0, deadline - time.monotonic()), p.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as f:
        stdout = f.read()
    return Result(p.returncode, wall, usage.ru_maxrss / 1024.0, stdout, rundir)


def command_args(w, args):
    # bench-throughput runs in its own directory (it writes res.txt and
    # BENCH_throughput.json there) and builds its tools from the checkout.
    return args + (["-repo", ROOT] if w.is_throughput else [])


def campaign_table(stdout):
    """The census table: everything after the per-bug progress lines."""
    _, sep, table = stdout.partition("\n\n")
    return table if sep else ""


_PAIR = re.compile(r"\(([-+0-9.eE]+), '([^']+)'\)")


def parse_res(text):
    """Parse bench-throughput's res.txt (Listing 20 format)."""
    res = {"integrated": {}, "discrete": {}}
    for line in text.splitlines():
        key, _, val = line.partition(":")
        if key == "Alive-mutate lst":
            res["integrated"] = {f: float(t) for t, f in _PAIR.findall(val)}
        elif key == "Discrete tools lst":
            res["discrete"] = {f: float(t) for t, f in _PAIR.findall(val)}
        elif key in ("Total", "Total not-verified", "Total invalid file"):
            res[key] = int(val)
    return res


def check_output(w, r):
    """Return a list of output-check failures for one invocation."""
    if r.code != 0:
        return ["%s exited %d" % (w.tool, r.code)]
    if not w.is_throughput:
        with open(os.path.join(EXPECTED, w.name + ".txt"), encoding="utf-8") as f:
            want = f.read()
        return [] if campaign_table(r.stdout) == want else ["census table differs from expected/%s.txt" % w.name]
    try:
        res = read_res(r.rundir)
    except OSError as e:
        return ["no res.txt: %s" % e]
    errs = []
    files = w.flag("gen")
    if res.get("Total") != files:
        errs.append("res.txt Total %s, want %d" % (res.get("Total"), files))
    if res.get("Total not-verified") != 0:
        errs.append("not-verified files: %s" % res.get("Total not-verified"))
    if res.get("Total invalid file") != 0:
        errs.append("invalid files: %s" % res.get("Total invalid file"))
    if sorted(res["integrated"]) != sorted(res["discrete"]) or len(res["integrated"]) != files:
        errs.append("per-file time lists do not match")
    elif min(list(res["integrated"].values()) + list(res["discrete"].values())) <= 0:
        errs.append("a per-file time is not positive")
    return errs


def read_res(rundir):
    with open(os.path.join(rundir, "res.txt"), encoding="utf-8") as f:
        return parse_res(f.read())


def throughput_metrics(w, results):
    """The integrated side's rate and the per-file speedups, from the
    per-file times bench-throughput reports, each file's times taken as
    the median over the run's repetitions."""
    files = list(results[0]["integrated"])
    integrated = {f: statistics.median(r["integrated"][f] for r in results) for f in files}
    discrete = {f: statistics.median(r["discrete"][f] for r in results) for f in files}
    speedups = [discrete[f] / integrated[f] for f in files]
    return {
        "mutants_per_s": w.flag("count") * len(files) / sum(integrated.values()),
        "speedup_geomean": math.exp(statistics.fmean(math.log(s) for s in speedups)),
        "speedup_min": min(speedups),
    }


def counts_path(w):
    return os.path.join(STATE, "counts", w.name + ".json")


def wall_path(w):
    return os.path.join(STATE, "walls", w.name + ".json")


def traced_run(w, deadline, log):
    """One run with the -metrics-out snapshot on. Returns (result, snapshot,
    failures); the failures include the determinism guard."""
    rundir = os.path.join(BUILD, "runs", w.name, "traced")
    snap_path = os.path.join(rundir, "metrics.json")
    if os.path.exists(snap_path):
        os.remove(snap_path)
    r = invoke(w.tool, command_args(w, w.args) + ["-metrics-out", snap_path], rundir, deadline)
    errs = check_output(w, r)
    snap = {}
    if not errs:
        with open(snap_path, encoding="utf-8") as f:
            snap = json.load(f)
        c = counts(snap)
        if c["verdict.invalid"] and w.is_throughput:
            errs.append("%d Invalid verdicts under the correct optimizer" % c["verdict.invalid"])
        if counter(snap, "crashes") and w.is_throughput:
            errs.append("%d optimizer crashes under the correct optimizer" % counter(snap, "crashes"))
        path = counts_path(w)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as f:
                first = json.load(f)
            for k in GUARDED_COUNTS:
                if first.get(k) != c[k]:
                    errs.append("determinism guard: %s = %s, first traced run had %s" % (k, c[k], first.get(k)))
        else:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                json.dump(c, f, indent=1, sort_keys=True)
            log("  counts recorded in %s" % os.path.relpath(path, ROOT))
    return r, snap, errs


def first_counts(w, deadline, log):
    """The counts of the first traced run of this code, running it if none
    has happened yet."""
    path = counts_path(w)
    if not os.path.exists(path):
        log("  no traced run of this code yet: running one for the counts")
        _, _, errs = traced_run(w, deadline, log)
        if errs:
            raise BenchError("; ".join(errs))
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def measure(w, seconds, deadline, log):
    """Untraced run: set-up probes, then the repetitions `seconds` asks for."""
    c = first_counts(w, deadline, log)
    mutants = w.flag("count") * w.flag("gen") if w.is_throughput else c["mutants"]
    errs = []

    setup = []
    for _ in range(w.probes):
        r = invoke(w.tool, command_args(w, w.probe), os.path.join(BUILD, "runs", w.name, "probe"), deadline)
        if r.code != 0:
            errs.append("set-up probe exited %d" % r.code)
            break
        setup.append(r.wall_s)

    reps = []
    attempted = failed = 0
    for i in range(w.reps(seconds)):
        r = invoke(w.tool, command_args(w, w.args), os.path.join(BUILD, "runs", w.name, "rep"), deadline)
        attempted += mutants
        rep_errs = check_output(w, r)
        if rep_errs:
            failed += mutants
            errs.extend(rep_errs)
        else:
            reps.append({"wall_s": r.wall_s, "peak_rss_mb": r.rss_mb,
                         "res": read_res(r.rundir) if w.is_throughput else None})
        log("  rep %d: %.2fs, %.1f MB%s" % (i + 1, r.wall_s, r.rss_mb, " FAILED" if rep_errs else ""))
    if errs and not failed:
        failed = attempted  # a failed probe invalidates the run
    if reps:
        # The untraced wall the next traced run compares itself with.
        os.makedirs(os.path.dirname(wall_path(w)), exist_ok=True)
        with open(wall_path(w), "w", encoding="utf-8") as f:
            json.dump(statistics.median(m["wall_s"] for m in reps), f)

    # name -> (value, sample count). Peak RSS is the highest the command
    # reached in the run; the times are medians.
    values = {name: (0.0, 0) for name in END_TO_END}
    values["decided_share"] = (decided_share(c), 1)
    if setup:
        values["setup_s"] = (statistics.median(setup), len(setup))
    if reps:
        values["peak_rss_mb"] = (max(m["peak_rss_mb"] for m in reps), len(reps))
        if w.is_throughput:
            for name, v in throughput_metrics(w, [m["res"] for m in reps]).items():
                values[name] = (v, len(reps))
        else:
            values["mutants_per_s"] = (statistics.median(mutants / m["wall_s"] for m in reps), len(reps))
    values.update({name: (1.0, 0) for name in NOT_MEASURED[w.tool]})
    metrics = {name: (v, END_TO_END[name], n) for name, (v, n) in values.items()}
    return metrics, attempted, failed, errs


def trace(w, deadline, log):
    """Traced run: the per-layer breakdown, plus tracing overhead against
    the median untraced wall of the last untraced run of this code (one
    untraced run is made first if there was none). bench-throughput
    records its stage telemetry either way, so its overhead is 0 by
    construction."""
    errs = []
    invocations = 1
    untraced_wall = None
    if not w.is_throughput:
        if os.path.exists(wall_path(w)):
            with open(wall_path(w), encoding="utf-8") as f:
                untraced_wall = json.load(f)
        else:
            u = invoke(w.tool, command_args(w, w.args), os.path.join(BUILD, "runs", w.name, "rep"), deadline)
            errs.extend(check_output(w, u))
            untraced_wall = u.wall_s
            invocations += 1
    r, snap, terrs = traced_run(w, deadline, log)
    errs.extend(terrs)
    layers = per_layer(snap, r.wall_s) if snap else {n: (None, u) for n, u, _, _ in LAYERS}
    overhead = 0.0 if w.is_throughput else r.wall_s / untraced_wall - 1
    layers[TRACING_OVERHEAD[0]] = (overhead, TRACING_OVERHEAD[1])
    attempted = max(1, (layers["mutants"][0] or 0) * invocations)
    return layers, attempted, (attempted if errs else 0), errs, r.wall_s


# ---------------------------------------------------------------- report

def fmt(v):
    if v is None:
        return "absent"
    if isinstance(v, int):
        return str(v)
    return "%.6g" % v


def print_end_to_end(w, metrics):
    print("%s: end-to-end (tracing off)" % w.name)
    for name, (v, unit, n) in metrics.items():
        print("  %-18s %14s %-6s %s" % (name, fmt(v), unit, "n=%d" % n if n else "n/a"))


def print_layers(w, layers, wall_s):
    print("%s: per-layer (traced run, wall %.3fs)" % (w.name, wall_s))
    print("  %-24s %14s %-6s %8s  %s" % ("metric", "value", "unit", "wall %", "moves"))
    maps = {n: m for n, _, _, m in LAYERS}
    maps[TRACING_OVERHEAD[0]] = TRACING_OVERHEAD[2]
    for name, (v, unit) in layers.items():
        pct = "%.1f" % (100 * v / wall_s) if unit == "s" and v is not None and wall_s else ""
        print("  %-24s %14s %-6s %8s  %s" % (name, fmt(v), unit, pct, maps[name]))


def json_metrics(pairs):
    """Metric values for the JSON line. An absent layer metric reads 0 there
    and 'absent' in the printed table."""
    return {name: {"value": (0.0 if v is None else v), "unit": unit} for name, (v, unit) in pairs.items()}


def main(argv=None):
    global STATE
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)

    def log(msg):
        print(msg, flush=True)

    try:
        t = time.monotonic()
        fp = build()
        STATE = os.path.join(BUILD, "state", fp)
        log("build: %.1fs, binaries %s" % (time.monotonic() - t, fp))
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2

    names = list(WORKLOADS) if a.workload == "all" else [a.workload]
    modes = (0, 1) if a.workload == "all" else (a.trace,)
    out, attempted, failed, errs = {}, 0, 0, []
    for name in names:
        w = WORKLOADS[name]
        for mode in modes:
            deadline = time.monotonic() + RUN_LIMIT_S
            log("workload %s, seed %d, trace %d" % (name, a.seed, mode))
            try:
                if mode == 0:
                    metrics, at, fa, er = measure(w, a.seconds, deadline, log)
                    print_end_to_end(w, metrics)
                    pairs = {k: (v, u) for k, (v, u, _) in metrics.items()}
                else:
                    pairs, at, fa, er, wall = trace(w, deadline, log)
                    print_layers(w, pairs, wall)
            except BenchError as e:
                # The first traced run, which the counts come from, failed.
                pairs, at, fa, er = {}, 1, 1, [str(e)]
            attempted, failed, errs = attempted + at, failed + fa, errs + er
            if a.workload == "all":
                pairs = {name + "." + k: v for k, v in pairs.items()}
            out.update(pairs)
    for e in errs:
        print("FAILED: %s" % e)
    print(json.dumps({
        "correct": not errs,
        "attempted": max(attempted, 1),
        "failed": min(failed, max(attempted, 1)),
        "metrics": json_metrics(out),
    }))
    return 0 if not errs else 1


if __name__ == "__main__":
    sys.exit(main())
