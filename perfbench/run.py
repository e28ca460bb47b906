#!/usr/bin/env python3
"""Benchmark of the vstack campaign suite (see perfbench/README.md).

    python3 perfbench/run.py --workload fig04 [--seed 42] [--seconds 24]
                             [--trace 0|1]

On first use it builds perfbench_runner (the library from src/ plus
runner.cc) under .bench_build/.  It then runs the workload's plan in
fresh processes, one suite per process, as many times as fit in
--seconds at the plan's nominal repetition time, checks every campaign
result, and prints the metrics.  With --trace 1 each repetition is an
untraced suite followed by a traced replay, and the per-layer metrics
are printed instead of the end-to-end ones.

The last line of stdout is one JSON object,
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
and the exit code is 0 only when every result is correct.
"""

import argparse
import collections
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"

# Repetitions stop at this count even when --seconds would allow more.
MAX_REPS = 20
# setup_s is the median of at least this many fresh-process set-ups.
SETUP_SAMPLES = 9
# A runner process is killed after this long; a run must end in 3 min.
RUNNER_TIMEOUT_S = 170

END_TO_END = [
    ("wall_s", "s"),
    ("samples_per_s", "1/s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("campaign_done_p50_s", "s"),
    ("campaign_done_tail_s", "s"),
]

STRUCTURES = ("RF", "LSQ", "L1i", "L1d", "L2")
FPMS = ("WD", "WI", "WOI")
# Campaign layer (runner output) -> the src/ module that simulates it.
LAYER_OF = {"uarch": "uarch", "pvf": "arch", "svf": "swfi"}


def _sample_metrics(layer):
    return [(f"{layer}.samples", "count"), (f"{layer}.busy_s", "s"),
            (f"{layer}.sample_p50_ms", "ms"),
            (f"{layer}.sample_tail_ms", "ms"), (f"{layer}.ctx_ms", "ms")]


PER_LAYER = (
    [("core.pool_util", "ratio"), ("core.first_sample_s", "s"),
     ("core.drain_s", "s"), ("core.golden_evictions", "count"),
     ("core.fold_ms", "ms"), ("core.store_put_ms", "ms"),
     ("toolchain.build_s", "s"), ("toolchain.builds", "count"),
     ("gefin.golden_s", "s"), ("gefin.goldens", "count"),
     ("gefin.golden_minst_per_s", "Minst/s"), ("gefin.trace_s", "s"),
     ("fault.sample_ms", "ms")]
    + _sample_metrics("uarch") + [("uarch.sample_golden_ratio", "ratio")]
    + [(f"uarch.{s}.{m}", u) for s in STRUCTURES
       for m, u in (("busy_s", "s"), ("sample_p50_ms", "ms"),
                    ("sample_tail_ms", "ms"))]
    + [("arch.golden_s", "s"), ("arch.trace_s", "s")]
    + _sample_metrics("arch") + [(f"arch.{f}.busy_s", "s") for f in FPMS]
    + [("swfi.golden_s", "s"), ("swfi.trace_s", "s")]
    + _sample_metrics("swfi")
    + [("trace.overhead_frac", "ratio")]
)

# Metrics taken from the untraced suite of a --trace 1 repetition.
UNTRACED_LAYER = ("core.pool_util", "core.first_sample_s", "core.drain_s",
                  "core.golden_evictions")

TAIL_PERCENTILES = list(range(50, 100)) + [99.9, 99.99]


def fail(msg):
    """Exit non-zero without printing a result."""
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(2)


def nproc():
    return len(os.sched_getaffinity(0))


def runner_env(build_root):
    """The caller's environment minus every VSTACK_* knob, with
    temporary files kept inside the build directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("VSTACK_")}
    env["TMPDIR"] = os.path.join(build_root, "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    return env


def build_runner(build_root, env):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no vstack sources under {ROOT}/src")
    bdir = os.path.join(build_root, "perfbench")
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(bdir)  # configured for another checkout
    steps = []
    if not os.path.exists(cache):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"] + gen)
    steps.append(["cmake", "--build", bdir, "--target", "perfbench_runner",
                  "-j", str(nproc())])
    for cmd in steps:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_runner")


def git_rev():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def src_digest():
    """sha256 over src/, which identifies the code when git cannot."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for d, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(d, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


class Runner:
    """Runs perfbench_runner repetitions in a private work directory."""

    def __init__(self, exe, plan_path, args, work, spans, env):
        self.exe, self.plan_path, self.args = exe, plan_path, args
        self.work, self.spans, self.env = work, spans, env

    def run(self, mode, tag, seed):
        store = os.path.join(self.work, "store-" + tag)
        out = os.path.join(self.work, "out-" + tag + ".json")
        cmd = [self.exe, "--plan", self.plan_path,
               "--seed", str(seed), "--jobs", str(self.args.jobs),
               "--store", store, "--out", out, "--mode", mode]
        if mode == "traced":
            cmd += ["--spans", self.spans]
        if self.args.failpoints:
            cmd += ["--failpoints", self.args.failpoints]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True,
                                  text=True, timeout=RUNNER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"{mode} repetition exceeded {RUNNER_TIMEOUT_S} s")
        sys.stderr.write(proc.stdout + proc.stderr)
        if proc.returncode:
            fail(f"{mode} repetition failed (exit {proc.returncode})")
        with open(out) as f:
            result = json.load(f)
        result["store"] = store
        return result


def load_entry(path):
    """A store entry's data, unwrapped from its {"fmt", "crc", "data"}
    envelope when it has one (reference entries may be bare); None
    when missing or unreadable."""
    try:
        with open(path) as f:
            j = json.load(f)
    except (OSError, ValueError):
        return None
    if isinstance(j, dict) and "fmt" in j and "data" in j:
        return j["data"]
    return j


def classified(layer, data):
    """Samples a store entry classified (quarantined ones excluded)."""
    if layer == "uarch":
        return data.get("samples", 0)
    return sum(data.get(k, 0) for k in ("masked", "sdc", "crash", "detected"))


class Gate:
    """The correctness gate over every campaign of every repetition.

    An untraced entry of plan seed 42 is compared with the reference
    store, and a repeated seed with its first repetition; a traced
    replay is compared with its own untraced suite.  A missing or
    mismatched entry loses all its samples; otherwise its quarantined
    samples are lost.  error_frac = lost / attempted.
    """

    def __init__(self, reference):
        self.reference = reference
        self.first = {}  # plan seed -> label -> entry data
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.checks = set()

    def suite_report(self, suite):
        for field, want in (("cache_hits", 0), ("storage_faults", 0),
                            ("failures", 0), ("interrupted", False)):
            if suite[field] != want:
                self.problems.append(f"suite {field} = {suite[field]}")
        self.problems.extend(f"suite: {e}" for e in suite["errors"])

    def campaigns(self, camps, kind, seed, pair=None):
        """Check one repetition's store; returns label -> entry data."""
        first = self.first.get(seed) if kind == "untraced" else None
        entries = {}
        for c in camps:
            label, n = c["label"], c["n"]
            self.attempted += n
            data = load_entry(c["path"])
            entries[label] = data
            against = []
            if self.reference and kind == "untraced" and seed == 42:
                ref = os.path.join(self.reference, os.path.basename(c["path"]))
                against.append(("reference " + os.path.relpath(
                    self.reference, ROOT), load_entry(ref)))
            if first is not None:
                against.append(("same seed's first repetition",
                                first.get(label)))
            if pair is not None:
                against.append(("untraced suite", pair.get(label)))
            why = "no store entry" if data is None else None
            for name, want in against:
                self.checks.add(f"{kind} == {name}")
                if why is None and want != data:
                    why = f"differs from the {name}"
            lost = n if why else n - classified(c["layer"], data)
            if why:
                self.problems.append(f"{kind} {label}: {why}")
            elif lost:
                self.problems.append(f"{kind} {label}: {lost} quarantined")
            self.failed += lost
        if kind == "untraced":
            self.first.setdefault(seed, entries)
        return entries


def rep_seeds(seed, count):
    """Plan seeds of a run's repetitions: the run seed first and, from
    two repetitions on, last again (a determinism check), with seeds
    derived from it in between, so that one run measures several fault
    lists and its median depends less on any one of them."""
    derived = [int(hashlib.sha256(f"{seed}/{k}".encode()).hexdigest()[:12], 16)
               for k in range(1, count - 1)]
    return [seed] + derived + ([seed] if count > 1 else [])


def rank(p, n):
    """1-based nearest rank of the p-th percentile of n values."""
    return max(1, math.ceil(round(p * n / 100, 9)))


def tail(values):
    """The highest percentile with at least ten values beyond it (p50
    when there are too few): (percentile, value, count beyond)."""
    v = sorted(values)
    n = len(v)
    if not n:
        return 50, 0.0, 0
    p = max((p for p in TAIL_PERCENTILES if n - rank(p, n) >= 10), default=50)
    return p, v[rank(p, n) - 1], n - rank(p, n)


def tail_info(values):
    p, _, beyond = tail(values)
    return {"percentile": p, "beyond": beyond, "of": len(values)}


def suite_metrics(result, jobs):
    """Metrics of one untraced repetition."""
    s = result["suite"]
    wall, cpu = s["wall_s"], s["cpu_s"]
    done = s["campaign_done_s"]
    samples = sum(c["n"] for c in s["campaigns"])
    m = {
        "wall_s": wall,
        "samples_per_s": samples / wall,
        "cpu_s": cpu,
        "peak_rss_mb": result["peak_rss_mb"],
        "campaign_done_p50_s": statistics.median(done),
        "campaign_done_tail_s": tail(done)[1],
        "core.pool_util": cpu / (wall * jobs),
        "core.first_sample_s": s["first_sample_s"],
        "core.drain_s": wall - s["at95_s"],
        "core.golden_evictions": s["golden_evictions"],
    }
    return m, {"campaign_done_tail_s": tail_info(done)}


def add_self_times(spans):
    """self = duration minus the part of it covered by child spans."""
    kids = collections.defaultdict(list)
    for s in spans:
        if s["parent"]:
            kids[s["parent"]].append((s["t0"], s["t1"]))
    for s in spans:
        covered, end = 0.0, s["t0"]
        for a, b in sorted(kids.get(s["id"], ())):
            a, b = max(a, end), min(b, s["t1"])
            if b > a:
                covered += b - a
                end = b
        s["self"] = s["t1"] - s["t0"] - covered


def span_metrics(traced, spans):
    """Per-layer metrics of one traced replay."""
    camps = traced["campaigns"]
    add_self_times(spans)
    by_name = collections.defaultdict(list)
    for s in spans:
        if s["campaign"] >= 0:
            c = camps[s["campaign"]]
            s["layer"], s["detail"] = LAYER_OF[c["layer"]], c["detail"]
        by_name[s["name"]].append(s)

    def sel(name, layer=None, detail=None):
        return [s for s in by_name.get(name, ())
                if layer in (None, s.get("layer"))
                and detail in (None, s.get("detail"))]

    def total(xs):
        return sum(s["self"] for s in xs)

    def mean_ms(xs):
        return 1e3 * total(xs) / len(xs) if xs else 0.0

    def p50_ms(xs):
        v = sorted(s["self"] for s in xs)
        return 1e3 * v[rank(50, len(v)) - 1] if v else 0.0

    def tail_ms(xs):
        return 1e3 * tail([s["self"] for s in xs])[1]

    m, tails = {}, {}
    m["core.fold_ms"] = mean_ms(sel("foldCampaignSamples"))
    m["core.store_put_ms"] = mean_ms(sel("ResultStore::put"))
    builds = sel("imageFor") + sel("irFor")
    m["toolchain.build_s"] = total(builds)
    m["toolchain.builds"] = len(builds)
    calls = sel("campaignFor")
    built = [s for s in calls if s.get("built")]
    built_s = sum(s["t1"] - s["t0"] for s in built)
    m["gefin.golden_s"] = total(calls)
    m["gefin.goldens"] = traced["golden_runs"]
    m["gefin.golden_minst_per_s"] = (
        sum(s["insts"] for s in built) / built_s / 1e6 if built_s else 0.0)
    m["gefin.trace_s"] = total(sel("ensureTrace"))
    m["fault.sample_ms"] = mean_ms(sel("prepareDriver", "uarch"))
    for layer in ("uarch", "arch", "swfi"):
        xs = sel("runDriverSample", layer)
        m[f"{layer}.samples"] = len(xs)
        m[f"{layer}.busy_s"] = total(xs)
        m[f"{layer}.sample_p50_ms"] = p50_ms(xs)
        m[f"{layer}.sample_tail_ms"] = tail_ms(xs)
        m[f"{layer}.ctx_ms"] = mean_ms(sel("makeCtx", layer))
        tails[f"{layer}.sample_tail_ms"] = tail_info([s["self"] for s in xs])
    ratios = [s["self"] / camps[s["campaign"]]["golden_s"]
              for s in sel("runDriverSample", "uarch")
              if camps[s["campaign"]]["golden_s"] > 0]
    m["uarch.sample_golden_ratio"] = statistics.fmean(ratios) if ratios else 0.0
    for st in STRUCTURES:
        xs = sel("runDriverSample", "uarch", st)
        m[f"uarch.{st}.busy_s"] = total(xs)
        m[f"uarch.{st}.sample_p50_ms"] = p50_ms(xs)
        m[f"uarch.{st}.sample_tail_ms"] = tail_ms(xs)
        tails[f"uarch.{st}.sample_tail_ms"] = tail_info([s["self"] for s in xs])
    for layer in ("arch", "swfi"):
        m[f"{layer}.golden_s"] = total(sel("makeCampaignExec", layer))
        m[f"{layer}.trace_s"] = total(sel("prepareDriver", layer))
    for f in FPMS:
        m[f"arch.{f}.busy_s"] = total(sel("runDriverSample", "arch", f))
    return m, tails


def plan_counts(camps):
    """Campaign, sample and golden-run counts a plan implies."""
    layers = collections.Counter(c["layer"] for c in camps)
    return {
        "campaigns": len(camps),
        "samples": sum(c["n"] for c in camps),
        # uarch goldens are shared per (core, variant); every PVF and
        # SVF campaign runs its own.
        "goldens": len({c["golden"] for c in camps if c["layer"] == "uarch"})
                   + layers["pvf"] + layers["svf"],
        "campaigns_by_layer": dict(layers),
    }


def record_reference(camps, dest):
    """Replace `dest` with this repetition's store entries."""
    shutil.rmtree(dest, ignore_errors=True)
    os.makedirs(dest)
    for c in camps:
        shutil.copy(c["path"], dest)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", help="name of a plan in perfbench/workloads")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=24,
                    help="run length; sets the number of repetitions")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--jobs", type=int, default=nproc(),
                    help="worker threads (default: all usable CPUs)")
    ap.add_argument("--plan", help="plan file instead of --workload (tests)")
    ap.add_argument("--reference",
                    help="reference store instead of the plan's (tests)")
    ap.add_argument("--failpoints", help="arm library failpoints (tests)")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite perfbench/reference/<workload> from this "
                         "run (seed 42 only)")
    args = ap.parse_args()
    if not args.plan and not args.workload:
        ap.error("--workload or --plan is required")
    if args.record_reference and (args.seed != 42 or not args.workload):
        ap.error("--record-reference needs --workload and seed 42")
    if args.jobs < 1:
        ap.error("--jobs must be >= 1")
    return args


def main():
    # Turn SIGTERM into an exit, so the running repetition is killed
    # and waited for and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args()
    name = args.workload or os.path.splitext(os.path.basename(args.plan))[0]
    plan_path = os.path.abspath(
        args.plan or os.path.join(HERE, "workloads", name + ".json"))
    if not os.path.isfile(plan_path):
        fail(f"no plan {plan_path}")
    with open(plan_path) as f:
        plan = json.load(f)
    ref = None if args.record_reference else (args.reference
                                              or plan.get("reference"))
    reference = os.path.join(ROOT, ref) if ref else None
    # A fixed number of repetitions per run, so that every commit
    # measures the same work; rep_seconds is the plan's nominal
    # repetition time on the 4-CPU reference host.
    per_rep = plan["rep_seconds"] * (2 if args.trace else 1)
    seeds = rep_seeds(args.seed,
                      min(MAX_REPS, max(1, int(args.seconds / per_rep))))

    build_root = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = runner_env(build_root)
    exe = build_runner(build_root, env)
    work = os.path.join(build_root, "perfbench", f"run-{os.getpid()}")
    spans_path = os.path.join(build_root, "perfbench", f"spans-{name}.json")
    os.makedirs(work, exist_ok=True)
    try:
        runner = Runner(exe, plan_path, args, work, spans_path, env)
        gate = Gate(reference)
        reps = []
        for k, seed in enumerate(seeds):
            u = runner.run("suite", f"u{k}", seed)
            gate.suite_report(u["suite"])
            entries = gate.campaigns(u["suite"]["campaigns"], "untraced", seed)
            if args.record_reference and not k:
                record_reference(u["suite"]["campaigns"],
                                 os.path.join(HERE, "reference", name))
            rep = {"untraced": u, "metrics": suite_metrics(u, args.jobs)}
            if args.trace:
                t = runner.run("traced", f"t{k}", seed)
                gate.campaigns(t["traced"]["campaigns"], "traced", seed,
                               pair=entries)
                with open(spans_path) as f:
                    rep["spans"] = span_metrics(t["traced"], json.load(f))
                rep["traced"] = t
                shutil.rmtree(t["store"])
            shutil.rmtree(u["store"])
            reps.append(rep)
        setups = [r["untraced"]["setup_s"] for r in reps]
        if not args.trace:
            while len(setups) < SETUP_SAMPLES:
                setups.append(runner.run("setup", f"s{len(setups)}",
                                         args.seed)["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def med(rows, key):
        return statistics.median(row[key] for row in rows)

    suite_rows = [r["metrics"][0] for r in reps]
    tails = dict(reps[0]["metrics"][1])
    if args.trace:
        span_rows = [r["spans"][0] for r in reps]
        tails.update(reps[0]["spans"][1])
        values = {key: med(suite_rows if key in UNTRACED_LAYER else span_rows,
                           key)
                  for key, _ in PER_LAYER if key != "trace.overhead_frac"}
        traced_wall = statistics.median(
            r["traced"]["traced"]["wall_s"] for r in reps)
        values["trace.overhead_frac"] = traced_wall / med(suite_rows, "wall_s") - 1
        units = PER_LAYER
    else:
        values = {key: med(suite_rows, key)
                  for key, _ in END_TO_END if key != "setup_s"}
        values["setup_s"] = statistics.median(setups)
        units = END_TO_END

    counts = plan_counts(reps[0]["untraced"]["suite"]["campaigns"])
    error_frac = gate.failed / gate.attempted
    correct = not gate.problems
    print(f"perfbench: workload {name}, seed {args.seed}, {len(reps)} "
          f"repetition(s), trace {args.trace}, jobs {args.jobs} of "
          f"{nproc()} CPUs")
    print(f"  plan: {counts['campaigns']} campaigns, {counts['samples']} "
          f"samples, {counts['goldens']} golden runs")
    for key, unit in units:
        note = ""
        if key in tails:
            t = tails[key]
            note = f"  (p{t['percentile']:g}, {t['beyond']} of {t['of']} beyond)"
        print(f"  {key:30s} {values[key]:14.6f} {unit}{note}")
    print(f"  {'error_frac':30s} {error_frac:14.6f} ratio  "
          f"({gate.failed} of {gate.attempted} samples lost)")
    for p in gate.problems[:20]:
        print(f"  FAIL {p}")
    if args.trace:
        print(f"  spans written to {os.path.relpath(spans_path, ROOT)}")
    meta = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "usable_cpus": nproc(), "jobs": args.jobs,
        "git_rev": git_rev(), "src_sha256": src_digest(),
        "build_type": BUILD_TYPE + " (asserts on)",
        "plan_seeds": seeds, "setup_samples": len(setups),
        "plan": counts, "tails": tails, "error_frac": error_frac,
        "checks": sorted(gate.checks),
        "accuracy": "the simulators are not validated against hardware; "
                    "no accuracy-error figure is reported",
    }
    print("perfbench-meta: " + json.dumps(meta, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {key: {"value": values[key], "unit": unit}
                    for key, unit in units},
    }))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
