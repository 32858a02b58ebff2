#!/usr/bin/env python3
"""Benchmark for multipack: end-to-end and per-layer timings of three jobs.

    python3 perfbench/run.py --workload construct|verify|analysis \
        --seed N [--seconds S] [--trace 0|1]

Run from a multipack checkout: the package is imported from ./src.  Each run
builds its inputs from --seed (set-up), then runs whole passes over the
workload's ops until --seconds have elapsed (at least one pass), then checks
every op's outputs and prints one JSON object as its last line:

    {"correct": ..., "attempted": ops run, "failed": ops that raised, gave a
     wrong output or differed from the first pass, "metrics": {...}}

--trace 0 reports the end-to-end metrics from untraced passes:
  wall_ref     median over passes of one pass's time, in reference units
  op_p50_ref   median op latency over all passes, in reference units
  cpu_util     median over passes of process CPU time (user+sys, all
               threads) over wall time
  setup_s      median of five set-up rounds; a round starts a fresh Python
               that imports multipack, then builds and writes the inputs
  peak_rss_mb  peak resident set size over set-up and the first pass (later
               passes repeat the same ops; how much they add depends on
               heap reuse and on how many passes fit, not on the inputs)
A reference unit is the time of a fixed piece of interpreter and numpy work
(``Reference``) that a wall-clock timer runs every REF_PERIOD_S during the
timed phase, also in the middle of long calls.  Each stretch of time between
samples is converted at the speed the neighbouring samples measured, and the
samples themselves are left out, so an op's cost in reference units follows
the CPU's speed as it changes.  On the two-vCPU machine the benchmark was
tuned on, each vCPU switches between two speeds about 1.45x apart every few
seconds, independently of the other and of the load, so raw seconds spread
by 15-25 % between runs.  The raw figures (wall_s, cpu_s, op_p50_s and, with
at least 100 ops, op_p90_s) are printed on the summary line.
--trace 1 alternates untraced and traced passes and reports per-layer metrics
from the traced ones: busy time per layer (<module>.<function>.busy_s, the
sum of the spans around the public calls into it), the work counts, their
ratios, <workload>.op.self_s (op time outside layer spans) and
<workload>.trace.overhead (traced over untraced pass time, in reference
units).  Spans are kept in memory and written to .perfbench_out/ when the run
ends, with a results record holding the environment, the work counts and the
metrics.
The work counts of a seed must repeat exactly: on every pass, and against
an earlier run of the same seed on the same sources.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import warnings
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One worker thread and one BLAS thread, so that the op runs on the CPU whose
# speed the reference samples.
THREADS = 1
REF_PERIOD_S = 0.05
REF_SMOOTH = 3  # a sample's speed is the median of itself and 3 neighbours each side
THREAD_VARS = ("MULTIPACK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_ROUNDS = 5
IMPORT_PROBE = "import multipack.cli"
P90_MIN_OPS = 100

END_TO_END = {"wall_ref": "ref", "op_p50_ref": "ref", "cpu_util": "ratio", "setup_s": "s", "peak_rss_mb": "MB"}

LAYERS = (
    "construction.sample_code",
    "construction.find_bad_lists",
    "construction.expurgate",
    "construction.min_avg_subset",
    "construction.verify_packing",
    "construction.density_report",
    "deviation.rate_function",
    "deviation.laplace_check",
    "deviation.mc_tail",
    "geometry.avg_sq_radius",
    "geometry.chebyshev_radius",
    "geometry.rad_p",
    "fileio.read",
    "fileio.write",
    "cli.main",
)
# Work counts reported as per-layer metrics, with their units.
COUNTS = {
    "construction.sample_code.points": "count",
    "construction.find_bad_lists.subsets": "count",
    "construction.find_bad_lists.bad_lists": "count",
    "construction.expurgate.removed": "count",
    "construction.min_avg_subset.subsets": "count",
    "construction.verify_packing.window_points": "count",
    "construction.verify_packing.same_tile_lists": "count",
    "construction.verify_packing.cross_pairs": "count",
    "construction.verify_packing.fail_verdicts": "count",
    "construction.density_report.mc_samples": "count",
    "construction.density_report.covered": "count",
    "deviation.rate_function.calls": "count",
    "deviation.rate_function.iterations": "count",
    "deviation.laplace_check.calls": "count",
    "deviation.mc_tail.samples": "count",
    "deviation.mc_tail.hits": "count",
    "geometry.avg_sq_radius.calls": "count",
    "geometry.chebyshev_radius.calls": "count",
    "geometry.chebyshev_radius.iterations": "count",
    "geometry.chebyshev_radius.unconverged": "count",
    "geometry.rad_p.calls": "count",
    "fileio.read.bytes": "B",
    "fileio.write.bytes": "B",
    "cli.main.calls": "count",
    "cli.main.bytes_written": "B",
    "warnings.convergence": "count",
}
# name: (numerator, denominator, unit); 0 where the denominator is 0.
RATIOS = {
    "construction.find_bad_lists.subsets_per_s": (
        "construction.find_bad_lists.subsets", "construction.find_bad_lists.busy_s", "1/s"),
    "construction.find_bad_lists.hit_ratio": (
        "construction.find_bad_lists.bad_lists", "construction.find_bad_lists.subsets", "ratio"),
    "construction.expurgate.kept_ratio": (
        "construction.expurgate.kept", "construction.sample_code.points", "ratio"),
    "construction.density_report.samples_per_s": (
        "construction.density_report.mc_samples", "construction.density_report.busy_s", "1/s"),
    "construction.density_report.covered_ratio": (
        "construction.density_report.covered", "construction.density_report.mc_samples", "ratio"),
    "deviation.rate_function.busy_per_iter_s": (
        "deviation.rate_function.busy_s", "deviation.rate_function.iterations", "s"),
    "deviation.mc_tail.coords_per_s": ("deviation.mc_tail.coords", "deviation.mc_tail.busy_s", "1/s"),
    "deviation.mc_tail.hit_ratio": ("deviation.mc_tail.hits", "deviation.mc_tail.samples", "ratio"),
}
WORKLOAD_NAMES = ("construct", "verify", "analysis")


def per_layer_units() -> dict:
    units = {f"{layer}.busy_s": "s" for layer in LAYERS}
    units.update(COUNTS)
    units.update({name: unit for name, (_, _, unit) in RATIOS.items()})
    for w in WORKLOAD_NAMES:
        units[f"{w}.op.self_s"] = "s"
        units[f"{w}.trace.overhead"] = "ratio"
    return units


class Tracer:
    """In-memory spans: [id, parent id, name, start, end, pass, label]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self.pass_no = 0
        self._parent = None

    @contextlib.contextmanager
    def span(self, name: str, label: str | None = None):
        rec = [len(self.spans), self._parent, name, time.perf_counter(), None, self.pass_no, label]
        self.spans.append(rec)
        outer, self._parent = self._parent, rec[0]
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._parent = outer

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "pass", "label")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps({"run": self.run_id, **dict(zip(keys, rec))}) + "\n")


class NoTracer:
    """Tracing off: every span is one shared no-op context."""

    _null = contextlib.nullcontext()

    def span(self, name, label=None):
        return self._null


class Reference:
    """Fixed interpreter and numpy work, run on a timer to sample the current
    speed of the CPU the benchmark runs on.

    It mixes integer and float loops, small-array numpy calls, a matmul, a
    sort and index tuples turned into an array; over recorded passes such a
    sum tracked the speed of both the short analysis ops and the long verify
    ops better than any one part."""

    def __init__(self):
        import numpy
        from scipy.special import erf

        rng = numpy.random.default_rng(0)
        self._np, self._erf = numpy, erf
        self._a = rng.standard_normal((48, 48))
        self._v = rng.standard_normal(4000)
        self._x = rng.standard_normal((6, 5))
        self._grid = numpy.linspace(-1.0, 1.0, 96)
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy = False

    def _work(self) -> None:
        np = self._np
        s = 0
        for i in range(4000):
            s += i * i
        f = 0.0
        for i in range(3000):
            f += math.sqrt(i + 0.5)
        for _ in range(40):
            d = self._x - self._x.mean(axis=0)
            float(np.einsum("ij,ij->", d, d))
            self._erf(self._grid).sum()
        for _ in range(10):
            self._a @ self._a
            np.sort(self._v)
        np.array(list(itertools.islice(itertools.combinations(range(40), 3), 3000)))

    def _on_timer(self, signum, frame) -> None:
        if self._busy:  # a late tick inside a sample; samples must not overlap
            return
        self._busy = True
        t0 = time.perf_counter()
        self._work()
        self.starts.append(t0)
        self.ends.append(time.perf_counter())
        self._busy = False

    @contextlib.contextmanager
    def sampling(self):
        """Run the reference work every REF_PERIOD_S of wall time."""
        self._on_timer(None, None)
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, REF_PERIOD_S, REF_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._build_clocks()

    def _build_clocks(self) -> None:
        """Cumulative wall time without the samples (``_sec``) and the same
        time in reference units (``_ref``), at every sample start and end."""
        d = [e - s for s, e in zip(self.starts, self.ends)]
        self.unit = [statistics.median(d[max(0, k - REF_SMOOTH):k + REF_SMOOTH + 1]) for k in range(len(d))]
        self._sec, self._ref = [0.0, 0.0], [0.0, 0.0]
        for k in range(1, len(d)):
            gap = self.starts[k] - self.ends[k - 1]
            self._sec += [self._sec[-1] + gap] * 2
            self._ref += [self._ref[-1] + 2.0 * gap / (self.unit[k - 1] + self.unit[k])] * 2
        self._edges = [t for pair in zip(self.starts, self.ends) for t in pair]

    def _clock(self, t: float, values: list, in_ref: bool) -> float:
        i = bisect.bisect_right(self._edges, t)
        if i == 0:
            return values[0] - (self._edges[0] - t) / (self.unit[0] if in_ref else 1.0)
        if i == len(self._edges):
            return values[-1] + (t - self._edges[-1]) / (self.unit[-1] if in_ref else 1.0)
        if i % 2:  # inside a sample
            return values[i - 1]
        return values[i - 1] + (t - self._edges[i - 1]) * (values[i] - values[i - 1]) / (
            self._edges[i] - self._edges[i - 1])

    def seconds(self, start: float, end: float) -> float:
        """Wall time of [start, end] without the reference samples in it."""
        return self._clock(end, self._sec, False) - self._clock(start, self._sec, False)

    def cost(self, start: float, end: float) -> float:
        """[start, end] in reference units, without the samples in it."""
        return self._clock(end, self._ref, True) - self._clock(start, self._ref, True)


def cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def set_up(build, seed: int, workdir: str):
    """SETUP_ROUNDS set-up rounds; returns the last round's ops and the median time."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times, ops = [], None
    for r in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env, check=True,
                       timeout=120, stdout=subprocess.DEVNULL)
        inputs = os.path.join(workdir, f"inputs-{r}")
        os.mkdir(inputs)
        ops = build(seed, inputs)
        times.append(time.perf_counter() - t0)
    return ops, statistics.median(times)


def run_pass(ops, tracer, op_span: str, warning_cls) -> dict:
    spans, outcomes, errors = [], [], []
    cpu = 0.0
    for op in ops:
        c0 = cpu_seconds()
        t0 = time.perf_counter()
        try:
            with tracer.span(op_span, op.label), warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", warning_cls)
                out = op.run(tracer)
            out.add("warnings.convergence", sum(issubclass(w.category, warning_cls) for w in caught))
        except Exception:
            out = None
            errors.append(f"{op.label}: {traceback.format_exc(limit=3).strip().splitlines()[-1]}")
        spans.append((t0, time.perf_counter()))
        cpu += cpu_seconds() - c0
        outcomes.append(out)
    return {"spans": spans, "cpu": cpu, "outcomes": outcomes, "errors": errors}


def check_ops(ops, passes):
    """Compare every pass with the first and check the first pass's outputs.

    Returns (failed executions, problems, per-op counts of one pass)."""
    failed, problems, op_counts = 0, [], []
    for i, op in enumerate(ops):
        outs = [p["outcomes"][i] for p in passes]
        ref = next((o for o in outs if o is not None), None)
        if ref is None:
            failed += len(outs)
            op_counts.append({})
            continue
        ref_counts, ref_digest = dict(ref.counts), op.digest(ref)
        bad = [o is None or o.counts != ref_counts or op.digest(o) != ref_digest for o in outs]
        if any(o is not None for o, b in zip(outs, bad) if b):
            problems.append(f"{op.label}: outputs or counts differ between passes of one seed")
        try:
            wrong = op.check(ref)
        except Exception:
            wrong = [f"check raised {traceback.format_exc(limit=3).strip().splitlines()[-1]}"]
        problems += [f"{op.label}: {w}" for w in wrong]
        failed += len(outs) if wrong else sum(bad)
        op_counts.append(dict(ref.counts))
    return failed, problems, op_counts


def compare_with_earlier(path: Path, source: str, op_counts) -> list[int]:
    """Indices of ops whose counts differ from an earlier run of this seed on
    the same sources; records this run's counts for the next one."""
    differ = []
    if path.exists():
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier["source_sha256"] == source and len(earlier["op_counts"]) == len(op_counts):
            differ = [i for i, (a, b) in enumerate(zip(earlier["op_counts"], op_counts)) if a != b]
    with open(path, "w") as fh:
        json.dump({"source_sha256": source, "op_counts": op_counts}, fh)
    return differ


def source_digest() -> str:
    """Digest of the package and benchmark sources, which fix the work counts."""
    h = hashlib.sha256()
    for f in sorted([*(SRC / "multipack").rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(f.relative_to(ROOT).as_posix().encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def git_revision() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        **{var: os.environ[var] for var in THREAD_VARS},
        "git_revision": git_revision(),
        "source_sha256": source_digest(),
    }


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer_metrics(workload: str, tracer: Tracer, ref: Reference, passes, counts: dict) -> dict:
    traced = [i for i, p in enumerate(passes) if p["traced"]]
    busy = {i: defaultdict(float) for i in traced}
    child_time = defaultdict(float)
    durations = [ref.seconds(start, end) for _, _, _, start, end, _, _ in tracer.spans]
    for (sid, parent, name, _, _, pass_no, _), dur in zip(tracer.spans, durations):
        busy[pass_no][name] += dur
        if parent is not None:
            child_time[parent] += dur
    op_name = f"{workload}.op"
    for (sid, parent, name, _, _, pass_no, _), dur in zip(tracer.spans, durations):
        if name == op_name:
            busy[pass_no]["self"] += dur - child_time[sid]
    values = {n: 0.0 for n in per_layer_units()}
    values.update({n: counts.get(n, 0) for n in COUNTS})
    for layer in LAYERS:
        values[f"{layer}.busy_s"] = statistics.median(busy[i][layer] for i in traced)
    values[f"{workload}.op.self_s"] = statistics.median(busy[i]["self"] for i in traced)
    walls = defaultdict(list)
    for p in passes:
        walls[p["traced"]].append(p["wall_ref"])
    values[f"{workload}.trace.overhead"] = statistics.median(walls[True]) / statistics.median(walls[False])
    merged = {**counts, **values}
    for name, (num, den, _) in RATIOS.items():
        values[name] = ratio(merged.get(num, 0), merged.get(den, 0))
    return values


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "multipack" / "__init__.py").is_file():
        print(f"error: no multipack sources under {SRC}; run from a multipack checkout", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(THREADS)
    sys.path.insert(0, str(SRC))
    import multipack
    from multipack.errors import ConvergenceWarning
    import workloads

    if Path(multipack.__file__).resolve().parent != SRC / "multipack":
        print(f"error: imported multipack from {multipack.__file__}, not {SRC}", file=sys.stderr)
        return 2

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    run_id = f"{stem}-trace{args.trace}-{time.time_ns()}"
    env = environment(args.workload, args.seed)
    print("environment: " + json.dumps(env))
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=OUT_DIR)
    try:
        ops, setup_s = set_up(workloads.WORKLOADS[args.workload], args.seed, workdir)
        tracer, off, ref = Tracer(run_id), NoTracer(), Reference()
        passes = []
        t_end = time.perf_counter() + args.seconds
        with ref.sampling():
            while True:
                traced = bool(args.trace) and len(passes) % 2 == 1
                tracer.pass_no = len(passes)
                p = run_pass(ops, tracer if traced else off, f"{args.workload}.op", ConvergenceWarning)
                p["traced"] = traced
                passes.append(p)
                if len(passes) == 1:
                    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                if time.perf_counter() >= t_end and (not args.trace or len(passes) >= 2):
                    break
        failed, problems, op_counts = check_ops(ops, passes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in passes:
        problems += p["errors"]
    differ = compare_with_earlier(OUT_DIR / f"{stem}.counts.json", env["source_sha256"], op_counts)
    for i in differ:
        problems.append(f"{ops[i].label}: work counts differ from an earlier run of seed {args.seed}")
    failed += len(differ)
    counts = defaultdict(int)
    for c in op_counts:
        for k, v in c.items():
            counts[k] += v
    counts = dict(sorted(counts.items()))
    attempted = len(ops) * len(passes)

    for p in passes:
        p["latencies"] = [ref.seconds(*span) for span in p["spans"]]
        p["norm"] = [ref.cost(*span) for span in p["spans"]]
        p["wall"], p["wall_ref"] = sum(p["latencies"]), sum(p["norm"])
        p["cpu_util"] = p["cpu"] / sum(end - start for start, end in p["spans"])
    untraced = [p for p in passes if not p["traced"]]
    latencies = [t for p in untraced for t in p["latencies"]]
    norm = [t for p in untraced for t in p["norm"]]
    summary = {
        "passes": len(passes),
        "traced_passes": len(passes) - len(untraced),
        "ops_per_pass": len(ops),
        "pass_wall_s": [p["wall"] for p in passes],
        "pass_wall_ref": [p["wall_ref"] for p in passes],
        "reference_s": statistics.median(ref.unit),
        "reference_samples": len(ref.unit),
        "wall_s": statistics.median(p["wall"] for p in untraced),
        "cpu_s": statistics.median(p["cpu"] for p in untraced),
        "op_p50_s": statistics.median(latencies),
        "fail_ratio": ratio(failed, attempted),
    }
    op_medians = [[op.label, statistics.median(p["latencies"][i] for p in untraced),
                   statistics.median(p["norm"][i] for p in untraced)] for i, op in enumerate(ops)]
    if len(latencies) >= P90_MIN_OPS:
        summary["op_p90_s"] = statistics.quantiles(latencies, n=10)[-1]
        summary["op_p90_ref"] = statistics.quantiles(norm, n=10)[-1]
    if args.trace:
        values = per_layer_metrics(args.workload, tracer, ref, passes, counts)
        units = per_layer_units()
        tracer.write(OUT_DIR / f"{stem}.spans.jsonl")
    else:
        values = {
            "wall_ref": statistics.median(p["wall_ref"] for p in untraced),
            "op_p50_ref": statistics.median(norm),
            "cpu_util": statistics.median(p["cpu_util"] for p in untraced),
            "setup_s": setup_s,
            "peak_rss_mb": peak_rss_mb,
        }
        units = END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    correct = failed == 0 and not problems
    with open(OUT_DIR / f"{stem}-trace{args.trace}.json", "w") as fh:
        json.dump({"run": run_id, "environment": env, "summary": summary, "counts": counts,
                   "problems": problems, "metrics": metrics, "op_medians_s_ref": op_medians}, fh, indent=1)

    print("work counts: " + json.dumps(counts))
    print("summary: " + json.dumps(summary))
    print(f"fail_ratio: {failed}/{attempted}")
    for line in problems[:20]:
        print("problem: " + line, file=sys.stderr)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
