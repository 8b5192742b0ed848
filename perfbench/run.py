"""Benchmark of the wqsym library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; wqsym is imported from ``src/``, in this
one process, with no worker pool.  Workloads (see BENCHMARK.json):

* ``hopf-hsym``: ``wqsym verify --suite hopf --algebra hsym --lambda -1
  --max-degree 3`` through ``cli.main``;
* ``morphisms``: the morphism laws at budget 3 and one fixed index shard
  of the annihilation laws at length 4;
* ``gamma``: one fixed shard of the generating-function identities at the
  sizes of ``verify --suite gamma --max-degree 3``, random posets from the
  seed;
* ``queries``: a seeded stream of single CLI commands (see queries.py).

Each workload is a fixed amount of work, a pass of about one second (five
on ``queries``), repeated while another pass fits in ``--seconds`` (at least one).

Timings are taken against a reference: a fixed piece of pure-Python work
of the benchmark's own (a stuffle product computed by the queries oracle,
independent of ``src/``), timed right before and right after each pass of
a suite and each block of commands of ``queries``.  A shared machine
changes speed by a third and more from one minute to the next, and the
reference slows down with the program, so every timing is scaled by
REF_SECONDS over the reference's time next to it: it is reported in
seconds on a machine where one reference product takes REF_SECONDS.  The
measured times are printed too, as comments.  Each timing is then a median
over the passes.

With ``--trace 0`` the last line of stdout is a JSON object with
``wall_s``, the pass time; ``latency_p50_ms`` and ``latency_p99_ms`` over
the operations of a pass (a CLI command on ``queries``, the pass itself on
the suites), each operation's latency being its median over the passes;
``peak_rss_mb``; and ``setup_s``, the median time from starting a fresh
process to the end of its set-up, over several processes.  With ``--trace
1`` it runs one untraced warm-up pass, then one traced pass, and reports
the per-layer metrics of spans.py (self times as measured) and the
tracing overhead: the traced pass time minus the median of three untraced
passes after it, both scaled by the reference.

Every run checks its outputs: each suite must report exactly the per-law
``checked`` counts in expected.json, all passing; every query must exit 0
and pass its oracle, and the CLI output must match the recorded digests.
``attempted`` counts checks (suites) or commands (queries).  ``failed`` on
the suites is the suites' own failure count, which the law reports cap at
20 per law, so it is a lower bound.  A run whose outputs are wrong prints
``"correct": false`` and exits 1.  ``--smoke`` runs tiny sizes.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
EXPECTED = os.path.join(HERE, "expected.json")

WORKLOADS = ("hopf-hsym", "morphisms", "gamma", "queries")
DEFAULT_SEED = 1
# Fresh processes timed for setup_s.
SETUP_RUNS = 11
# Untraced passes whose median time the traced pass is compared with.
UNTRACED_PASSES = 3
# Commands of the default seed's stream whose output digest every run
# checks, whatever its seed.
GOLDEN_COMMANDS = 300

# The reference: REF_WORDS multiplied with the queries oracle's stuffle
# product at lambda = -1.  Timings are reported at the speed where one such
# product takes REF_SECONDS, about its time on a 2-vCPU shared host.
REF_WORDS = ((1, -2, 3, -4), (-1, 2, -3))
REF_SECONDS = 0.0004
# Reference products timed before and after each suite pass (about 40 ms)
# and between blocks of commands on queries (about 10 ms per block of
# QUERY_BLOCK commands, some 0.2 s of work).
SUITE_REF_REPEAT = 100
QUERY_REF_REPEAT = 25
QUERY_BLOCK = 50

# Sizes per mode.  The shards are fixed so that every commit runs the
# same checks; expected.json records them with the counts.
SIZES = {
    "full": {
        "hopf-hsym": {"max_degree": 3},
        "morphisms": {"budget": 3, "length": 4, "shard": [0, 32]},
        "gamma": {"params": [3, 6, 4, 8], "shard": [0, 16]},
    },
    "smoke": {
        "hopf-hsym": {"max_degree": 2},
        "morphisms": {"budget": 2, "length": 3, "shard": [0, 32]},
        "gamma": {"params": [2, 4, 3, 6], "shard": [0, 16]},
    },
}


def reference(repeat):
    """Seconds that repeat reference products take.  The cyclic garbage
    collector is off meanwhile: it would walk the program's heap, so the
    reference would slow down as the program's caches grow."""
    from queries import stuffle_product

    lam = Fraction(-1)
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(repeat):
            stuffle_product(*REF_WORDS, lam)
        return time.perf_counter() - start
    finally:
        gc.enable()


def scale(repeat, before, after):
    """The factor from measured seconds to seconds at the reference speed,
    from the reference's times before and after a piece of work."""
    return REF_SECONDS * repeat * 2 / (before + after)


class Pass:
    """One pass over a workload's work: its time and the latency of each
    operation in it (scaled by the reference), its measured time, and
    what the correctness check needs."""

    def __init__(self, wall, latencies, raw_wall, result):
        self.wall = wall
        self.latencies = latencies
        self.raw_wall = raw_wall
        self.result = result


# ---------------------------------------------------------------------------
# suites


def _cli(argv):
    from wqsym import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Suite:
    """A verification suite: one pass is one call of run(), which returns
    the CLI exit code and the JSON report."""

    def __init__(self, name, size, seed):
        self.name = name
        self.size = size
        self.seed = seed

    def run(self):
        from wqsym import hopf, morphisms, ppartitions

        size = self.size
        if self.name == "hopf-hsym":
            rc, text = _cli(["verify", "--suite", "hopf", "--algebra", "hsym",
                             "--lambda", "-1", "--max-degree", str(size["max_degree"])])
            return rc, json.loads(text)
        if self.name == "morphisms":
            laws = morphisms.verify_morphism_laws(size["budget"])
            laws += morphisms.verify_annihilation(size["length"], shard=tuple(size["shard"]))
        else:
            laws = ppartitions.verify_gamma_identities(
                *size["params"], seed=self.seed, shard=tuple(size["shard"]))
        return 0, hopf.report_to_json(laws)

    def run_pass(self):
        before = reference(SUITE_REF_REPEAT)
        start = time.perf_counter()
        result = self.run()
        raw = time.perf_counter() - start
        wall = raw * scale(SUITE_REF_REPEAT, before, reference(SUITE_REF_REPEAT))
        return Pass(wall, [wall], raw, result)

    def check(self, passes, expected):
        """(attempted, failed, problems) over all passes."""
        attempted = failed = 0
        problems = []
        if expected.get("size") != self.size:
            problems.append(f"size {self.size} differs from expected {expected.get('size')}")
        for p in passes:
            rc, report = p.result
            attempted += report["summary"]["total"]
            failed += report["summary"]["failed"]
            counts = {c["law"]: c["checked"] for c in report["checks"]}
            if rc != 0:
                problems.append(f"exit code {rc}")
            if counts != expected["laws"]:
                problems.append(f"checked counts {counts} differ from expected {expected['laws']}")
            problems += [f"law {c['law']!r} reports {c['status']}"
                         for c in report["checks"] if c["status"] != "pass"]
        return attempted, failed, sorted(set(problems))


# ---------------------------------------------------------------------------
# queries


class Queries:
    """The command stream: one pass sends every command through cli.main,
    in order, one at a time."""

    def __init__(self, seed, smoke, workdir):
        import queries

        self.q = queries
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.stream = self._stream(seed)
        self.size = {"commands": len(self.stream)}
        self.outputs = None

    def _stream(self, seed):
        per_kind = self.q.SMOKE_PER_KIND if self.smoke else self.q.PER_KIND
        sub = tempfile.mkdtemp(prefix=f"seed{seed}-", dir=self.workdir)
        return self.q.make_stream(random.Random(seed), sub, per_kind)

    def run_pass(self, stream=None):
        """Latency per command, scaled by the reference timed around its
        block of QUERY_BLOCK commands; the result is the output digest and
        the exit codes.  The first pass over the stream keeps its outputs,
        compressed, for the checks; later passes keep none, so that memory
        does not grow with the number of passes."""
        from wqsym import cli

        keep = stream is None and self.outputs is None
        stream = self.stream if stream is None else stream
        clock = time.perf_counter
        raw = []
        latencies = []
        codes = []
        outputs = []
        h = hashlib.sha256()
        before = reference(QUERY_REF_REPEAT)
        for n, query in enumerate(stream, 1):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = clock()
                rc = cli.main(query.argv)
                raw.append(clock() - start)
            if n % QUERY_BLOCK == 0 or n == len(stream):
                after = reference(QUERY_REF_REPEAT)
                factor = scale(QUERY_REF_REPEAT, before, after)
                latencies += [t * factor for t in raw[len(latencies):]]
                before = after
            text = out.getvalue()
            h.update(f"{rc}\n{len(text)}\n".encode())
            h.update(text.encode())
            codes.append(rc)
            if keep:
                outputs.append(zlib.compress(text.encode()))
        if keep:
            self.outputs = outputs
        return Pass(math.fsum(latencies), latencies, math.fsum(raw), (h.hexdigest(), codes))

    def check(self, passes, expected):
        q = self.q
        problems = []
        if expected.get("size") != self.size:
            problems.append(f"size {self.size} differs from expected {expected.get('size')}")
        attempted = len(self.stream) * len(passes)
        digest, codes = passes[0].result
        failed = 0
        for query, rc, blob in zip(self.stream, codes, self.outputs):
            if not q.check(query, rc, zlib.decompress(blob).decode()):
                failed += 1
                problems.append(f"command failed its check: wqsym {' '.join(query.argv)}")
        for p in passes[1:]:
            failed += sum(rc != 0 for rc in p.result[1])
            if p.result[0] != digest:
                problems.append("outputs differ between passes")
        if self.seed == DEFAULT_SEED and digest != expected["digest"]:
            problems.append(f"output digest {digest} differs from expected {expected['digest']}")
        golden = self._stream(DEFAULT_SEED)[:GOLDEN_COMMANDS]
        golden_digest = self.run_pass(golden).result[0]
        if golden_digest != expected["golden_digest"]:
            problems.append(f"golden digest {golden_digest} differs from expected "
                            f"{expected['golden_digest']}")
        return attempted, failed, problems[:20]


# ---------------------------------------------------------------------------
# running


def make_workload(name, seed, smoke, workdir):
    if name == "queries":
        return Queries(seed, smoke, workdir)
    return Suite(name, SIZES["smoke" if smoke else "full"][name], seed)


def timed_passes(workload, seconds, sample_setup):
    """Passes while the next one, taking as long as the last, ends within
    seconds; at least one.  The set-up samples are spread over the same
    time, so that a slow spell of the machine hits few of them."""
    passes = []
    setups = []
    start = time.perf_counter()
    while True:
        if len(setups) * seconds <= (time.perf_counter() - start) * SETUP_RUNS:
            setups.append(sample_setup())
        gc.collect()
        began = time.perf_counter()
        passes.append(workload.run_pass())
        if 2 * time.perf_counter() - began - start > seconds:
            break
    setups += [sample_setup() for _ in range(SETUP_RUNS - len(setups))]
    return passes, setups


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def setup_sampler(args):
    """A function that starts a fresh set-up process and returns the time
    from its start to the end of its set-up, read on the shared monotonic
    clock and scaled by the reference timed around the process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])

    def sample():
        before = reference(SUITE_REF_REPEAT)
        start = time.monotonic()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
        raw = float(proc.stdout.split()[-1]) - start
        return raw * scale(SUITE_REF_REPEAT, before, reference(SUITE_REF_REPEAT))

    return sample


def provenance(args, workload):
    git = "unavailable"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or git
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "wqsym")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                h.update(fname.encode() + b"\0" + fh.read())
    mode = "smoke" if args.smoke else "full"
    return (f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
            f"trace={args.trace} mode={mode} size={json.dumps(workload.size)}\n"
            f"# nproc={os.cpu_count()} python={platform.python_version()} git={git} "
            f"src_sha256={h.hexdigest()[:16]}")


def run(args):
    from wqsym import cli  # noqa: F401  (set-up includes importing the CLI)

    with open(args.expected) as fh:
        expected = json.load(fh)["smoke" if args.smoke else "full"][args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        workload = make_workload(args.workload, args.seed, args.smoke, workdir)
        if args.setup_only:
            print(time.monotonic())
            return 0
        gc.collect()
        gc.freeze()
        if args.trace:
            import spans

            # An untraced pass first fills the module-level caches, so the
            # traced pass sees the same warm state as the passes it is
            # compared with, and as the timed passes of --trace 0.
            warmup = workload.run_pass()
            gc.collect()
            tracer = spans.Tracer()
            tracer.install()
            try:
                traced = workload.run_pass()
            finally:
                tracer.uninstall()
            untraced = []
            for _ in range(UNTRACED_PASSES):
                gc.collect()
                untraced.append(workload.run_pass())
            passes = [warmup, traced] + untraced
            metrics = tracer.metrics()
            overhead = traced.wall - statistics.median(p.wall for p in untraced)
            metrics["trace_overhead_s"] = {"value": overhead, "unit": "s"}
        else:
            passes, setups = timed_passes(workload, args.seconds, setup_sampler(args))
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

            # an operation's latency is its median over the passes
            latencies = [statistics.median(op) for op in zip(*(x.latencies for x in passes))]
            metrics = {
                "wall_s": {"value": statistics.median(x.wall for x in passes), "unit": "s"},
                "latency_p50_ms": {"value": percentile(latencies, 50) * 1000, "unit": "ms"},
                "latency_p99_ms": {"value": percentile(latencies, 99) * 1000, "unit": "ms"},
                "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
                "setup_s": {"value": statistics.median(setups), "unit": "s"},
            }
        attempted, failed, problems = workload.check(passes, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(provenance(args, workload))
    if not args.trace:
        print(f"# passes={len(passes)} latency_samples={len(latencies)} "
              f"measured_wall_s={statistics.median(p.raw_wall for p in passes):.6g} "
              f"reference_s={REF_SECONDS} (timings below are at the reference speed)")
    for problem in problems:
        print(f"# FAILED: {problem}")
    for name, m in metrics.items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for tests")
    parser.add_argument("--expected", default=EXPECTED,
                        help="per-law counts and output digests to check against")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "wqsym", "__init__.py")):
        print(f"error: no wqsym sources in {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
