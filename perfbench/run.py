"""boolgeo benchmark: closed-loop CLI requests from one client.

    python3 perfbench/run.py --workload {wide,stream,census} --seed N \
        --seconds S --trace {0,1}

Run from the repository root.  Requests go through the public CLI entry
points in-process (``build_parser().parse_args``, ``config_from_args``,
``run`` with in-memory streams), one at a time.  Inputs are generated
from the seed before each block is timed and every output is checked
against :mod:`oracle` after the block.  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` reports the per-layer metrics of a
traced run.  The last line of stdout is one JSON object.

Exit codes: 0 measured and every answer correct; 1 a wrong answer or an
unexpected crash; 2 the program under test could not be loaded.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import workloads

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")

MIN_SETUP_SAMPLES = 11  # fresh interpreters timed for setup_s
WARMUP_REQUESTS = 8
# Each slot's fastest latency is taken over at least this many requests,
# so even the 20-slot census block has 10 requests beyond its p90.
MIN_BLOCKS = 5
# Stop at the next block boundary past this many seconds since start,
# whatever --seconds says, so a run ends well within 180 s.
MAX_WALL_S = 120
STARTED = time.monotonic()

SETUP_SCRIPT = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import boolgeo.cli; boolgeo.cli.build_parser()"
)


def load_boolgeo():
    """Import boolgeo from ./src, or exit 2 when it is not there."""
    if not os.path.isfile(os.path.join(SRC, "boolgeo", "cli.py")):
        print(f"error: no boolgeo sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)
    import boolgeo
    import boolgeo.cli

    if os.path.dirname(os.path.abspath(boolgeo.__file__)) != os.path.join(SRC, "boolgeo"):
        print(f"error: imported boolgeo from {boolgeo.__file__}", file=sys.stderr)
        sys.exit(2)
    return boolgeo


class Client:
    """Issues requests through the CLI entry points, one at a time."""

    def __init__(self, boolgeo):
        self.boolgeo = boolgeo
        self.cli = boolgeo.cli
        self.errors = boolgeo.errors

    def issue(self, request, tracer=None):
        """Returns (exit code or None on a crash, stdout, stderr, ns)."""
        cli = self.cli
        stdin, out, err = io.StringIO(request.stdin), io.StringIO(), io.StringIO()
        root = tracer.begin_request() if tracer else None
        start = time.perf_counter_ns()
        try:
            try:
                with tracer.span("cli.args") if tracer else nullcontext():
                    cfg = cli.config_from_args(cli.build_parser().parse_args(request.argv))
            except self.errors.BoolgeoError as exc:  # usage errors, as cli.main reports them
                err.write(f"error: {exc}\n")
                code = 4
            else:
                code = cli.run(cfg, stdin, out, err)
        except Exception as exc:  # a traceback in a real process
            err.write(f"crash: {type(exc).__name__}\n")
            code = None
        elapsed = time.perf_counter_ns() - start
        if tracer:
            tracer.finish(root)
        return code, out.getvalue(), err.getvalue(), elapsed


class Tally:
    """Outcomes per slot of a block, over every block run so far.

    On a shared machine the CPU speed can swing by up to 2x for seconds
    at a time, so each slot keeps its fastest latency across the run's
    blocks: the program's own cost, with the contention that a run
    happens to meet filtered out.
    """

    def __init__(self):
        self.best_ns: dict[int, int] = {}  # slot -> fastest latency
        self.points: dict[int, int] = {}  # slot -> points a correct answer emits
        self.blocks = 0
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []
        self.out_bytes = 0

    def record(self, slot, request, outcome):
        code, out, err, elapsed = outcome
        self.attempted += 1
        self.out_bytes += len(out.encode())
        self.best_ns[slot] = min(elapsed, self.best_ns.get(slot, elapsed))
        self.points.setdefault(slot, 0)
        if code is not None and request.check(code, out, err):
            self.points[slot] = request.points
            return
        self.failed += 1
        # A crash on a deep-nesting probe is the known recursion defect;
        # anything else is a wrong answer and fails the benchmark.
        if not (request.probe and code is None):
            detail = err.strip().splitlines()[-1:] or [""]
            self.wrong.append(f"{request.argv[:6]} -> exit {code}: {detail[0][:200]}")

    def cycle_s(self):
        """Time for one block at every slot's fastest latency."""
        return sum(self.best_ns.values()) / 1e9


def run_block(client, block, tally, tracer=None):
    """Issue one block back to back, then check its outputs."""
    gc.collect()
    outcomes = [client.issue(request, tracer) for request in block]
    tally.blocks += 1
    for slot, (request, outcome) in enumerate(zip(block, outcomes)):
        tally.record(slot, request, outcome)


def _expire(signum, frame):
    raise TimeoutError("set-up interpreter did not exit within 60 s")


def time_setup():
    """Seconds for a fresh interpreter to import boolgeo and build the parser.

    ``Popen.wait(timeout)`` polls in steps of up to 50 ms, which would
    quantize the figure, so the wait blocks and an alarm guards it.
    """
    previous = signal.signal(signal.SIGALRM, _expire)
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", SETUP_SCRIPT, SRC])
    signal.alarm(60)
    try:
        code = proc.wait()
    except TimeoutError:
        proc.kill()
        proc.wait()
        raise
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    elapsed = time.perf_counter() - start
    if code != 0:
        raise subprocess.CalledProcessError(code, proc.args)
    return elapsed


def measure_peak_rss(workload, seed):
    """Peak RSS of a fresh process running the workload's first block."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--rss-probe"],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(proc.stdout.split()[-1])


def rss_probe(workload, seed):
    boolgeo = load_boolgeo()
    client = Client(boolgeo)
    rng = random.Random(seed)
    for request in workloads.BLOCKS[workload](rng, 0):
        client.issue(request)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)


def blocks(workload, seed):
    rng = random.Random(seed)
    make = workloads.BLOCKS[workload]
    block_no = 0
    while True:
        yield make(rng, block_no)
        block_no += 1


def run_loop(client, workload, seed, seconds, tracer=None, between=None):
    """Closed loop over whole blocks until ``seconds`` of request time and
    MIN_BLOCKS blocks.  With a tracer, blocks alternate between untraced
    and traced, so both see the same shapes.  ``between`` runs after each
    block, outside the requests' time."""
    warm = workloads.BLOCKS[workload](random.Random(f"warmup-{seed}"), 1)
    for request in warm[:WARMUP_REQUESTS]:
        client.issue(request)
    plain, traced = Tally(), Tally()
    busy_ns = 0
    for number, block in enumerate(blocks(workload, seed)):
        start = time.perf_counter_ns()
        if tracer is not None and number % 2 == 1:
            tracer.install(client.boolgeo)
            try:
                run_block(client, block, traced, tracer)
            finally:
                tracer.uninstall()
        else:
            run_block(client, block, plain)
        busy_ns += time.perf_counter_ns() - start
        if between is not None:
            between()
        if tracer is not None and number % 2 == 0:
            continue
        if busy_ns / 1e9 >= seconds and plain.blocks >= MIN_BLOCKS:
            break
        if time.monotonic() - STARTED > MAX_WALL_S:
            break
    return plain, traced


def end_to_end_metrics(tally, setup_times, peak_rss_mb):
    best_ms = [ns / 1e6 for ns in tally.best_ns.values()]
    cycle_s = tally.cycle_s()
    n = tally.attempted
    return {
        "latency_p50_ms": (statistics.median(best_ms), "ms", n),
        "latency_p90_ms": (statistics.quantiles(best_ms, n=10, method="inclusive")[8], "ms", n),
        "requests_per_s": (len(best_ms) / cycle_s, "1/s", n),
        "points_per_s": (sum(tally.points.values()) / cycle_s, "1/s", n),
        "peak_rss_mb": (peak_rss_mb, "MiB", 1),
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "success_ratio": (1 - tally.failed / n, "ratio", n),
    }


def per_layer_metrics(plain, traced, tracer):
    requests = traced.attempted
    self_ns = tracer.self_ns()
    counts = tracer.counts

    def ms(*names):
        return (sum(self_ns.get(name, 0) for name in names) / 1e6 / requests, "ms/req")

    def per(key):
        return (counts.get(key, 0) / requests, "count/req")

    index_calls = counts.get("ortho.index.calls", 0)
    metrics = {
        "ortho.index.self_ms": ms("ortho.index"),
        "ortho.index.calls": per("ortho.index.calls"),
        "ortho.index.repeat_share": (
            counts.get("ortho.index.repeats", 0) / index_calls if index_calls else 0.0,
            "ratio",
        ),
        "ortho.truth_table.self_ms": ms("ortho.truth_table"),
        "ortho.truth_table.calls": per("ortho.truth_table.calls"),
        "ortho.orthogonalize.self_ms": ms("ortho.orthogonalize"),
        "syntax.parse_system.self_ms": ms("syntax.parse_system"),
        "syntax.parse_system.calls": per("syntax.parse_system.calls"),
        "syntax.in_bytes": (counts.get("syntax.in_bytes", 0) / requests, "B/req"),
        "ortho.json.self_ms": ms("ortho.json"),
        "cli.out_bytes": (traced.out_bytes / requests, "B/req"),
        "solve.solutions_z.self_ms": ms("solve.solutions_z", "solve.count_solutions"),
        "solve.points": per("solve.points"),
        "ortho.x_from_z.self_ms": ms("ortho.x_from_z"),
        "ortho.x_from_z.calls": per("ortho.x_from_z.calls"),
        "algebra.cells_built": per("algebra.cells_built"),
        "cli.run.self_ms": ms("cli.run"),
        "cli.args.self_ms": ms("cli.args"),
        "cli.requests": (float(requests), "count"),
        "geometry.decompose.self_ms": ms("geometry.decompose"),
        "geometry.components": per("geometry.components"),
        "geometry.classify.self_ms": ms("geometry.classify"),
        "stats.exact.self_ms": ms("stats.exact"),
        "stats.sample.self_ms": ms("stats.sample"),
        "stats.systems_visited": per("stats.systems_visited"),
        "ortho.systems_built": per("ortho.systems_built"),
        "trace.overhead_ratio": (traced.cycle_s() / plain.cycle_s(), "ratio"),
    }
    return {name: (value, unit, requests) for name, (value, unit) in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rss-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.rss_probe:
        rss_probe(args.workload, args.seed)
        return 0

    boolgeo = load_boolgeo()
    client = Client(boolgeo)
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        plain, traced = run_loop(client, args.workload, args.seed, args.seconds, tracer)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write_csv(os.path.join(OUT_DIR, f"spans-{args.workload}.csv"))
        metrics = per_layer_metrics(plain, traced, tracer)
        tallies = (plain, traced)
    else:
        peak_rss_mb = measure_peak_rss(args.workload, args.seed)
        # Set-up is timed between blocks, so its samples span the run.
        setup_times = []
        plain, _ = run_loop(
            client, args.workload, args.seed, args.seconds,
            between=lambda: setup_times.append(time_setup()),
        )
        while len(setup_times) < MIN_SETUP_SAMPLES:
            setup_times.append(time_setup())
        metrics = end_to_end_metrics(plain, setup_times, peak_rss_mb)
        tallies = (plain,)

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    wrong = [line for t in tallies for line in t.wrong]
    for line in wrong[:20]:
        print(f"wrong: {line}")
    print(
        f"workload={args.workload} seed={args.seed} clients=1 closed-loop "
        f"attempted={attempted} failed={failed} failed_ratio={failed / attempted:.6f}"
    )
    for name, (value, unit, samples) in metrics.items():
        print(f"{name} {value:.6g} {unit} (n={samples})")
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not wrong else 1


if __name__ == "__main__":
    sys.exit(main())
