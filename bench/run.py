"""ccl benchmark: one workload, run as jobs through the public CLI entry
point ``ccl.cli.main`` for a fixed time; prints one JSON result line last.

    python3 bench/run.py --workload eca-transition --seed 0 --seconds 30 --trace 0

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json and
``--trace 1`` the per-layer ones (spans.py).  Every job's output tree is
checked: against golden.json where it holds a digest for the seed, against
oracle.py, and against the run's first output, so outputs at 1 and 2
threads must be byte-identical.  See README.md.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
import zlib
from pathlib import Path
from time import perf_counter

import oracle
from spans import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("eca-classify", "eca-transition", "tm-search", "k3-classify")
SETUP_SAMPLES = 15
MIN_ROUNDS = 3      # rounds of jobs run even when they overrun --seconds
TRANSITION_RULE = 22  # highest transition coefficient of all 256 ECA

_IMPORT_PROBE = """\
import time
t = time.perf_counter()
import ccl, ccl.cli
print(time.perf_counter() - t, ccl.__file__)
"""


def _csv(numbers):
    return ",".join(str(n) for n in numbers)


def job_argv(workload, seed, tiny=False):
    """ccl command line of one job of ``workload``, without --out and
    --threads.  Inputs are drawn from ``seed``; ``tiny`` shrinks the job to
    a fraction of a second for the warm-up and the self-check."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "eca-classify":
        return ["classify", "--steps", "20" if tiny else "200"]
    if workload == "eca-transition":
        # Rule 22 is always in the set and always ranked first, so every
        # seed scans the same rule (ROADMAP W3): scan cost differs by 3x
        # between rules.  The seed draws the other swept rules (W2); sweep
        # cost differs by 10x between rules, so they are few.
        others = [r for r in range(256) if r != TRANSITION_RULE]
        rules = sorted([TRANSITION_RULE] + rng.sample(others, 2 if tiny else 3))
        sizes = ((4, 10, 2, 6, 60, 3) if tiny else (20, 75, 4, 30, 600, 12))
        flags = ("--n", "--t-block", "--blocks", "--scan", "--profile-steps",
                 "--profile-blocks")
        argv = ["transition", "--rules", _csv(rules), "--top", "1"]
        for flag, value in zip(flags, sizes):
            argv += [flag, str(value)]
        return argv
    if workload == "tm-search":
        return ["tm-search", "--states", "2", "--colors", "3",
                "--steps", "50" if tiny else "200",
                "--sample-size", "300" if tiny else "10000",
                "--seed", str(seed)]
    if workload == "k3-classify":
        rules = sorted(rng.sample(range(3 ** 27), 10 if tiny else 200))
        return ["classify", "--colors", "3", "--steps", "20" if tiny else "200",
                "--rules", _csv(rules)]
    raise ValueError(f"unknown workload {workload!r}")


def tree_digest(path):
    """(sha256 over sorted relative file names and bytes, file count, byte
    count) of the tree under ``path``."""
    h = hashlib.sha256()
    files = sorted(p for p in Path(path).rglob("*") if p.is_file())
    total = 0
    for p in files:
        data = p.read_bytes()
        total += len(data)
        h.update(f"{p.relative_to(path).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest(), len(files), total


def load_cli():
    """ccl.cli imported from this checkout's src/; exits non-zero, without a
    result line, when the sources are not there."""
    if not (SRC / "ccl" / "cli.py").is_file():
        sys.exit(f"bench: no ccl sources in {SRC}")
    sys.path.insert(0, str(SRC))
    import ccl.cli
    if Path(ccl.cli.__file__).resolve().parent != SRC / "ccl":
        sys.exit(f"bench: imported ccl from {ccl.cli.__file__}, not {SRC}")
    return ccl.cli


def setup_seconds():
    """Seconds to import ccl and ccl.cli in a fresh interpreter."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH"))
                           if p)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE],
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT,
                          capture_output=True, text=True, timeout=120,
                          check=True)
    elapsed, module = proc.stdout.split(maxsplit=1)
    if Path(module.strip()).resolve().parent != SRC / "ccl":
        raise RuntimeError(f"fresh interpreter imported ccl from {module}")
    return float(elapsed)


def run_record():
    """Machine and code the run measured; informational only."""
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or commit
    lines = sum(1 for p in (SRC / "ccl").rglob("*.py")
                for line in p.read_text(encoding="utf-8").splitlines()
                if line.strip())
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "zlib": zlib.ZLIB_RUNTIME_VERSION, "commit": commit,
            "src_ccl_lines": lines}


class Jobs:
    """Runs the jobs of one workload and seed, checks each output tree and
    keeps the tally of jobs attempted and failed."""

    def __init__(self, cli, workload, seed, scratch, tiny=False):
        self.cli = cli
        self.argv = job_argv(workload, seed, tiny)
        self.warmup_argv = job_argv(workload, seed, tiny=True)
        self.scratch = scratch
        golden = json.loads((BENCH / "golden.json").read_text())
        self.golden_zlib = golden["zlib_runtime_version"]
        self.golden = (None if tiny else
                       golden["digests"].get(str(seed), {}).get(workload))
        # The first output of each command line that passes the oracle (and
        # the golden digest, if recorded) is the reference for the rest.
        self.reference = {}
        self.attempted = 0
        self.failed = 0
        self.files = self.bytes = 0

    def run(self, threads, warmup=False, tracer=None):
        """Run one job; its wall time in seconds, or None if it failed."""
        argv = self.warmup_argv if warmup else self.argv
        out = Path(tempfile.mkdtemp(dir=self.scratch))
        self.attempted += 1
        if tracer is not None:
            tracer.begin_job()
        start = perf_counter()
        try:
            code = self.cli.main([*argv, "--out", str(out),
                                  "--threads", str(threads)])
        except (Exception, SystemExit) as exc:
            traceback.print_exc()
            code = repr(exc)
        wall = perf_counter() - start
        problem = (f"exit status {code}" if code != 0
                   else self.check(argv, out))
        shutil.rmtree(out)
        if problem:
            self.failed += 1
            print(f"bench: job failed at {threads} threads: {problem}",
                  file=sys.stderr)
            return None
        return wall

    def check(self, argv, out):
        """Problem with the output tree ``out`` of a job run with ``argv``,
        or None."""
        key = tuple(argv)
        digest, self.files, self.bytes = tree_digest(out)
        if key in self.reference:
            if digest != self.reference[key]:
                return (f"output tree {digest} differs from this run's first "
                        f"output {self.reference[key]}")
            return None
        problem = oracle.check(argv, out)
        if problem:
            return problem
        if argv == self.argv and self.golden and digest != self.golden:
            return (f"output tree {digest} differs from golden.json {self.golden}"
                    f" (zlib {zlib.ZLIB_RUNTIME_VERSION} here,"
                    f" {self.golden_zlib} when recorded)")
        self.reference[key] = digest
        return None


def _median(values):
    return statistics.median(values) if values else 0.0


def traced_job(jobs, tracer):
    """Run one job at 1 thread with spans on: (wall time, per-layer
    metrics), or None if it failed."""
    tracer.install()
    try:
        wall = jobs.run(1, tracer=tracer)
    finally:
        tracer.uninstall()
    if wall is None:
        return None
    m = tracer.end_job(wall)
    m["cli.files_written"] = jobs.files
    m["cli.bytes_written"] = jobs.bytes
    return wall, m


def measure(jobs, seconds, trace):
    """Metric values of one run of ``seconds`` seconds.

    Jobs run in rounds: one untraced job at 1 thread, one at 2 threads and,
    with ``trace``, one traced job at 1 thread, so that drift in the load
    of the machine reaches every kind of job alike.  Rounds stop when the
    next would end after ``seconds`` (at least MIN_ROUNDS are run).
    """
    begin = perf_counter()
    threads2 = min(2, os.cpu_count() or 1)
    values = {}
    if not trace:
        samples = [setup_seconds() for _ in range(SETUP_SAMPLES + 1)][1:]
        values["setup_s"] = _median(samples)
    jobs.run(1, warmup=True)
    t1, t2, traced_walls, per_job = [], [], [], []
    tracer, counts = Tracer(), None
    rounds, last = 0, 0.0
    while rounds < MIN_ROUNDS or perf_counter() + last < begin + seconds:
        round_begin = perf_counter()
        for threads, walls in ((1, t1), (threads2, t2)):
            wall = jobs.run(threads)
            if wall is not None:
                walls.append(wall)
        result = traced_job(jobs, tracer) if trace else None
        if result is not None:
            # Work counts are exact: every traced job must repeat them.
            exact = {k: v for k, v in result[1].items() if isinstance(v, int)}
            counts = exact if counts is None else counts
            if exact == counts:
                traced_walls.append(result[0])
                per_job.append(result[1])
            else:
                jobs.failed += 1
                print("bench: traced job counts differ from the first "
                      "traced job's", file=sys.stderr)
        last = perf_counter() - round_begin
        rounds += 1
    print(f"{rounds} rounds: medians of {len(t1)} jobs at 1 thread, "
          f"{len(t2)} at {threads2} threads"
          + (f", {len(per_job)} traced at 1 thread" if trace else ""))
    values["wall_s"] = _median(t1)
    values["wall_s_threads2"] = _median(t2)
    if not trace:
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
        return values
    for key in set().union(*per_job):
        values[key] = _median([m.get(key, 0) for m in per_job])
    if t1 and t2:
        values["parallel.speedup_threads2"] = _median(t1) / _median(t2)
    if t1 and traced_walls:
        values["trace.overhead_s"] = _median(traced_walls) - _median(t1)
    return values


def result(jobs, values, trace):
    """The result object of a run: every metric BENCHMARK.json declares for
    the mode, by name with its unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if trace else "end_to_end"]
    return {"correct": jobs.failed == 0, "attempted": jobs.attempted,
            "failed": jobs.failed,
            "metrics": {m["name"]: {"value": values.get(m["name"], 0.0),
                                    "unit": m["unit"]} for m in declared}}


@contextlib.contextmanager
def scratch_dir():
    """A temporary directory under .bench_work in the checkout; removed
    afterwards, with .bench_work when that is left empty."""
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as path:
            yield Path(path)
    finally:
        with contextlib.suppress(OSError):
            WORK.rmdir()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = load_cli()
    print("run record: " + json.dumps(run_record(), sort_keys=True))
    with scratch_dir() as scratch:
        jobs = Jobs(cli, args.workload, args.seed, scratch)
        values = measure(jobs, args.seconds, args.trace)
    doc = result(jobs, values, args.trace)
    print(f"{args.workload} seed {args.seed}: {jobs.attempted} jobs, "
          f"{jobs.failed} failed, fail_rate "
          f"{jobs.failed / jobs.attempted:.4g}")
    for name, m in doc["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
