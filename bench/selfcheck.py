"""Self-check of the benchmark, on a tiny size of every workload.

    python3 bench/selfcheck.py

It asserts that
- every end-to-end and per-layer metric of BENCHMARK.json is computed by
  the run, with its unit, and that every per-layer metric is non-zero on
  at least one workload (a misspelt name would read 0 everywhere);
- a job whose output tree has one flipped byte, in any of its files,
  counts as a failed job;
- run.py exits non-zero without a result line in a directory that holds
  only BENCHMARK.json and bench/.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

from run import (BENCH, ROOT, WORKLOADS, Jobs, load_cli, measure, result,
                 scratch_dir)


class FlippingCli:
    """ccl.cli stand-in that flips one bit in one output file per job: file
    ``which`` of the sorted tree, then the next file on the next job."""

    def __init__(self, cli, which=0):
        self.cli = cli
        self.which = which

    def main(self, argv):
        code = self.cli.main(argv)
        out = Path(argv[argv.index("--out") + 1])
        files = sorted(p for p in out.rglob("*") if p.is_file())
        victim = files[self.which % len(files)]
        data = bytearray(victim.read_bytes())
        data[len(data) // 2] ^= 1
        victim.write_bytes(data)
        self.which += 1
        return code


def check_metrics(cli, scratch):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nonzero = set()
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            jobs = Jobs(cli, workload, 0, scratch, tiny=True)
            values = measure(jobs, 0.5, trace)
            doc = result(jobs, values, trace)
            assert doc["correct"] and doc["failed"] == 0, (workload, doc)
            declared = {m["name"]: m["unit"] for m in spec[key]}
            got = {n: m["unit"] for n, m in doc["metrics"].items()}
            assert got == declared, (workload, key)
            if trace == 0:
                missing = set(declared) - set(values)
                assert not missing, (workload, missing)
                assert all(values[n] > 0 for n in declared), (workload, values)
            nonzero |= {n for n in declared if values.get(n)}
    never = {m["name"] for m in spec["per_layer"]} - nonzero
    assert not never, f"per-layer metrics that read 0 on every workload: {never}"


def check_flipped_bytes(cli, scratch):
    print("flipped-byte jobs: each failure reported below is expected")
    # ranking.svg, which the oracle does not read: golden.json catches it.
    jobs = Jobs(FlippingCli(cli, which=4), "eca-classify", 0, scratch)
    assert jobs.golden and jobs.run(1) is None and jobs.failed == 1
    for workload in WORKLOADS:
        jobs = Jobs(cli, workload, 0, scratch, tiny=True)
        assert jobs.run(1) is not None, workload
        files = jobs.files
        jobs.cli = FlippingCli(cli)
        for i in range(files):
            assert jobs.run(1) is None and jobs.failed == i + 1, (workload, i)


def check_without_program(scratch):
    bare = scratch / "bare"
    shutil.copytree(BENCH, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", WORKLOADS[0],
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180, check=False)
    assert proc.returncode != 0, proc
    assert '"metrics"' not in proc.stdout, proc.stdout


def main():
    cli = load_cli()
    with scratch_dir() as scratch:
        check_metrics(cli, scratch)
        check_flipped_bytes(cli, scratch)
        check_without_program(scratch)
    print("selfcheck passed")


if __name__ == "__main__":
    main()
