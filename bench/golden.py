"""Record golden.json: the sha256 of each workload's output tree at the
development seed and at the held-out seed, with the zlib runtime version
that produced them.

    python3 bench/golden.py

Run it only when a change alters output bytes on purpose; every job of
run.py is checked against these digests.  Each tree must first pass
oracle.py and be byte-identical at 1 and 2 threads.
"""

import json
import sys
import tempfile
import zlib

import oracle
from run import (BENCH, WORKLOADS, job_argv, load_cli, scratch_dir,
                 tree_digest)

SEEDS = (0, 7919)  # development seed, held-out seed for claims


def main():
    cli = load_cli()
    digests = {}
    with scratch_dir() as scratch:
        for seed in SEEDS:
            for workload in WORKLOADS:
                argv = job_argv(workload, seed)
                trees = []
                for threads in (1, 2):
                    out = tempfile.mkdtemp(dir=scratch)
                    if cli.main([*argv, "--out", out, "--threads", str(threads)]):
                        sys.exit(f"{workload} seed {seed}: job failed")
                    problem = oracle.check(argv, out)
                    if problem:
                        sys.exit(f"{workload} seed {seed}: {problem}")
                    trees.append(tree_digest(out)[0])
                if trees[0] != trees[1]:
                    sys.exit(f"{workload} seed {seed}: output depends on threads")
                digests.setdefault(str(seed), {})[workload] = trees[0]
                print(workload, seed, trees[0])
    doc = {"zlib_runtime_version": zlib.ZLIB_RUNTIME_VERSION,
           "digests": digests}
    (BENCH / "golden.json").write_text(json.dumps(doc, indent=2) + "\n")


if __name__ == "__main__":
    main()
