"""Record the reference artifact digests that benchmark runs of the default
seed are held to.

    python3 perfbench/record_reference.py [--ops 256]

Run it from the repository root at the commit whose outputs are the
reference.  Each of the first --ops ops of every workload is executed and
checked exactly as in a benchmark run, and the sha256 of every artifact
except manifest.json (which holds the wall time) goes to
reference_digests.json.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

import run
import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ops", type=int, default=256)
    args = parser.parse_args()
    run._import_program()

    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=run.ROOT,
                            capture_output=True, text=True).stdout.strip() or "unknown"
    out = {"seed": run.DEFAULT_SEED, "commit": commit, "workloads": {}}
    for workload in workloads.WORKLOADS:
        work = run.WORK / f"record-{workload}"
        if work.exists():
            shutil.rmtree(work)
        work.mkdir(parents=True)
        os.chdir(work)
        runner = run.OpRunner(workload, work)
        stream = workloads.OpStream(workload, run.DEFAULT_SEED)
        artifacts = None
        ops = []
        for i in range(args.ops):
            op = stream.op(i)
            error = runner.verify(op, runner.execute(op)[1], None)
            if error:
                sys.exit(f"{workload} op {i}: {error}")
            digests = runner.digests(op)
            if artifacts is None:
                artifacts = sorted(digests)
            elif sorted(digests) != artifacts:
                sys.exit(f"{workload} op {i}: artifacts {sorted(digests)} != {artifacts}")
            ops.append([digests[name] for name in artifacts])
        out["workloads"][workload] = {"artifacts": artifacts, "ops": ops}
        os.chdir(run.ROOT)
        shutil.rmtree(work)
        print(f"{workload}: {len(ops)} ops, artifacts {artifacts}")
    run.REFERENCE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
