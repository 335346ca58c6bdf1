"""One fresh-process set-up: ``python3 setup_probe.py WORKLOAD SEED DIR``.

Imports the package and makes the workload's jobs exactly as ``run.py``
does, then prints the set-up time and the number of jobs as JSON.
"""

import json
import sys

import run

if __name__ == "__main__":
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    jobs, seconds = run.build(workload, seed, workdir)
    print(json.dumps({"setup_s": seconds, "jobs": len(jobs)}))
