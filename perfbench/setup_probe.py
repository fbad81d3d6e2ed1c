"""Set-up time of one fresh process: import ndmonogamy, then warm a workload's caches.

Started by ``run.py`` from the checkout root; prints the seconds from the
start of this script to the end of the warm-up.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402


def main() -> None:
    name, workdir = sys.argv[1], Path(sys.argv[2])
    workloads.load_program(Path.cwd())
    workloads.WORKLOADS[name](workdir).warm()
    print(repr(time.perf_counter() - START))


if __name__ == "__main__":
    main()
