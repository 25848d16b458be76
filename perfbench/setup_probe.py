"""One fresh-process set-up: ``python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR``.

Prints the seconds from interpreter hand-over to the end of importing
eteleport and building the workload's inputs.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> None:
    workload, seed, workdir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.path.insert(0, os.path.abspath("src"))
    import workloads

    workloads.WORKLOADS[workload].build(seed, workdir)
    print(repr(time.perf_counter() - _START))


if __name__ == "__main__":
    main()
