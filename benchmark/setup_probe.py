"""One fresh-interpreter set-up: import susyosc, generate a run's inputs.

Prints the CLOCK_MONOTONIC reading (system-wide on Linux) at which the first
op could start; run.py subtracts the reading it took before spawning this
interpreter.

    python3 benchmark/setup_probe.py <src dir> <workload> <seed> <rounds>
"""

import sys
import time


def main() -> int:
    src, workload, seed, n_rounds = sys.argv[1], sys.argv[2], int(sys.argv[3]), int(sys.argv[4])
    sys.path.insert(0, src)
    import susyosc  # noqa: F401  (the import is what is being timed)
    import inputs
    inputs.generate(workload, seed, n_rounds)
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
