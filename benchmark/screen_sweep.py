"""Check that the package answers correctly on every pair of the sweep's table.

Runs the sweep op with n_max = 0 on every pair of inputs.sweep_pairs(k) and
both grids (the half-assignment extremal state, where the known defect
strikes, does not depend on n_max), prints each pair with a check over its
threshold or a refusal, and exits 1 if there is one. Run it after changing
the table:

    python3 benchmark/screen_sweep.py
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import inputs  # noqa: E402
import ops  # noqa: E402
import susyosc  # noqa: E402


def main() -> int:
    wrong = 0
    for k in range(1, 6):
        for index, pair in enumerate(inputs.sweep_pairs(k)):
            for n_points in (2101, 4201):
                op = inputs.sweep_system_op(k, *pair, n_max=0, n_points=n_points)
                try:
                    over = [c for c in ops.system_op(susyosc, op) if not c[1] <= c[2]]
                except susyosc.SusyOscError as exc:
                    over = [str(exc)]
                if over:
                    wrong += 1
                    print("k=%d pair %d (eps_top=%r, nu=%r), %d points: %s"
                          % (k, index, pair[0], pair[1], n_points, over))
    print("%d wrong answers over %d pairs x 2 grids" % (wrong, 5 * inputs.PAIRS_PER_K))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
