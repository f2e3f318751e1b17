"""Seeded inputs for the three workloads, as plain data.

Nothing here imports susyosc: the program sees only what these functions
return. Each workload is a list of rounds; every round has the same
structural mix whatever the seed (which cells, which parameter sets, which
subcommands), and the seed draws the continuous parameters, the labels and
the order. That keeps the cost of a round nearly seed-independent, so
throughput differences between commits are not swamped by differences
between seeds.
"""

from __future__ import annotations

import cmath
import random

WORKLOADS = ("sweep", "measures", "cli")

# Nominal wall time of one round of any workload on a 2-core x86_64 host at
# the parent commit. The number of rounds in a run is fixed from --seconds and
# this constant, never from a clock reading, so parent and change always run
# the same inputs.
ROUND_SECONDS = 15.0

# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

# Cells (k, n_max, n_points) inside today's envelope: every check of the
# sweep op passes for eps_top in [-3.5, -0.5] and |nu| < 0.95, apart from
# isolated points of a known defect (see KNOWN_DEFECT_OP). k = 6 is outside
# it on both grids and reaches the sweep only through the probe: the iso-norm
# gate trips for n_max >= 24 on part of the box, and where the build passes
# the potential round trip still reaches 0.9-2.8x its 1e-5 threshold.
ENVELOPE_CELLS = tuple(
    (k, n_max, n_points)
    for k in range(1, 6)
    for n_max in (8, 16, 24, 32)
    for n_points in (2101, 4201))

EPS_TOP_RANGE = (-3.5, -0.5)
NU_BOUND = 0.95

# Specs outside the envelope, one per round. Both come from the known
# iso-norm gate failures (k=6 fails at n=30, k=8 at n=8); the gap does not
# depend on the grid, so the grid variants keep the specs distinct without
# moving them back inside the envelope.
PROBES = (
    {"k": 6, "eps_top": -2.8, "nu": -0.9, "n_max": 32},
    {"k": 8, "eps_top": -5.0, "nu": 0.2, "n_max": 16},
)
PROBE_GRIDS = ((10.5, 2101), (12.5, 2101), (10.5, 4201), (12.5, 4201))

# Known defect, left standing in the package: painleve.g_from_extremal misses
# a node of the extremal state when the node's nearest grid sample falls
# below phi_rel_floor, and the half-assignment checks then fail by 1e3-1e7x.
# It strikes isolated (eps_top, nu) points anywhere in the box, about one
# spec in 150, so a draw from the whole box fails about one run in ten. The
# seed therefore draws each spec's (eps_top, nu) from a fixed table of
# PAIRS_PER_K uniform draws over the box per k, on which
# `python3 benchmark/screen_sweep.py` finds no wrong answer on either grid.
# Every sweep run re-checks this spec, on which the defect was met, outside
# its timed ops, and reports under `known_defect` whether it still shows.
PAIRS_PER_K = 32
KNOWN_DEFECT_OP = {"kind": "system", "probe": False, "k": 3,
                   "eps_top": -1.8092494830396715, "nu": 0.786189938131377,
                   "x_max": 10.5, "n_points": 4201, "n_max": 0}


def _cell_half(cell) -> int:
    """Splits the cells into two halves that each cover every k, n_max and grid."""
    k, n_max, n_points = cell
    return (k + n_max // 8 + (n_points == 4201)) % 2


def sweep_pairs(k: int) -> list:
    """The (eps_top, nu) table of one k, the same for every seed."""
    rng = random.Random("sweep-pairs:%d" % k)
    return [(rng.uniform(*EPS_TOP_RANGE), rng.uniform(-NU_BOUND, NU_BOUND))
            for _ in range(PAIRS_PER_K)]


def sweep_system_op(k: int, eps_top: float, nu: float, n_max: int, n_points: int) -> dict:
    return {"kind": "system", "probe": False, "k": k, "eps_top": eps_top, "nu": nu,
            "x_max": 10.5, "n_points": n_points, "n_max": n_max}


def sweep_round(rng: random.Random, r: int) -> list:
    ops = []
    for k in range(1, 6):
        cells = [c for c in ENVELOPE_CELLS if c[0] == k and _cell_half(c) == r % 2]
        for (_, n_max, n_points), pair in zip(cells, rng.sample(sweep_pairs(k), len(cells))):
            ops.append(sweep_system_op(k, *pair, n_max=n_max, n_points=n_points))
    probe = dict(PROBES[r % 2])
    probe["x_max"], probe["n_points"] = PROBE_GRIDS[(r // 2) % len(PROBE_GRIDS)]
    ops.append(dict(probe, kind="system", probe=True))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# measures
# ---------------------------------------------------------------------------

# A verify or plotting session returns to the same few systems. The pool is
# fixed because the cost of a measure cache jumps by up to 10x between
# neighbouring gaps (quadrature node doubling), so a seeded pool would make
# throughput a property of the seed. (k, eps_top) fixes gap = k - 1/2 - eps_top.
MEASURE_POOL = ((4, -2.8), (1, -1.0), (3, -2.0), (5, -1.5))
MEASURE_FAMILIES = ("mu1", "mu2", "mu3")
# identity family and table kind per pool slot: fixed, so every round pays
# for the same caches
IDENTITY_FOR_SLOT = ("aocs_iso", "docs_new", "lin_new", "lin_iso")
TABLE_FOR_SLOT = ("profiles", "mu2", "profiles", "mu1")
PASSES_PER_ROUND = 4
# more query batches than cache ops, so the median op is a state query and
# the tail percentile a cache build
QUERY_BATCHES_PER_PASS = 7


def _label(rng: random.Random, r_max: float, modulus=None) -> list:
    if modulus is None:
        modulus = rng.uniform(0.2, r_max)
    z = modulus * cmath.exp(1j * rng.uniform(-cmath.pi, cmath.pi))
    return [z.real, z.imag]


def _label_pair(rng: random.Random, r_max: float) -> list:
    """Two labels of one modulus.

    An iso state's length is set by |z| alone, so both coefficient vectors
    end at the same level and their inner product misses only terms below
    the 1e-12 truncation tails; with unequal moduli the shorter vector cuts
    off terms of the longer one near 1e-7, far above the kernel tolerance.
    """
    modulus = rng.uniform(0.2, r_max)
    return [_label(rng, r_max, modulus), _label(rng, r_max, modulus)]


def measures_round(rng: random.Random, r: int) -> list:
    ops = []
    for _ in range(PASSES_PER_ROUND):
        for slot, (k, eps_top) in enumerate(MEASURE_POOL):
            base = {"k": k, "eps_top": eps_top}
            for fam in MEASURE_FAMILIES:
                ops.append(dict(base, kind="measure_check", family=fam,
                                r_max=rng.uniform(3.0, 6.0)))
            ops.append(dict(base, kind="identity", family=IDENTITY_FOR_SLOT[slot]))
            ops.append(dict(base, kind="table", table=TABLE_FOR_SLOT[slot],
                            r_max=rng.uniform(4.0, 8.0), n_radii=120))
            for _ in range(QUERY_BATCHES_PER_PASS):
                ops.append(dict(base, kind="state_queries",
                                labels=_label_pair(rng, 1.5),
                                t=rng.uniform(0.1, 3.0)))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

# The README session, once per spec. (k, eps_top) per slot is fixed for the
# same reason as the measure pool (verify builds all three caches); nu moves
# the system build only.
CLI_SLOTS = (
    {"k": 4, "eps_top": -2.8, "refuse": "docs-iso", "density_measure": "mu2"},
    {"k": 2, "eps_top": -1.3, "refuse": "aocs-new", "density_measure": "mu1"},
)
CLI_FAMILIES = ("aocs-iso", "docs-new", "lin-iso", "lin-new")


def cli_round(rng: random.Random, r: int) -> list:
    """Subcommand invocations; a session's steps keep their README order."""
    ops = []
    for slot in CLI_SLOTS:
        spec = {"k": slot["k"], "eps_top": slot["eps_top"],
                "nu": rng.uniform(-NU_BOUND, NU_BOUND)}
        sid = "r%d_k%d" % (r, slot["k"])
        ops.append({"kind": "build", "spec": spec, "sid": sid})
        ops.append({"kind": "painleve", "spec": spec, "sid": sid})
        ops.append({"kind": "verify", "spec": spec, "sid": sid})
        # two labels per family: the cheap invocations then outnumber the
        # rest, so the median op is a cs call and the tail a system rebuild
        for fam in CLI_FAMILIES:
            for _ in range(2):
                ops.append({"kind": "cs", "spec": spec, "sid": sid, "family": fam,
                            "z": _label(rng, 2.0)})
        ops.append({"kind": "refuse", "spec": spec, "sid": sid,
                    "family": slot["refuse"], "z": _label(rng, 2.0)})
        # the density sum runs over stored levels only, so the label stays
        # small enough for the default 33 iso levels to hold the state
        ops.append({"kind": "cs_density", "spec": spec, "sid": sid,
                    "family": "lin-iso", "z": _label(rng, 1.5)})
        ops.append({"kind": "measure", "spec": spec, "sid": sid,
                    "r_max": rng.uniform(4.0, 8.0)})
        ops.append({"kind": "density", "spec": spec, "sid": sid,
                    "measure": slot["density_measure"],
                    "r_max": rng.uniform(4.0, 8.0)})
    return ops


_ROUNDS = {"sweep": sweep_round, "measures": measures_round, "cli": cli_round}


def rounds_for(seconds: float) -> int:
    return max(1, int(seconds / ROUND_SECONDS + 0.5))


def generate(workload: str, seed: int, n_rounds: int) -> list:
    """The op list of a run: n_rounds rounds, each a list of op dicts."""
    if workload not in _ROUNDS:
        raise ValueError("unknown workload %r (choose from %s)" % (workload, WORKLOADS))
    rng = random.Random("%s:%d" % (workload, seed))
    return [_ROUNDS[workload](rng, r) for r in range(n_rounds)]
