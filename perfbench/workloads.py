"""Cell specs for the four benchmark workloads, drawn from a workload seed.

A cell is one call to a runner in `gpgd.experiments.RUNNERS` with a one-cell
grid, so every cell keeps the dimensions, budgets, arms and stopping rules
of the experiment's default spec and does the work of one cell of the real
study.  The seed picks the master seed of each cell and, in `sweep`, which
grid cells a pass visits; nothing else differs from the defaults.

A study is one pass over a balanced sample of the experiment grids, built
so that every pass does about the same amount of work whatever the seed:
cell cost grows with sparsity (phase-alpha) and with the outlier count
(outliers), so a pass pairs cheap cells with dear ones instead of drawing
them independently.
"""

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("sweep", "robust", "bound", "prior")

# Reference seconds (speed.py) of one pass on a 2-core Xeon with numpy 2.4
# and OpenBLAS 0.3 (the machine the bounds in BENCHMARK.json were set on).
# They fix how many passes a run of --seconds makes, so that the two sides
# of a comparison time the same cells even when one of them is faster.
NOMINAL_PASS_S = {"sweep": 4.1, "robust": 3.2, "bound": 17.0, "prior": 5.3}

# The cell kind each workload warms up on before timing: its cheapest kind.
WARMUP_KIND = {"sweep": "stepsize", "robust": "joint", "bound": "theorem_m64", "prior": "nipr"}

# The default outlier grid in two halves, alternating down the order of
# cell cost (0, 5, 10, 20, 30, 45, 149, 60, 70, 80, 90, 100, 110, 125).
OUTLIER_HALVES = ((0, 20, 30, 60, 70, 100, 110), (5, 10, 45, 149, 80, 90, 125))
OUTLIER_KS = (4, 8, 12)
M8_CELLS_PER_PASS = 1
# One m=8 cell (about 8 reference seconds) and enough m=64 cells (0.2
# each) to give the two halves of a pass similar weight.
M64_CELLS_PER_PASS = 40
# Short prior passes, so that a run holds several of them.
NIPR_PAIRS_PER_PASS = 2


@dataclass(frozen=True)
class Cell:
    """One runner call: the experiment, its overrides of the default spec,
    and the status the runner must return."""

    kind: str
    experiment: str
    overrides: dict = field(hash=False)
    expect_status: int = 0

    @property
    def key(self):
        """Canonical identity, used to look the cell up in the reference."""
        return json.dumps({"experiment": self.experiment, **self.overrides}, sort_keys=True)


def _cell(kind, experiment, rng, expect_status=0, **overrides):
    overrides["seed"] = rng.randrange(2**31)
    return Cell(kind, experiment, overrides, expect_status)


def _sweep_pass(rng, index):
    # Phase-alpha cost rises with k (early stopping fails beyond the phase
    # transition), so k is paired with 32 - k; stepsize likewise pairs j
    # with 16 - j.  Two stepsize pairs per phase-alpha pair keep the median
    # cell inside one of the two cost modes (stepsize cells are ~8x cheaper).
    k = rng.randint(2, 16)
    cells = [_cell("phase_alpha", "phase_alpha", rng, sparsity_grid=[k]),
             _cell("phase_alpha", "phase_alpha", rng, sparsity_grid=[32 - k])]
    for _ in range(2):
        j = rng.randint(1, 8)
        cells += [_cell("stepsize", "stepsize", rng, sparsity_grid=[j]),
                  _cell("stepsize", "stepsize", rng, sparsity_grid=[16 - j])]
    return cells


def _robust_pass(rng, index):
    # Outliers cell cost rises with k and with the outlier count s up to
    # s=125, and drops again at s=149.  Sampled s values would make the
    # median cell depend on the draw, so the passes walk the 3 x 14 grid in a fixed
    # order instead: a pass takes one half of the s values with the
    # sparsities rotated over them, and six consecutive passes cover every
    # (k, s) once.  The seed picks each cell's master seed and the order of
    # the cells in a pass.  Short passes let the median pass ride out the
    # host's slow phases.
    shift = index // 2
    cells = [
        _cell("outliers", "outliers", rng,
              sparsity_grid=[OUTLIER_KS[(i + shift) % len(OUTLIER_KS)]], outlier_grid=[s])
        for i, s in enumerate(OUTLIER_HALVES[index % 2])
    ]
    cells.append(_cell("joint", "joint", rng))
    rng.shuffle(cells)
    return cells


def _bound_pass(rng, index):
    # Criterion 5's dimensions: delta*beta < 1 never holds at m=8, so every
    # attempt of the default 400-attempt budget is rejected (status 3).
    cells = [_cell("theorem_m8", "theorem", rng, expect_status=3, m=8)
             for _ in range(M8_CELLS_PER_PASS)]
    cells += [_cell("theorem_m64", "theorem", rng) for _ in range(M64_CELLS_PER_PASS)]
    rng.shuffle(cells)
    return cells


def _prior_pass(rng, index):
    return [_cell("nipr", "nipr", rng, trials=1) for _ in range(NIPR_PAIRS_PER_PASS)]


_PASSES = {"sweep": _sweep_pass, "robust": _robust_pass, "bound": _bound_pass, "prior": _prior_pass}


def passes_for(workload, seconds):
    """Number of study passes a run of `seconds` makes."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


def study(workload, seed, n_passes):
    """The cells of `n_passes` passes, one list per pass.

    Pass i of a seed is the same whatever n_passes is, so a longer run only
    appends passes.
    """
    if workload not in _PASSES:
        raise ValueError(f"unknown workload {workload!r}; pick from {WORKLOADS}")
    rng = random.Random(f"perfbench:{workload}:{int(seed)}")
    return [_PASSES[workload](rng, i) for i in range(n_passes)]


def warmup_cell(workload):
    """The untimed warm-up cell: the first cell of the warm-up kind in the
    default seed's first pass, so that its output is always in the
    reference."""
    return next(c for c in study(workload, 0, 1)[0] if c.kind == WARMUP_KIND[workload])


def shrink(cell):
    """The same cell at the smallest size the runner accepts, for smoke runs."""
    small = dict(cell.overrides)
    if cell.experiment == "theorem":
        small.update(trials=1, resample_budget=20)
    elif cell.experiment != "nipr":
        small.update(trials=2)
    return Cell(cell.kind, cell.experiment, small, cell.expect_status)
