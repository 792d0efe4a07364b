"""Workload definitions and input generation for the misnet benchmark.

Every workload shares one true parameter point, theta = (.5, .25, .25 | .8)
with misclassification rates (.05, .10), on a two-cell scalar support.  The
benchmark seed becomes the master seed of the generated config, so the same
seed always yields the same inputs.  The program receives only the generated
files: a config, a covariate design CSV (``mc_fixed``) and, for ``grid_n800``,
a dataset written by ``misnet simulate``.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0

# Worker processes of the pooled invocation that the traced mc_fresh run
# compares with its serial one (harness.parallel_efficiency).
POOL_THREADS = 2

THETA_LINES = """\
support_points = -0.5 | 0.5
theta_externality = 0.5, 0.25, 0.25
theta_homophily = 0.8
theta_fp = 0.05
theta_fn = 0.10
"""

# Grid for grid_n800: every one of the six coordinates varies.  At n = 800 the
# statistic is sharp (about +-0.007 around the truth on the externality axes),
# so those axes are fine enough to hold accepted points next to rejected ones.
# fp = 0.65 exceeds the sample link mean of every cell, which makes its points
# non-members, and the rate pair (0.65, 0.4) has fp + fn >= 1, which the grid
# iterator skips.
GRID_LINES = """\
grid_recip = 0.49:0.51:5
grid_indeg = 0.24:0.26:5
grid_common = 0.24:0.26:3
grid_x1 = 0.78:0.82:3
grid_fp = 0.045, 0.05, 0.65
grid_fn = 0.1, 0.4
"""


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    replications: int  # 0 for the grid workload
    x_mode: str
    circulant: bool  # mc_fixed: the exchangeable design of the criterion-5 fixture
    pool_check: bool  # the traced run also times a pooled invocation

    @property
    def is_grid(self) -> bool:
        return self.replications == 0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mc_fixed", 200, 100, "fixed", True, False),
        Workload("mc_fresh", 200, 50, "fresh", False, True),
        Workload("grid_n800", 800, 0, "fresh", False, False),
    )
}


def circulant_assignment(n: int) -> np.ndarray:
    """Two cells by the parity of the circular offset j - i; every agent is exchangeable."""
    offsets = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    labels = (offsets % 2).astype(np.int64)
    np.fill_diagonal(labels, 0)
    return labels


def config_text(w: Workload, seed: int, warmup: bool = False) -> str:
    """The workload's config; the warm-up variant runs 2 replications, or tests
    only the true point, to start BLAS threads and fault in memory untimed."""
    lines = [f"n = {w.n}", THETA_LINES, f"seed = {seed}", f"x_mode = {w.x_mode}", "threads = 1"]
    if w.circulant:
        lines.append("x_file = design.csv")
    if w.is_grid:
        if not warmup:
            lines.append(GRID_LINES)
    else:
        lines.append(f"replications = {2 if warmup else w.replications}")
    return "\n".join(lines) + "\n"


def generate_inputs(w: Workload, seed: int, run_dir: Path) -> None:
    """Write the configs (and design) and, for the grid workload, simulate the dataset."""
    from misnet import PairCovariates, cli, netio

    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "bench.cfg").write_text(config_text(w, seed))
    (run_dir / "warmup.cfg").write_text(config_text(w, seed, warmup=True))
    if w.circulant:
        netio.write_covariates(PairCovariates(circulant_assignment(w.n)), run_dir / "design.csv")
    if w.is_grid:
        code = cli.main(["simulate", "--config", str(run_dir / "bench.cfg"), "--out", str(run_dir / "data")])
        if code != 0:
            raise RuntimeError(f"misnet simulate exited with code {code}")
