"""Readers for the program's output files and the reference-output gate.

Tolerances: statistics may differ from the reference by a relative 1e-9
(a solver or kernel change that moves beliefs by 1e-16 moves the statistic by
far less), the KS distance by 1e-9 absolute; coverage, failure, grid,
acceptance and membership counts must match exactly, and projection interval
ends (grid coordinates) to 1e-12.
"""

import csv
import json
import math
from pathlib import Path

STAT_RTOL = 1e-9
KS_ATOL = 1e-9
COVERAGE_ATOL = 1e-12
COORD_ATOL = 1e-12

EXACT_KEYS = ("n_failed", "n_grid", "n_accepted", "n_degenerate", "n_member", "observed_link_count")


def stat_close(a, b) -> bool:
    """Equal within STAT_RTOL, with None (a failed or degenerate point) equal only to None."""
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= STAT_RTOL * max(1.0, abs(b))


def float_or_none(text: str):
    value = float(text)
    return None if math.isnan(value) else value


def read_mc_outputs(out_dir: Path) -> dict:
    summary = json.loads((out_dir / "summary.json").read_text())
    with open(out_dir / "replications.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {
        "coverage": summary["coverage"],
        "ks_distance": summary["ks_distance"],
        "n_failed": summary["n_failed"],
        "statistics": [float_or_none(r["statistic"]) for r in rows],
    }


def read_grid_outputs(ci_dir: Path, sp_dir: Path) -> dict:
    ci = json.loads((ci_dir / "summary.json").read_text())
    sp = json.loads((sp_dir / "summary.json").read_text())
    if sp["n_grid"] != ci["n_grid"]:
        raise ValueError(f"ci tested {ci['n_grid']} points, sp-set {sp['n_grid']}")
    return {
        "n_grid": ci["n_grid"],
        "n_accepted": ci["n_accepted"],
        "n_degenerate": ci["n_degenerate"],
        "projection": ci["projection"],
        "n_member": sp["n_member"],
    }


def read_grid_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def compare_to_reference(outputs: dict, reference: dict) -> list:
    """Mismatches between one run's outputs and the committed reference."""
    problems = []
    for key in EXACT_KEYS:
        if key in reference and outputs.get(key) != reference[key]:
            problems.append(f"{key}: {outputs.get(key)} != reference {reference[key]}")
    if "coverage" in reference and not abs(outputs["coverage"] - reference["coverage"]) <= COVERAGE_ATOL:
        problems.append(f"coverage: {outputs['coverage']} != reference {reference['coverage']}")
    if "ks_distance" in reference and not abs(outputs["ks_distance"] - reference["ks_distance"]) <= KS_ATOL:
        problems.append(f"ks_distance: {outputs['ks_distance']} != reference {reference['ks_distance']}")
    if "statistics" in reference:
        got, want = outputs["statistics"], reference["statistics"]
        if len(got) != len(want):
            problems.append(f"{len(got)} replication statistics, reference has {len(want)}")
        else:
            bad = [i for i, (a, b) in enumerate(zip(got, want)) if not stat_close(a, b)]
            if bad:
                problems.append(f"{len(bad)} replication statistics differ, first at index {bad[0]}")
    if "projection" in reference:
        got, want = outputs["projection"], reference["projection"]
        if set(got) != set(want) or any(
            abs(g - r) > COORD_ATOL for k in want for g, r in zip(got[k], want[k])
        ):
            problems.append(f"projection intervals {got} != reference {want}")
    return problems
