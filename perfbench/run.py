"""misnet benchmark: one workload, one seed, end-to-end or traced metrics.

    python3 perfbench/run.py --workload mc_fixed --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  The program is imported from ``src``;
inputs are generated from the seed in a scratch directory under
``.perfbench_work`` that is removed at exit.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
of a traced replay with ``--trace 1``.  The line before it carries
informational, ungated fields (workload-specific rates, failure share, the
``src/`` line count).  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, WORKLOADS

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"
SETUP_REPEATS = 5
DEADLINE_S = 170  # every run must end within 180 s


# Units of the per-layer metrics that a traced run reports.
UNITS = {
    "equilibrium.solve_s": "s",
    "equilibrium.solve_calls": "count",
    "equilibrium.br_calls": "count",
    "equilibrium.residual_s": "s",
    "equilibrium.simulate_s": "s",
    "misclassification.flip_s": "s",
    "harness.design_s": "s",
    "estimation.cells_s": "s",
    "estimation.influence_s": "s",
    "estimation.statistic_s": "s",
    "estimation.influence_gflops_computed": "GFLOP/s",
    "estimation.evaluator_init_s": "s",
    "estimation.point_us_p50": "us",
    "estimation.point_us_p99": "us",
    "estimation.degenerate_points": "count",
    "inference.confidence_set_s": "s",
    "inference.points": "count",
    "inference.accepted": "count",
    "semiparametric.identified_set_s": "s",
    "semiparametric.point_us_p50": "us",
    "semiparametric.point_us_p99": "us",
    "semiparametric.members": "count",
    "netio.load_s": "s",
    "netio.write_s": "s",
    "netio.bytes_written": "bytes",
    "harness.rep_ms_p50": "ms",
    "harness.rep_ms_p90": "ms",
    "harness.failed": "count",
    "harness.self_s": "s",
    "harness.parallel_efficiency": "ratio",
    "cli.self_s": "s",
    "bench.trace_overhead_s": "s",
}


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _worker(mode: str, workload: str, run_dir: Path, env: dict, deadline: float, *extra):
    """Run perfbench/worker.py; returns (wall seconds, result dict or None)."""
    result = run_dir / f"{mode}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), mode, "--workload", workload,
           "--dir", str(run_dir), "--result", str(result), *map(str, extra)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.DEVNULL)
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        _fail(f"worker {mode} exceeded the time limit")
    wall = time.perf_counter() - start
    if code != 0:
        _fail(f"worker {mode} exited with code {code}")
    data = json.loads(result.read_text()) if result.exists() else None
    return wall, data


def _src_lines(src: Path) -> int:
    return sum(len(f.read_text().splitlines()) for f in sorted(src.rglob("*.py")))


def _reference_problems(workload: str, outputs: dict) -> list:
    references = json.loads(REFERENCES.read_text())
    if workload not in references:
        return [f"no committed reference for {workload}"]
    return checks.compare_to_reference(outputs, references[workload])


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the reference (default seed only)")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    src = root / "src"
    if not (src / "misnet" / "__init__.py").is_file():
        _fail("no misnet sources under ./src; run from the root of a checkout")
    if args.write_reference and args.seed != DEFAULT_SEED:
        _fail(f"references are kept for the default seed {DEFAULT_SEED} only")
    w = WORKLOADS[args.workload]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    run_dir = root / ".perfbench_work" / f"{w.name}-{args.seed}-{os.getpid()}"
    run_dir.mkdir(parents=True)
    try:
        setups = [
            _worker("setup", w.name, run_dir, env, deadline, "--seed", args.seed)[0]
            for _ in range(SETUP_REPEATS)
        ]
        if args.trace:
            _, result = _worker("trace", w.name, run_dir, env, deadline)
        else:
            _, result = _worker("timed", w.name, run_dir, env, deadline,
                                "--seconds", args.seconds)
        if w.is_grid:
            summary = json.loads((run_dir / "data" / "summary.json").read_text())
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if not any((root / ".perfbench_work").iterdir()):
            (root / ".perfbench_work").rmdir()

    runs, outputs, problems = result["runs"], result["outputs"], list(result["problems"])
    if outputs is not None and w.is_grid:
        outputs["observed_link_count"] = summary["observed_link_count"]
    reference_checked = args.seed == DEFAULT_SEED and outputs is not None
    if args.write_reference:
        references = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        references[w.name] = outputs
        REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    elif reference_checked:
        problems += _reference_problems(w.name, outputs)
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    correct = not problems and outputs is not None
    attempted = sum(r["ops"] for r in runs)
    failed = attempted if not correct else sum(r["failed"] for r in runs)
    info = {
        "workload": w.name,
        "seed": args.seed,
        "reference_gate": "applied" if reference_checked else "not applied (non-default seed)",
        "invocations": len(runs),
        "failed_share": {"value": failed / attempted, "unit": "ratio"},
        "src_lines": {"value": _src_lines(src), "unit": "lines"},
    }
    if args.trace:
        metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in result["metrics"].items()}
    else:
        walls = [r["wall"] for r in runs]
        done = [(r["ops"] - r["failed"]) / r["wall"] for r in runs]
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "ops_per_s": {"value": statistics.median(done), "unit": "1/s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_kb"] / 1024, "unit": "MB"},
        }
        if w.is_grid:
            info["ci_points_per_s"] = {
                "value": statistics.median(r["points"] / r["ci_wall"] for r in runs), "unit": "1/s"}
            info["sp_points_per_s"] = {
                "value": statistics.median(r["points"] / r["sp_wall"] for r in runs), "unit": "1/s"}
        else:
            info["reps_per_s"] = metrics["ops_per_s"]
        info["walls_s"] = walls
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
