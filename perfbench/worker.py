"""Child process of the benchmark: input set-up, timed CLI runs, traced replay.

    python3 perfbench/worker.py setup --workload W --seed S --dir D
    python3 perfbench/worker.py timed --workload W --dir D --seconds T --result F
    python3 perfbench/worker.py trace --workload W --dir D --result F

``perfbench/run.py`` starts it with ``src`` on ``PYTHONPATH``; each mode
writes its findings as JSON to ``--result``.  The timed and traced modes run
the workload through ``misnet.cli.main`` in this process, so the command's
peak memory is this process's (plus that of any child it waits for).
"""

import argparse
import hashlib
import json
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import checks
import tracing
from workloads import POOL_THREADS, WORKLOADS, generate_inputs

from misnet import cli, harness, semiparametric
from misnet.config import parse_config
from misnet.estimation import MomentEvaluator
from misnet.exceptions import DegenerateVariance
from misnet.inference import chi2_quantile, theta_coordinates
from misnet.semiparametric import cell_summary, membership

SPOT_CHECK_POINTS = 25  # grid points re-evaluated after the timed runs


def _run_cli(argv) -> tuple:
    start = time.perf_counter()
    code = cli.main([str(a) for a in argv])
    return code, time.perf_counter() - start


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_kb() -> int:
    """This process's peak RSS plus the largest peak of any child it has waited for, in KiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return own + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss


class _Paths:
    def __init__(self, run_dir: Path):
        self.cfg = run_dir / "bench.cfg"
        self.warmup_cfg = run_dir / "warmup.cfg"
        self.data = run_dir / "data"
        self.mc = run_dir / "mc"
        self.ci = run_dir / "ci"
        self.sp = run_dir / "sp"
        self.pool = run_dir / "mc_pool"
        self.traced = run_dir / "traced"


def _mc_invocation(p: _Paths, config, cfg: Path) -> dict:
    code, wall = _run_cli(["mc-coverage", "--config", cfg, "--out", p.mc])
    inv = {"code": code, "wall": wall, "ops": config.replications, "failed": config.replications}
    if code == 0:
        inv["outputs"] = checks.read_mc_outputs(p.mc)
        inv["failed"] = inv["outputs"]["n_failed"]
        inv["digest"] = _sha256(p.mc / "replications.csv")
    return inv


def _grid_invocation(p: _Paths, config, cfg: Path) -> dict:
    points = len(config.grid)
    ci_code, ci_wall = _run_cli(["ci", "--config", cfg, "--data", p.data, "--out", p.ci])
    sp_code, sp_wall = _run_cli(["sp-set", "--config", cfg, "--data", p.data, "--out", p.sp])
    code = ci_code or sp_code
    inv = {"code": code, "wall": ci_wall + sp_wall, "ci_wall": ci_wall, "sp_wall": sp_wall,
           "points": points, "ops": 2 * points, "failed": 2 * points}
    if code == 0:
        inv["outputs"] = checks.read_grid_outputs(p.ci, p.sp)
        inv["failed"] = 0
        inv["digest"] = _sha256(p.ci / "ci_grid.csv") + _sha256(p.sp / "sp_grid.csv")
    return inv


def _spot_check_mc(p: _Paths, config, outputs: dict) -> list:
    """Re-derive a few replications and the aggregates from public functions."""
    problems = []
    stats = outputs["statistics"]
    critical = chi2_quantile(config.support.n_points, 1.0 - config.alpha)
    fixed = tracing.fixed_design(tracing.Tracer(), config)
    for r in sorted({0, config.replications // 2, config.replications - 1}):
        record = tracing.replicate(tracing.Tracer(), r, config, critical, fixed, with_influence=False)
        expect = None if record.error else record.statistic
        if not checks.stat_close(stats[r], expect):
            problems.append(f"replication {r}: statistic {stats[r]} != recomputed {expect}")
    ok = [s for s in stats if s is not None]
    if outputs["n_failed"] != len(stats) - len(ok):
        problems.append("n_failed does not match the failed rows of replications.csv")
    if ok and outputs["coverage"] != float(np.mean([s <= critical for s in ok])):
        problems.append("coverage does not match the replication statistics")
    return problems


def _spot_check_grid(p: _Paths, config, outputs: dict) -> list:
    """Re-evaluate evenly spaced grid points and re-derive the summaries."""
    problems = []
    ci_rows = checks.read_grid_rows(p.ci / "ci_grid.csv")
    sp_rows = checks.read_grid_rows(p.sp / "sp_grid.csv")
    thetas = list(config.grid)
    if not len(ci_rows) == len(sp_rows) == len(thetas):
        return [f"grid CSVs hold {len(ci_rows)} and {len(sp_rows)} rows for {len(thetas)} points"]
    accepted = [theta_coordinates(t) for t, row in zip(thetas, ci_rows) if row["accepted"] == "1"]
    if len(accepted) != outputs["n_accepted"]:
        problems.append("n_accepted does not match ci_grid.csv")
    if sum(row["member"] == "1" for row in sp_rows) != outputs["n_member"]:
        problems.append("n_member does not match sp_grid.csv")
    if accepted:
        coords = np.array(accepted)
        names = config.grid.coordinate_names()
        derived = {k: [coords[:, i].min(), coords[:, i].max()] for i, k in enumerate(names)}
        if checks.compare_to_reference({"projection": outputs["projection"]}, {"projection": derived}):
            problems.append("projection intervals do not match the accepted points")
    data = harness.load_dataset(p.data)
    evaluator = MomentEvaluator(data)
    step = max(1, len(thetas) // SPOT_CHECK_POINTS)
    for i in range(0, len(thetas), step):
        theta = thetas[i]
        try:
            expect = evaluator.statistic(theta)
        except DegenerateVariance:
            expect = None
        got = checks.float_or_none(ci_rows[i]["statistic"])
        if not checks.stat_close(got, expect):
            problems.append(f"grid point {i}: statistic {got} != recomputed {expect}")
        member = membership(cell_summary(data, theta), theta).member
        if (sp_rows[i]["member"] == "1") != member:
            problems.append(f"grid point {i}: membership differs from recomputed {member}")
    return problems


def timed(w, p: _Paths, seconds: float) -> dict:
    config = parse_config(p.cfg)
    invoke = _grid_invocation if w.is_grid else _mc_invocation
    invoke(p, config, p.warmup_cfg)
    runs = []
    start = time.perf_counter()
    while True:
        runs.append(invoke(p, config, p.cfg))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r["wall"] for r in runs) > seconds:
            break
    peak_kb = _peak_rss_kb()
    problems = [f"invocation {i} exited with code {r['code']}" for i, r in enumerate(runs) if r["code"]]
    digests = {r.get("digest") for r in runs}
    if len(digests) != 1:
        problems.append("repeated invocations wrote different outputs")
    outputs = runs[0].get("outputs")
    if outputs is not None:
        spot = _spot_check_grid if w.is_grid else _spot_check_mc
        problems += spot(p, config, outputs)
    return {"runs": runs, "outputs": outputs, "problems": problems, "peak_rss_kb": peak_kb}


@contextmanager
def _entry_timer():
    """Time the library entry points the CLI dispatches to, outermost calls only."""
    targets = [
        (harness, "run_mc_coverage"), (harness, "write_report"), (harness, "run_ci"),
        (harness, "load_dataset"), (semiparametric, "identified_set"),
        (semiparametric, "write_membership_csv"),
    ]
    state = {"depth": 0, "total": 0.0}

    def wrap(fn):
        def timed_call(*args, **kwargs):
            state["depth"] += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                state["depth"] -= 1
                if state["depth"] == 0:
                    state["total"] += time.perf_counter() - start
        return timed_call

    originals = [(mod, name, getattr(mod, name)) for mod, name in targets]
    for mod, name, fn in originals:
        setattr(mod, name, wrap(fn))
    try:
        yield state
    finally:
        for mod, name, fn in originals:
            setattr(mod, name, fn)


def _percentile(values, q, scale) -> float:
    return float(np.percentile(values, q)) * scale if len(values) else 0.0


def trace(w, p: _Paths) -> dict:
    config = parse_config(p.cfg)
    problems = []
    invoke = _grid_invocation if w.is_grid else _mc_invocation
    invoke(p, config, p.warmup_cfg)
    with _entry_timer() as entry:
        inv = invoke(p, config, p.cfg)
    if inv["code"]:
        problems.append(f"untraced invocation exited with code {inv['code']}")
    efficiency = 0.0
    if w.pool_check:
        code, pool_wall = _run_cli(
            ["mc-coverage", "--config", p.cfg, "--out", p.pool, "--threads", POOL_THREADS])
        if code:
            problems.append(f"pooled invocation exited with code {code}")
        elif inv["code"] == 0 and _sha256(p.pool / "replications.csv") != inv["digest"]:
            problems.append("pooled and serial invocations wrote different replications")
        else:
            efficiency = inv["wall"] / (POOL_THREADS * pool_wall)

    tracer = tracing.Tracer()
    if w.is_grid:
        cs, results = tracing.replay_grid(tracer, config, p.data, p.traced)
        written = [p.traced / "ci_grid.csv", p.traced / "sp_grid.csv"]
        compared = [(p.ci / "ci_grid.csv", written[0]), (p.sp / "sp_grid.csv", written[1])]
        failed = 0
    else:
        report = tracing.replay_mc(tracer, config, p.traced)
        written = [p.traced / "replications.csv", p.traced / "summary.json"]
        compared = [(p.mc / "replications.csv", written[0]), (p.mc / "summary.json", written[1])]
        failed = report.n_failed
    for untraced, traced in compared:
        if inv["code"] == 0 and untraced.read_bytes() != traced.read_bytes():
            problems.append(f"traced replay drifted: {traced.name} differs from the program's output")
    traced_wall = sum(s.duration for s in tracer.spans if s.parent is None)

    influence_s = tracer.total("estimation.influence")
    flops = tracer.count("estimation.influence") * 2 * config.support.n_points * config.n**3
    counts = dict.fromkeys(
        ["estimation.degenerate_points", "inference.points", "inference.accepted", "semiparametric.members"], 0)
    if w.is_grid:
        counts = {
            "estimation.degenerate_points": cs.n_degenerate,
            "inference.points": len(cs.records),
            "inference.accepted": len(cs.accepted),
            "semiparametric.members": sum(1 for _, res in results if res.member),
        }
    metrics = {
        "equilibrium.solve_s": tracer.total("equilibrium.solve"),
        "equilibrium.solve_calls": tracer.count("equilibrium.solve"),
        "equilibrium.br_calls": tracer.br_calls,
        "equilibrium.residual_s": tracer.total("equilibrium.residual"),
        "equilibrium.simulate_s": tracer.total("equilibrium.simulate"),
        "misclassification.flip_s": tracer.total("misclassification.flip"),
        "harness.design_s": tracer.total("harness.design"),
        "estimation.cells_s": tracer.total("estimation.cells"),
        "estimation.influence_s": influence_s,
        "estimation.statistic_s": tracer.total("estimation.statistic"),
        "estimation.influence_gflops_computed": flops / influence_s / 1e9 if influence_s else 0.0,
        "estimation.evaluator_init_s": tracer.total("estimation.evaluator_init"),
        "estimation.point_us_p50": _percentile(tracer.durations("estimation.point"), 50, 1e6),
        "estimation.point_us_p99": _percentile(tracer.durations("estimation.point"), 99, 1e6),
        "inference.confidence_set_s": tracer.total("inference.confidence_set"),
        "semiparametric.identified_set_s": tracer.total("semiparametric.identified_set"),
        "semiparametric.point_us_p50": _percentile(tracer.durations("semiparametric.point"), 50, 1e6),
        "semiparametric.point_us_p99": _percentile(tracer.durations("semiparametric.point"), 99, 1e6),
        "netio.load_s": tracer.total("netio.load"),
        "netio.write_s": tracer.total("netio.write"),
        "netio.bytes_written": sum(f.stat().st_size for f in written),
        "harness.rep_ms_p50": _percentile(tracer.durations("harness.replication"), 50, 1e3),
        "harness.rep_ms_p90": _percentile(tracer.durations("harness.replication"), 90, 1e3),
        "harness.failed": failed,
        "harness.self_s": tracer.layer_self_time("harness"),
        "harness.parallel_efficiency": efficiency,
        "cli.self_s": inv["wall"] - entry["total"],
        "bench.trace_overhead_s": traced_wall - inv["wall"],
        **counts,
    }
    return {"runs": [inv], "outputs": inv.get("outputs"), "problems": problems, "metrics": metrics}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=["setup", "timed", "trace"])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--dir", required=True, type=Path)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--result", type=Path)
    args = parser.parse_args(argv)
    w = WORKLOADS[args.workload]
    p = _Paths(args.dir)
    if args.mode == "setup":
        generate_inputs(w, args.seed, args.dir)
        return
    result = timed(w, p, args.seconds) if args.mode == "timed" else trace(w, p)
    args.result.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
