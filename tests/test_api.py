"""The package's public names."""

import ast
import importlib
import importlib.util
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import misnet
from misnet import cli
from misnet.config import parse_config


def test_public_names_resolve():
    """Every name listed in ``misnet.__all__`` and in each module's ``__all__``
    exists, so ``from misnet.<module> import *`` cannot fail on a stale entry."""
    names = [info.name for info in pkgutil.iter_modules(misnet.__path__)]
    modules = [misnet] + [importlib.import_module(f"misnet.{name}") for name in names]
    for module in modules:
        missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing names {missing}"


def test_import_leaves_scipy_stats_unloaded():
    """``scipy.stats`` is most of the cost of importing the package; the
    chi-square quantile and the KS distance come from ``scipy.special``, so a
    fresh process that imports the package and its CLI never loads it."""
    src = str(Path(misnet.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, misnet, misnet.cli; print(sorted(m for m in sys.modules if m.startswith('scipy.stats')))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def _comma_text(node) -> bool:
    """A string literal or f-string whose literal text holds a comma."""
    parts = node.values if isinstance(node, ast.JoinedStr) else [node]
    return any(isinstance(p, ast.Constant) and "," in str(p.value) for p in parts)


def test_csv_format_only_in_netio():
    """``netio`` is the one module that knows the CSV format: no other module
    imports ``csv``, reads files or writes text tables through numpy (by
    attribute or by a name imported from numpy), joins fields with ``","`` or
    writes a literal line that holds a comma.  ``netio`` itself writes through
    ``csv.writer`` alone: it names no numpy text writer."""
    numpy_io = {"loadtxt", "savetxt", "genfromtxt", "fromfile"}
    for path in sorted(Path(misnet.__file__).parent.glob("*.py")):
        if path.name == "netio.py":
            names = set()
            for node in ast.walk(ast.parse(path.read_text())):
                names.add(getattr(node, "attr", getattr(node, "id", getattr(node, "name", None))))
            assert "savetxt" not in names, "netio writes text through numpy"
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imported = [node.module] + [alias.name for alias in node.names]
            else:
                imported = []
            assert "csv" not in imported, f"{path.name} imports csv"
            assert not numpy_io & set(imported), f"{path.name} imports {imported}"
            name = getattr(node, "attr", getattr(node, "id", None))
            assert name not in numpy_io, f"{path.name} calls {name}"
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                target = node.func.value
                assert not (
                    node.func.attr == "join" and isinstance(target, ast.Constant) and target.value == ","
                ), f"{path.name}:{node.lineno} joins fields with ','"
                assert not (
                    node.func.attr in ("write", "writelines") and any(_comma_text(a) for a in node.args)
                ), f"{path.name}:{node.lineno} writes a delimited line by hand"


def test_one_read_per_data_file():
    """No module names ``fromfile``, and ``netio`` names ``BOM_UTF8`` and
    ``read_bytes`` once each, in the same function: the one read of a data
    file is the one place that strips a byte-order mark."""
    package = Path(misnet.__file__).parent
    for path in sorted(package.glob("*.py")):
        names = {getattr(node, "attr", getattr(node, "id", None)) for node in ast.walk(ast.parse(path.read_text()))}
        assert "fromfile" not in names, f"{path.name} calls np.fromfile"
    tree = ast.parse((package / "netio.py").read_text())
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    owners = []
    for name in ["BOM_UTF8", "read_bytes"]:
        uses = [node for node in ast.walk(tree) if getattr(node, "attr", None) == name]
        owners.append({f.name for f in functions if any(node in uses for node in ast.walk(f))})
        assert len(uses) == 1 and len(owners[-1]) == 1, (name, len(uses), owners[-1])
    assert owners[0] == owners[1], owners


_PRODUCTS = {"dot", "matmul", "einsum", "inner", "tensordot", "vdot", "multiply", "outer"}


def _support_points(node) -> bool:
    """``<...>support.points``: the points of a covariate support."""
    if not (isinstance(node, ast.Attribute) and node.attr == "points"):
        return False
    owner = node.value
    return getattr(owner, "id", getattr(owner, "attr", None)) == "support"


def _reads_points(node, tainted) -> bool:
    """Whether ``node`` reads the support points or a name in ``tainted``."""
    return any(_support_points(n) or (isinstance(n, ast.Name) and n.id in tainted) for n in ast.walk(node))


def test_homophily_index_only_in_model():
    """``CovariateSupport.homophily_index`` is the one place that multiplies
    support points by weights: no other module has a product (``@``, ``*`` or
    a numpy product call) with an operand that reads ``support.points`` or a
    name bound, directly or through other names, from an expression that does."""
    for path in sorted(Path(misnet.__file__).parent.glob("*.py")):
        if path.name == "model.py":
            continue
        tree = ast.parse(path.read_text())
        tainted, grown = set(), True
        while grown:
            grown = False
            for node in ast.walk(tree):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.NamedExpr, ast.For)):
                    source = node.iter if isinstance(node, ast.For) else node.value
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    if source is None or not _reads_points(source, tainted):
                        continue
                    names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                    grown |= bool(names - tainted)
                    tainted |= names
        for node in ast.walk(tree):
            if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.MatMult, ast.Mult)):
                operands = [node.left, node.right]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr in _PRODUCTS:
                operands = [*node.args, node.func.value]
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _PRODUCTS:
                operands = node.args
            else:
                continue
            assert not any(_reads_points(o, tainted) for o in operands), (
                f"{path.name}:{node.lineno} multiplies the support points: {ast.unparse(node)}"
            )


def test_no_private_names_across_modules():
    """A module uses only its own private names: no ``from .x import _name``,
    and no attribute ``obj._name`` on anything but ``self`` or ``cls`` unless
    the module defines ``_name`` itself.  Dunders are exempt."""

    def private(name):
        return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))

    for path in sorted(Path(misnet.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        own = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.ImportFrom):
                names = [alias.name for alias in node.names if private(alias.name)]
                assert not names, f"{where} imports private {names} from {node.module}"
            if isinstance(node, ast.Attribute) and private(node.attr):
                owner = getattr(node.value, "id", None)
                assert owner in ("self", "cls") or node.attr in own, (
                    f"{where} reads {ast.unparse(node)}, another module's private name"
                )


# names that only the benchmark in ``perfbench/`` keeps alive
_BENCHMARK_ONLY = {
    "best_response", "equilibrium_residual", "simulate_true_network", "moment",
    "moment_variance", "stat_influence_all", "cell_summary", "membership",
}


def test_benchmark_only_names_uncalled_in_src():
    """No module of the package calls a name that only the benchmark keeps
    alive, by its plain name or as an attribute, and the package root exports
    none of them nor ``CellSummary``, the type ``cell_summary`` returns, so
    each stays deletable once the benchmark stops naming it."""
    exported = (_BENCHMARK_ONLY | {"CellSummary"}) & (set(misnet.__all__) | set(vars(misnet)))
    assert not exported, f"the package root exports {sorted(exported)}"
    for path in sorted(Path(misnet.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                assert name not in _BENCHMARK_ONLY, f"{path.name}:{node.lineno} calls {name}"


def _misnet_name(module_name, name):
    """``from <module_name> import <name>`` as the benchmark runs it, or None."""
    source = importlib.import_module(module_name)
    if hasattr(source, name):
        return getattr(source, name)
    try:
        return importlib.import_module(f"{module_name}.{name}")
    except ModuleNotFoundError:
        return None


def _callee(node, imported):
    """The ``misnet`` object a call names, through an imported name or an
    attribute of an imported module, or None."""
    func = node.func
    if isinstance(func, ast.Name):
        return imported.get(func.id)
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        module = imported.get(func.value.id)
        if inspect.ismodule(module):
            return getattr(module, func.attr, None)
    return None


def test_benchmark_pins_resolve():
    """Every name the benchmark in ``perfbench/`` imports from ``misnet``, and
    every attribute it reads or patches on an imported ``misnet`` module, as
    ``module.name`` or as a ``(module, "name")`` pair for ``getattr`` and
    ``setattr``, exists, and every call it makes to such an object binds to
    the object's signature (calls that unpack ``*`` or ``**`` are skipped): a
    simplification must keep what the benchmark runs."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    files = sorted(bench.glob("*.py"))
    assert files, f"no benchmark sources under {bench}"
    for path in files:
        tree = ast.parse(path.read_text())
        imported = {}  # local name -> imported misnet object
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or (node.module or "").split(".")[0] != "misnet":
                continue
            for alias in node.names:
                value = _misnet_name(node.module, alias.name)
                assert value is not None, (
                    f"{path.name}:{node.lineno} imports {node.module}.{alias.name}, which is gone"
                )
                imported[alias.asname or alias.name] = value
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                module = imported.get(node.value.id)
                assert not inspect.ismodule(module) or hasattr(module, node.attr), (
                    f"{path.name}:{node.lineno} uses {module.__name__}.{node.attr}, which is gone"
                )
            if isinstance(node, ast.Tuple) and len(node.elts) == 2:
                first, second = node.elts
                module = imported.get(getattr(first, "id", None))
                if inspect.ismodule(module) and isinstance(second, ast.Constant):
                    assert hasattr(module, str(second.value)), (
                        f"{path.name}:{node.lineno} names {module.__name__}.{second.value}, "
                        "which is gone"
                    )
            if not isinstance(node, ast.Call):
                continue
            target = _callee(node, imported)
            unpacks = any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords
            )
            if target is None or unpacks:
                continue
            try:
                inspect.signature(target).bind(*node.args, **{k.arg: k for k in node.keywords})
            except TypeError as exc:
                raise AssertionError(
                    f"{path.name}:{node.lineno} calls {target.__qualname__} with arguments it "
                    f"does not take: {exc}"
                ) from None


def test_benchmark_worker_imports(monkeypatch):
    """``perfbench/worker.py`` imports as the benchmark starts it, with
    ``perfbench/`` on ``sys.path`` (and so imports ``tracing``), and every
    attribute that it or ``tracing.py`` reads off the ``harness``,
    ``equilibrium``, ``netio``, ``semiparametric`` or ``cli`` module it
    imported exists."""
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    monkeypatch.syspath_prepend(str(bench))
    before = set(sys.modules)
    try:
        worker = importlib.import_module("worker")
        modules = {"worker.py": worker, "tracing.py": worker.tracing}
        for name, module in modules.items():
            for node in ast.walk(ast.parse((bench / name).read_text())):
                if not (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)):
                    continue
                if node.value.id in ("harness", "equilibrium", "netio", "semiparametric", "cli"):
                    target = getattr(module, node.value.id)
                    assert hasattr(target, node.attr), (
                        f"{name}:{node.lineno} reads {target.__name__}.{node.attr}, which is gone"
                    )
    finally:  # drop the benchmark's own modules, whose plain names other tests may reuse
        for name in set(sys.modules) - before:
            if str(getattr(sys.modules[name], "__file__", "")).startswith(str(bench)):
                del sys.modules[name]


REPLAY_CONFIG = """\
n = 40
support_points = -0.5 | 0.5
theta_externality = 0.5, 0.25, 0.25
theta_homophily = 0.8
theta_fp = 0.05
theta_fn = 0.10
seed = 7
replications = 3
grid_recip = 0.3:0.7:3
grid_indeg = 0.25
grid_common = 0.0, 0.25
grid_x1 = 0.8
grid_fp = 0.0, 0.05, 0.6
grid_fn = 0.1, 0.45
"""


def _bench_tracing():
    """``perfbench/tracing.py``, loaded from its file without touching ``sys.path``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("x_mode", ["fixed", "fresh"])
def test_traced_replays_write_the_cli_outputs(tmp_path, x_mode):
    """The benchmark replays the grid and the coverage study one point and one
    replication at a time and requires the files it writes to equal the
    program's byte for byte; on a small config they do, so the batched grid
    path and the per-point replay give the same bits."""
    tracing = _bench_tracing()
    cfg = tmp_path / "run.cfg"
    cfg.write_text(REPLAY_CONFIG + f"x_mode = {x_mode}\n")
    config = parse_config(cfg)
    assert len({(t.fp_rate, t.fn_rate) for t in config.grid}) >= 2
    data, out, traced = tmp_path / "data", tmp_path / "out", tmp_path / "traced"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(data)]) == 0
    for command in ("ci", "sp-set"):
        argv = [command, "--config", str(cfg), "--data", str(data), "--out", str(out / command)]
        assert cli.main(argv) == 0
    assert cli.main(["mc-coverage", "--config", str(cfg), "--out", str(out / "mc")]) == 0
    cs, _ = tracing.replay_grid(tracing.Tracer(), config, data, traced)
    report = tracing.replay_mc(tracing.Tracer(), config, traced)
    assert cs.n_degenerate < len(cs.records) and report.n_failed == 0
    for ours, theirs in [
        ("ci/ci_grid.csv", "ci_grid.csv"),
        ("sp-set/sp_grid.csv", "sp_grid.csv"),
        ("mc/replications.csv", "replications.csv"),
        ("mc/summary.json", "summary.json"),
    ]:
        assert (out / ours).read_bytes() == (traced / theirs).read_bytes(), ours
