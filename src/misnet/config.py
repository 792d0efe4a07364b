"""Flat key-value experiment configuration.

A config file holds one ``key = value`` pair per line; ``#`` starts a
comment, and a leading byte-order mark (as Notepad writes one) is skipped.
Every key has a default except the design size ``n``, the support
definition and the four ``theta_*`` components.  Vector values are
comma-separated; support points are separated by ``|`` with comma-separated
coordinates; grid axes are ``lo:hi:count`` ranges (``count`` evenly spaced
values including both ends) or a single number for a fixed axis.

Keys:
    n                   agent count (required)
    support_points      e.g. ``-0.5 | 0.5`` or ``0,1 | 1,0`` for d = 2 (required)
    support_probs       sampling probabilities per point (default uniform)
    theta_externality   three weights: reciprocity, in-degree, common (required)
    theta_homophily     d weights on the covariate vector (required)
    theta_fp            false-positive rate (required)
    theta_fn            false-negative rate (required)
    replications        Monte Carlo replications R (default 100)
    alpha               test level (default 0.05)
    seed                master seed, unsigned 64-bit (default 0)
    tol, max_iter, damping   equilibrium solver controls
    x_mode              ``fresh`` draws covariates per replication,
                        ``fixed`` reuses one draw (default fresh)
    x_file              explicit covariate assignment CSV (overrides drawing)
    threads             worker threads that run the replications (default 1)
    failure_tolerance   tolerated share of failed replications (default 0.05)
    grid_recip, grid_indeg, grid_common, grid_x1..grid_xd, grid_fp, grid_fn
                        axes of the inversion grid (default: fixed at theta)

Any other key, ``grid_x{k}`` with k > d included, is an error.  Overrides,
such as the command line's ``--seed``, ``--alpha`` and ``--threads``, are raw
value strings that replace the file's value for their key, and are parsed as
the file's own lines are.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .equilibrium import SolverConfig
from .exceptions import ConfigError, InvalidRates
from .inference import ThetaGrid
from .model import CovariateSupport, Theta, theta_coordinates

__all__ = ["ExperimentConfig", "parse_config", "parse_config_text"]

# scalar key -> (default, cast, range check); ``n`` has no default
_SCALARS = {
    "n": (None, int, lambda v: v >= 2),
    "replications": ("100", int, lambda v: v >= 1),
    "alpha": ("0.05", float, lambda v: 0 < v < 1),
    "seed": ("0", int, lambda v: 0 <= v < 2**64),
    "threads": ("1", int, lambda v: v >= 1),
    "failure_tolerance": ("0.05", float, lambda v: 0 <= v <= 1),
}

_DEFAULTS = {
    "support_probs": None,
    "tol": "1e-10",
    "max_iter": "10000",
    "damping": "1.0",
    "x_mode": "fresh",
    "x_file": "",
    **{key: default for key, (default, _, _) in _SCALARS.items() if default is not None},
}

_REQUIRED = ("n", "support_points", "theta_externality", "theta_homophily", "theta_fp", "theta_fn")


@dataclass(frozen=True)
class ExperimentConfig:
    n: int
    support: CovariateSupport
    support_probs: np.ndarray
    theta: Theta
    solver: SolverConfig
    replications: int
    alpha: float
    seed: int
    x_mode: str
    x_file: str | None
    threads: int
    failure_tolerance: float
    grid: ThetaGrid

    def __post_init__(self):
        """Range checks of the scalar keys."""
        for key, (_, _, in_range) in _SCALARS.items():
            if not in_range(getattr(self, key)):
                raise ConfigError(f"key {key}: value {getattr(self, key)} out of range")


def _parse_floats(raw: str, key: str) -> np.ndarray:
    try:
        return np.array([float(tok) for tok in raw.split(",") if tok.strip() != ""])
    except ValueError as exc:
        raise ConfigError(f"key {key}: cannot parse '{raw}' as numbers") from exc


def _parse_points(raw: str) -> np.ndarray:
    rows = [tok for tok in raw.split("|") if tok.strip() != ""]
    if not rows:
        raise ConfigError("support_points is empty")
    points = [_parse_floats(row, "support_points") for row in rows]
    widths = {p.size for p in points}
    if len(widths) != 1:
        raise ConfigError("support_points rows have inconsistent dimension")
    return np.array(points)


def _parse_axis(raw: str, key: str) -> np.ndarray:
    raw = raw.strip()
    if ":" in raw:
        parts = raw.split(":")
        if len(parts) != 3:
            raise ConfigError(f"key {key}: axis must be lo:hi:count")
        try:
            lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"key {key}: cannot parse axis '{raw}'") from exc
        if count < 1:
            raise ConfigError(f"key {key}: axis count must be at least 1")
        if count == 1 and lo != hi:
            raise ConfigError(f"key {key}: a one-point axis needs lo == hi, got '{raw}'")
        return np.linspace(lo, hi, count)
    return _parse_floats(raw, key)


def _scalar(values: dict, key: str, cast):
    raw = values[key]
    try:
        return cast(raw)
    except ValueError as exc:
        raise ConfigError(f"key {key}: cannot parse '{raw}'") from exc


def parse_config_text(text: str, base_dir: Path | str = ".", overrides=None) -> ExperimentConfig:
    values = dict(_DEFAULTS)
    seen = {}  # key -> line it was given on
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, raw = (part.strip() for part in stripped.partition("="))
        if key in seen:
            raise ConfigError(f"key {key} given twice, on lines {seen[key]} and {lineno}")
        seen[key] = lineno
        values[key] = raw
    values.update(overrides or {})

    missing = [key for key in _REQUIRED if key not in values]
    if missing:
        raise ConfigError(f"missing required keys: {', '.join(missing)}")

    n = _scalar(values, "n", _SCALARS["n"][1])  # before the support, whose errors come after
    try:
        support = CovariateSupport(_parse_points(values["support_points"]))
    except ValueError as exc:
        raise ConfigError(f"support_points: {exc}") from exc
    J, d = support.n_points, support.dimension
    grid_keys = ["grid_recip", "grid_indeg", "grid_common"]
    grid_keys += [f"grid_x{k + 1}" for k in range(d)] + ["grid_fp", "grid_fn"]
    unknown = sorted(set(values) - set(_DEFAULTS) - set(_REQUIRED) - set(grid_keys))
    if unknown:
        raise ConfigError(f"unknown keys: {', '.join(unknown)}")

    if values["support_probs"] is None:
        probs = np.full(J, 1.0 / J)
    else:
        probs = _parse_floats(values["support_probs"], "support_probs")
        if probs.size != J:
            raise ConfigError(f"support_probs needs {J} entries, got {probs.size}")
        if not (np.all(probs > 0) and abs(probs.sum() - 1.0) <= 1e-9):
            raise ConfigError("support_probs must be positive and sum to 1")

    externality = _parse_floats(values["theta_externality"], "theta_externality")
    homophily = _parse_floats(values["theta_homophily"], "theta_homophily")
    if externality.size != 3:
        raise ConfigError("theta_externality needs exactly 3 components")
    if homophily.size != d:
        raise ConfigError(f"theta_homophily needs {d} components to match the support")
    try:
        theta = Theta(
            externality=externality,
            homophily=homophily,
            fp_rate=_scalar(values, "theta_fp", float),
            fn_rate=_scalar(values, "theta_fn", float),
        )
    except (InvalidRates, ValueError) as exc:
        raise ConfigError(f"theta: {exc}") from exc

    try:
        solver = SolverConfig(
            tol=_scalar(values, "tol", float),
            max_iter=_scalar(values, "max_iter", int),
            damping=_scalar(values, "damping", float),
        )
    except ValueError as exc:
        raise ConfigError(f"solver: {exc}") from exc

    x_mode = values["x_mode"].lower()
    if x_mode not in ("fresh", "fixed"):
        raise ConfigError("x_mode must be 'fresh' or 'fixed'")
    x_file = values["x_file"] or None
    if x_file is not None:
        x_path = Path(base_dir) / x_file
        if not x_path.exists():
            raise ConfigError(f"x_file does not exist: {x_path}")
        x_file = str(x_path)

    axes = [
        _parse_axis(values[key], key) if key in values else np.array([fallback])
        for key, fallback in zip(grid_keys, theta_coordinates(theta))
    ]
    try:
        grid = ThetaGrid(tuple(axes))
    except ValueError as exc:
        given = ", ".join(key for key in grid_keys if key in values)
        raise ConfigError(f"grid keys {given}: {exc}") from exc

    return ExperimentConfig(
        n=n,
        support=support,
        support_probs=probs,
        theta=theta,
        solver=solver,
        x_mode=x_mode,
        x_file=x_file,
        grid=grid,
        **{key: _scalar(values, key, cast) for key, (_, cast, _) in _SCALARS.items() if key != "n"},
    )


def parse_config(path, overrides=None) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    raw = path.read_bytes()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise ConfigError(f"line {line}: byte 0x{raw[exc.start]:02x} is not UTF-8 text") from exc
    return parse_config_text(text, base_dir=path.parent, overrides=overrides)
