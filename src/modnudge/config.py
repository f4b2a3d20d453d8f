"""Run configuration: flat ``key = value`` text files and their validation.

The format is line-oriented: one assignment per line, ``#`` starts a
comment, blank lines are ignored.  List-valued keys take comma-separated
entries; time windows are ``start:end`` pairs.  Example::

    n      = 128
    nu     = 1e-3
    k      = 0.01
    T      = 25
    scheme = 2a-explicit
    operator = spectral-projection
    operator_scale = 16
    chi_list = 0,1,1e4
    windows  = 10:15,15:20,20:25

``resolve_outdir`` honours the MODNUDGE_OUTDIR environment variable,
which overrides whatever the config or command line chose.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields, replace
from pathlib import Path

from .condlab import check_mesh
from .observers import make_operator
from .spectral import get_grid
from .stepping import SchemeConfig, check_scheme_operator

OUTDIR_ENV = "MODNUDGE_OUTDIR"

_DEFAULT_K_LIST = (0.25, 0.125, 0.0625, 0.03125, 0.015625)
_DEFAULT_KCHI_LIST = (1.0, 10.0, 100.0, 1000.0, 10000.0)
HORIZON_EPSILON = 0.1  # default horizon threshold on the relative error, twin and horizon


@dataclass(frozen=True)
class RunConfig:
    """Everything an experiment driver needs, with validated invariants."""

    n: int = 128
    nu: float = 1e-3
    k: float = 0.01
    T: float = 25.0
    chi: float = 1e4
    scheme: str = "2a-explicit"
    operator: str = "spectral-projection"
    operator_scale: float = 16.0
    k_truth: float = 0.0  # 0 means k/4
    seed: int = 0
    outdir: str = "out"
    solver_tol: float = 1e-10
    forcing_amplitude: float = 0.25
    chi_list: tuple[float, ...] = (0.0, 1.0, 1e4)
    k_list: tuple[float, ...] = _DEFAULT_K_LIST
    epsilons: tuple[float, ...] = (HORIZON_EPSILON,)  # relative-error thresholds
    windows: tuple[tuple[float, float], ...] = ()  # empty -> default_windows(T)
    # 1D FEM conditioning sweep
    fem_n: int = 256
    fem_m: int = 16
    fem_kind: str = "nested-linear"
    kchi_list: tuple[float, ...] = _DEFAULT_KCHI_LIST

    def __post_init__(self):
        SchemeConfig(k=self.k, nu=self.nu, chi=self.chi, scheme=self.scheme,
                     solver_tol=self.solver_tol)
        if not self.forcing_amplitude > 0:
            raise ValueError("forcing_amplitude must be positive")
        # the grid checks n; the operator its kind, its scale and that cells divide n
        op = make_operator(get_grid(self.n), self.operator, self.operator_scale)
        check_scheme_operator(self.scheme, op)
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        step_count(self.T, self.k)
        if self.k_truth < 0:
            raise ValueError("k_truth must be nonnegative (0 selects k/4)")
        if self.k_truth > 0:
            ratio = round(self.k / self.k_truth)
            if ratio < 1 or abs(ratio * self.k_truth - self.k) > 1e-9 * self.k:
                raise ValueError("the truth step k_truth must evenly divide k")
        check_entries("chi_list", self.chi_list, zero_ok=True)
        check_entries("k_list", self.k_list)
        check_entries("epsilons", self.epsilons)
        for win in self.windows:
            if len(win) != 2 or not win[0] < win[1]:
                raise ValueError(f"window {win} must be an increasing (start, end) pair")
            if win[0] < 0 or win[1] > self.T + 1e-9:
                raise ValueError(f"window {win} must lie inside [0, T]")
        check_mesh(self.fem_n, self.fem_m, self.fem_kind)
        check_entries("kchi_list", self.kchi_list, zero_ok=True)

    @property
    def truth_step(self) -> float:
        return self.k_truth if self.k_truth > 0 else self.k / 4.0

    @property
    def steps(self) -> int:
        return step_count(self.T, self.k)

    def horizon_windows(self) -> tuple[tuple[float, float], ...]:
        return self.windows or default_windows(self.T)


def check_entries(name: str, values, zero_ok: bool = False):
    """Refuse an empty list and any entry that is not finite and positive
    (nonnegative with zero_ok); NaN fails both comparisons."""
    low = "nonnegative" if zero_ok else "positive"
    if not values:
        raise ValueError(f"{name} needs at least one entry")
    for v in values:
        if not (0 <= v < math.inf if zero_ok else 0 < v < math.inf):
            raise ValueError(f"{name} entries must be finite and {low}, got {v!r}")


def step_count(T: float, k: float) -> int:
    """The number of steps k that make up T; refuses a T that is not a
    positive whole number of them."""
    steps = round(T / k) if math.isfinite(T / k) else 0
    if steps < 1 or abs(steps * k - T) > 1e-9 * max(1.0, T):
        raise ValueError("T must be a positive integer number of steps k")
    return steps


def default_windows(T: float) -> tuple[tuple[float, float], ...]:
    """FTLE windows of a run ending at T: the thirds of [0.4T, T], then [0.5T, T]."""
    return ((0.4 * T, 0.6 * T), (0.6 * T, 0.8 * T), (0.8 * T, T), (0.5 * T, T))


def _parse_float_list(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(",") if x.strip())


def _parse_windows(raw: str) -> tuple[tuple[float, float], ...]:
    out = []
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        parts = item.split(":")
        if len(parts) != 2:
            raise ValueError(f"window {item!r} must look like start:end")
        out.append((float(parts[0]), float(parts[1])))
    return tuple(out)


_PARSERS = {
    "scheme": str,
    "operator": str,
    "outdir": str,
    "fem_kind": str,
    "n": int,
    "seed": int,
    "fem_n": int,
    "fem_m": int,
    "chi_list": _parse_float_list,
    "k_list": _parse_float_list,
    "epsilons": _parse_float_list,
    "kchi_list": _parse_float_list,
    "windows": _parse_windows,
}

_FIELD_NAMES = tuple(f.name for f in fields(RunConfig))


def parse_kv_text(text: str) -> dict[str, str]:
    """key = value lines -> raw string mapping; '#' comments allowed."""
    out: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value, got {raw_line!r}")
        key, value = _split_pair(line, f"config line {lineno}")
        out[key] = value
    return out


def _split_pair(text: str, where: str) -> tuple[str, str]:
    """'key = value' -> (key, value); neither part may be empty."""
    key, _, value = text.partition("=")
    key, value = key.strip(), value.strip()
    if not key or not value:
        raise ValueError(f"{where}: empty key or value")
    return key, value


def config_from_mapping(raw: dict[str, str], base: RunConfig | None = None) -> RunConfig:
    base = base or RunConfig()
    updates = {}
    for key, value in raw.items():
        if key not in _FIELD_NAMES:
            raise ValueError(
                f"unknown config key {key!r}; valid keys: {', '.join(sorted(_FIELD_NAMES))}"
            )
        parser = _PARSERS.get(key, float)
        try:
            updates[key] = parser(value)
        except ValueError as exc:
            raise ValueError(f"config key {key!r}: cannot parse {value!r} ({exc})") from None
    return replace(base, **updates)


def load_config(path, base: RunConfig | None = None) -> RunConfig:
    return config_from_mapping(parse_kv_text(Path(path).read_text()), base=base)


def apply_overrides(cfg: RunConfig, pairs) -> RunConfig:
    """Apply 'key=value' strings (e.g. from --set) on top of cfg."""
    raw: dict[str, str] = {}
    for pair in pairs:
        if "=" not in pair:
            raise ValueError(f"override {pair!r} must look like key=value")
        key, value = _split_pair(pair, f"override {pair!r}")
        raw[key] = value
    return config_from_mapping(raw, base=cfg)


def resolve_outdir(chosen) -> Path:
    """The chosen output directory, or the environment override; created."""
    path = Path(os.environ.get(OUTDIR_ENV) or chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def default_config(mode: str = "twin") -> RunConfig:
    """Starting point before file/CLI overrides: the twin defaults, or
    with mode "manufactured" those of the convergence study."""
    if mode == "manufactured":
        return RunConfig(
            n=64,
            nu=1.0,
            k=0.25,
            T=2.0,
            chi=1e3,
            operator_scale=8.0,
        )
    return RunConfig()
