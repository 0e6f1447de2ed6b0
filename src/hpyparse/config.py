"""Run configuration: dataclass, key=value config files, CLI overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import UsageError

DECODERS = ("cyk", "astar-full", "astar-local", "mcmc")


@dataclass
class RunConfig:
    task: str = "parse"
    context_mode: str = "nonterminal"
    base: str = "mle"
    decoder: str = "cyk"
    beam: int = 1000
    iters: int = 1000
    burn_in: int = 100
    seed: int = 0
    rare_threshold: int = 1
    max_len: int | None = None
    context_cap: int | None = None
    workers: int = 1
    # hyperpriors on the per-depth discount (Beta) / concentration (Gamma)
    beta_a: float = 1.0
    beta_b: float = 1.0
    gamma_shape: float = 1.0
    gamma_rate: float = 1.0

    def validate(self) -> None:
        if self.task not in ("parse", "tag"):
            raise UsageError(f"unknown task {self.task!r}")
        if self.context_mode not in ("nonterminal", "rule"):
            raise UsageError(f"unknown context mode {self.context_mode!r}")
        if self.base not in ("mle", "uniform"):
            raise UsageError(f"unknown base distribution {self.base!r}")
        if self.decoder not in DECODERS:
            raise UsageError(f"unknown decoder {self.decoder!r}; pick one of {DECODERS}")
        if self.rare_threshold < 0:
            raise UsageError("rare-threshold must be >= 0")
        if self.workers < 1:
            raise UsageError("workers must be >= 1")
        if self.max_len is not None and self.max_len < 1:
            raise UsageError("max-len must be >= 1")
        if self.context_cap is not None and self.context_cap < 0:
            raise UsageError("context-cap must be >= 0")
        if self.seed < 0:
            raise UsageError("seed must be >= 0")
        hyperpriors = (self.beta_a, self.beta_b, self.gamma_shape, self.gamma_rate)
        if not all(math.isfinite(v) and v > 0 for v in hyperpriors):
            raise UsageError("hyperprior parameters must be positive and finite")
        # decoder-specific requirements, checked before any work starts
        if self.decoder.startswith("astar") and self.beam < 1:
            raise UsageError("beam must be >= 1 for the search decoder")
        if self.decoder == "mcmc":
            if self.iters < 1:
                raise UsageError("iters must be >= 1 for the sampling decoder")
            if not 0 <= self.burn_in < self.iters:
                raise UsageError("need 0 <= burn-in < iters for the sampling decoder")


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}
_OPTIONAL_INTS = {"max_len", "context_cap"}


def parse_config_text(text: str) -> dict[str, object]:
    """Flat ``key=value`` lines; '#' starts a comment; keys use underscores."""
    out: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise UsageError(f"config line {lineno}: expected key=value, got {raw!r}")
        key = key.strip().replace("-", "_")
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise UsageError(f"config line {lineno}: unknown key {key!r}")
        out[key] = _coerce(key, value, lineno)
    return out


def _coerce(key: str, value: str, lineno: int) -> object:
    if key in _OPTIONAL_INTS:
        if value.lower() in ("none", ""):
            return None
        return _int(key, value, lineno)
    default = getattr(RunConfig(), key)
    if isinstance(default, int):
        return _int(key, value, lineno)
    if isinstance(default, float):
        try:
            return float(value)
        except ValueError:
            raise UsageError(f"config line {lineno}: {key} must be a number") from None
    return value


def _int(key: str, value: str, lineno: int) -> int:
    try:
        return int(value)
    except ValueError:
        raise UsageError(f"config line {lineno}: {key} must be an integer") from None


def build_config(file_values: dict[str, object], overrides: dict[str, object]) -> RunConfig:
    """Config-file values first, then CLI flags on top (None = not passed)."""
    config = RunConfig()
    for key, value in file_values.items():
        setattr(config, key, value)
    for key, value in overrides.items():
        if value is not None:
            setattr(config, key, value)
    config.validate()
    return config
