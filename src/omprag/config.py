"""Run configuration: INI file, environment variables, CLI flag overrides.

Precedence is flags > environment > file > built-in defaults. The file is
a single flat key=value document under an ``[omprag]`` section so a run
can be reproduced from one recorded config.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass, field, fields
from pathlib import Path

from .bench import DEFAULT_REPETITIONS, DEFAULT_THREAD_SWEEP
from .errors import InvalidInputError
from .generation import DEFAULT_TEMPERATURE
from .index import DEFAULT_TOP_K
from .validation import (
    DEFAULT_COMPILE_CMD, DEFAULT_COMPILE_TIMEOUT, DEFAULT_RUN_TIMEOUT, compile_argv,
)

ENV_PREFIX = "OMPRAG_"

PROFILE_RAG = "rag"
PROFILE_BASELINE = "baseline"
PROFILES = (PROFILE_RAG, PROFILE_BASELINE)

# One worker per core this process may run on; more would only contend.
DEFAULT_WORKERS = len(os.sched_getaffinity(0))


@dataclass
class PipelineConfig:
    profile: str = PROFILE_RAG
    k: int = DEFAULT_TOP_K
    model: str = "gpt-3.5-turbo"
    temperature: float = DEFAULT_TEMPERATURE
    thread_sweep: tuple[int, ...] = DEFAULT_THREAD_SWEEP
    differential_threads: tuple[int, ...] = (1, 8)
    repetitions: int = DEFAULT_REPETITIONS
    workers: int = DEFAULT_WORKERS
    compile_cmd: str = DEFAULT_COMPILE_CMD
    compile_timeout: float = DEFAULT_COMPILE_TIMEOUT
    run_timeout: float = DEFAULT_RUN_TIMEOUT
    chat_endpoint: str = ""
    chat_api_key: str = ""
    embed_endpoint: str = ""
    embed_model: str = ""
    embed_api_key: str = ""
    replay_dir: str = ""
    record_dir: str = ""
    template_path: str = ""
    out_dir: str = "out"

    def validate(self) -> None:
        if self.profile not in PROFILES:
            raise InvalidInputError(f"profile must be one of {PROFILES}, got {self.profile!r}")
        if self.k < 1:
            raise InvalidInputError("k must be >= 1")
        if self.temperature < 0:
            raise InvalidInputError("temperature must be >= 0")
        if not self.thread_sweep or any(t < 1 for t in self.thread_sweep):
            raise InvalidInputError("thread_sweep must contain positive thread counts")
        # Speedups divide by the one 1-thread record of each case.
        if 1 not in self.thread_sweep or len(set(self.thread_sweep)) < len(self.thread_sweep):
            raise InvalidInputError("thread_sweep must include 1 and name each thread count "
                                    f"once, got {self.thread_sweep}")
        # With no thread count only the serial binary would run: a vacuous Pass.
        if not self.differential_threads or any(t < 1 for t in self.differential_threads):
            raise InvalidInputError("differential_threads must contain positive thread counts")
        if self.workers < 1:
            raise InvalidInputError("workers must be >= 1")
        # A zero or negative timeout turns every compile or run into a timeout.
        for name in ("compile_timeout", "run_timeout", "repetitions"):
            if not getattr(self, name) > 0:
                raise InvalidInputError(f"{name} must be > 0")
        # A command the gate cannot turn into words would fail on the first compile.
        try:
            compile_argv(self.compile_cmd)
        except (KeyError, IndexError, AttributeError, TypeError, ValueError) as exc:
            raise InvalidInputError(
                "compile_cmd must name {src} and {bin}, no other {field}, and split "
                f"into words: {self.compile_cmd!r}"
            ) from exc


def _parse_value(name: str, raw: str):
    """Parse a setting to the type of its default; a tuple is a comma list of ints."""
    kind = type(getattr(PipelineConfig, name))
    try:
        if kind is tuple:
            return tuple(int(part) for part in raw.replace(" ", "").split(",") if part)
        return kind(raw)
    except ValueError as exc:
        raise InvalidInputError(f"bad {kind.__name__} value for {name}: {raw!r}") from exc


def load_config(
    path: Path | str | None = None,
    overrides: dict | None = None,
    env: dict | None = None,
) -> PipelineConfig:
    env = os.environ if env is None else env
    cfg = PipelineConfig()
    names = [f.name for f in fields(PipelineConfig)]

    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(Path(path))
        if not read:
            raise InvalidInputError(f"config file {path} not found")
        section = parser["omprag"] if parser.has_section("omprag") else parser["DEFAULT"]
        for name in names:
            if name in section:
                setattr(cfg, name, _parse_value(name, section[name]))

    for name in names:
        env_key = ENV_PREFIX + name.upper()
        if env_key in env:
            setattr(cfg, name, _parse_value(name, env[env_key]))

    for name, value in (overrides or {}).items():
        if value is None:
            continue
        if name not in names:
            raise InvalidInputError(f"unknown config key {name!r}")
        setattr(cfg, name, _parse_value(name, value) if isinstance(value, str) else value)

    cfg.validate()
    return cfg
