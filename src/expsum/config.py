"""Pipeline configuration: file formats, defaults, and setting precedence.

Settings resolve as CLI flag > environment variable > config file > built-in
default. Paths in the config file are relative to the file's directory;
``dictionary_path``, ``schema_dir``, and ``refiner_constraints_path`` fall
back to the data files packaged with the library.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Optional

from .code_model import DEFAULT_DMT_KEYS, DmtConfig
from .errors import ConfigError
from .files import JsonObject, fault, read_json
from .llm import (
    ENV_API_BASE,
    ENV_API_KEY,
    ENV_MODEL,
    HttpLlmClient,
    MockLlmClient,
    MockScript,
    judgment_stub_client,
)
from .retrieval import RetrievalConfig


def packaged_data_path(*parts: str) -> Path:
    return Path(resources.files("expsum").joinpath("data", *parts))  # type: ignore[arg-type]


def resolve_setting(cli_value, env_value, config_value, default=None):
    """Apply the precedence chain; empty strings count as unset."""
    for value in (cli_value, env_value, config_value):
        if value not in (None, ""):
            return value
    return default


@dataclass
class LlmSettings:
    backend: str = "mock"  # "mock" or "http"
    mock_script_path: Optional[str] = None
    api_base: Optional[str] = None
    api_key: Optional[str] = None
    model: Optional[str] = None
    timeout: float = 120.0
    retries: int = 2


@dataclass
class PipelineConfig:
    kb_path: str
    dictionary_path: str
    schema_dir: str
    refiner_constraints_path: str
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    max_iterations: int = 3
    max_parse_retries: int = 1
    llm: LlmSettings = field(default_factory=LlmSettings)
    workers: int = 1
    dmt_keys: tuple[str, ...] = DEFAULT_DMT_KEYS

    def dmt_config(self) -> DmtConfig:
        return DmtConfig.of(self.dmt_keys)


def _resolve_path(base_dir: Path, value: Optional[str]) -> Optional[str]:
    if value in (None, ""):
        return None
    path = Path(value)
    if not path.is_absolute():
        path = base_dir / path
    return str(path)


def load_pipeline_config(
    path: str | Path,
    cli: Optional[Mapping[str, Any]] = None,
    env: Optional[Mapping[str, str]] = None,
) -> PipelineConfig:
    """Load and validate a JSON config file, applying setting precedence.

    A section or value of the wrong JSON type or out of range is a
    :class:`ConfigError` naming the file and its key."""
    cli = cli or {}
    env = env if env is not None else os.environ
    path = Path(path)
    where = f"config {path}"
    raw = JsonObject(read_json(path, "config", ConfigError), where, ConfigError)

    base_dir = path.parent

    def file_path(key: str, *default: str) -> Optional[str]:
        value = _resolve_path(base_dir, raw.get(key, "a string or null"))
        return value or (str(packaged_data_path(*default)) if default else None)

    kb_path = file_path("kb_path")
    if kb_path is None:
        raise fault(where, ("kb_path",), "a non-empty string", raw.obj.get("kb_path"), ConfigError)
    retrieval, summarizer, llm = (raw.object(key, {}) for key in ("retrieval", "summarizer", "llm"))
    try:
        retrieval_cfg = RetrievalConfig(
            path_overlap_threshold=float(
                retrieval.get("path_overlap_threshold", "a finite number", 0.75)
            ),
            top_n=retrieval.get("top_n", "an integer", 9),
            token_overlap_threshold=float(
                retrieval.get("token_overlap_threshold", "a finite number", 0.75)
            ),
        )
    except ValueError as e:
        raise ConfigError(f"{where}: 'retrieval' {e}") from e
    llm_settings = LlmSettings(
        backend=resolve_setting(
            cli.get("backend"), None, llm.get("backend", "a string or null"), "mock"
        ),
        mock_script_path=resolve_setting(
            _resolve_path(Path.cwd(), cli.get("mock_script")),
            None,
            _resolve_path(base_dir, llm.get("mock_script_path", "a string or null")),
        ),
        api_base=resolve_setting(
            cli.get("api_base"), env.get(ENV_API_BASE), llm.get("api_base", "a string or null")
        ),
        api_key=resolve_setting(
            cli.get("api_key"), env.get(ENV_API_KEY), llm.get("api_key", "a string or null")
        ),
        model=resolve_setting(
            cli.get("model"), env.get(ENV_MODEL), llm.get("model", "a string or null")
        ),
        timeout=float(llm.get("timeout", "a finite number", 120.0)),
        retries=llm.get("retries", "an integer", 2, least=0),
    )
    if llm_settings.backend not in ("mock", "http"):
        backend = llm_settings.backend
        raise fault(where, ("llm", "backend"), "'mock' or 'http'", backend, ConfigError)
    workers = resolve_setting(cli.get("workers"), None, raw.get("workers", "an integer", 1))
    if workers < 1:
        raise fault(where, ("workers",), "at least 1", workers, ConfigError)
    dmt_keys = raw.get("dmt_keys", "a list", list(DEFAULT_DMT_KEYS), items="a string")

    cfg = PipelineConfig(
        kb_path=kb_path,
        dictionary_path=file_path("dictionary_path", "uninformative_dictionary.txt"),
        schema_dir=file_path("schema_dir", "schemas"),
        refiner_constraints_path=file_path("refiner_constraints_path", "refiner_constraints.json"),
        retrieval=retrieval_cfg,
        max_iterations=summarizer.get("max_iterations", "an integer", 3, least=1),
        max_parse_retries=summarizer.get("max_parse_retries", "an integer", 1, least=0),
        llm=llm_settings,
        workers=workers,
        dmt_keys=tuple(dmt_keys),
    )

    for name in ("kb_path", "dictionary_path", "schema_dir", "refiner_constraints_path"):
        referenced = getattr(cfg, name)
        if not Path(referenced).exists():
            raise ConfigError(f"{where}: {name} does not exist: {referenced!r}")
    if cfg.llm.backend == "mock" and cfg.llm.mock_script_path:
        if not Path(cfg.llm.mock_script_path).exists():
            raise ConfigError(
                f"{where}: mock_script_path does not exist: {cfg.llm.mock_script_path!r}"
            )
    if cfg.llm.timeout <= 0:  # the HTTP stack refuses it on every call
        raise fault(where, ("llm", "timeout"), "above 0", cfg.llm.timeout, ConfigError)
    return cfg


def build_client(llm: LlmSettings):
    """Instantiate the configured backend client."""
    if llm.backend == "mock":
        if llm.mock_script_path:
            return MockLlmClient(MockScript.load(llm.mock_script_path), record_calls=False)
        return judgment_stub_client(record_calls=False)
    if llm.backend == "http":
        return HttpLlmClient(
            api_base=llm.api_base,
            api_key=llm.api_key,
            model=llm.model,
            timeout=llm.timeout,
            retries=llm.retries,
        )
    raise ConfigError(f"unknown llm backend {llm.backend!r}")
