"""Pipeline configuration: file formats, defaults, and setting precedence.

Settings resolve as CLI flag > environment variable > config file > built-in
default. Paths in the config file are relative to the file's directory;
``dictionary_path``, ``schema_dir``, and ``refiner_constraints_path`` fall
back to the data files packaged with the library.
"""

from __future__ import annotations

import os
import sys
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Mapping, Optional

from .code_model import DEFAULT_DMT_KEYS, DmtConfig
from .errors import ConfigError
from .files import read_json
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


#: The JSON types a config value of each kind may have; ``null`` counts as
#: unset for strings only, and ``bool`` is no number. The items of a list
#: "of strings", and the values of an object "of strings", are strings.
_KINDS = {
    "an object": (dict,),
    "an object of strings": (dict,),
    "a list": (list,),
    "a list of strings": (list,),
    "a string": (str, type(None)),
    "an integer": (int,),
    "a finite number": (int, float),
}


def get_checked(section: Mapping, key: str, kind: str, default, where: str = "config "):
    """``section[key]``, or ``default`` when absent, if it is of ``kind``;
    otherwise a :class:`ConfigError` naming ``where`` and the key."""
    value = section.get(key, default)
    items = value.values() if type(value) is dict else value
    if type(value) not in _KINDS[kind] or (
        kind == "a finite number" and not abs(value) <= sys.float_info.max
    ) or (kind.endswith("of strings") and not all(type(item) is str for item in items)):
        raise ConfigError(f"{where}{key!r} must be {kind} (got {value!r:.40})")
    return value


def load_pipeline_config(
    path: str | Path,
    cli: Optional[Mapping[str, Any]] = None,
    env: Optional[Mapping[str, str]] = None,
) -> PipelineConfig:
    """Load and validate a JSON config file, applying setting precedence.

    A section or value of the wrong JSON type is a :class:`ConfigError`
    naming its key."""
    cli = cli or {}
    env = env if env is not None else os.environ
    path = Path(path)
    raw = read_json(path, "config", ConfigError)
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")

    base_dir = path.parent

    def file_path(key: str, *default: str) -> Optional[str]:
        value = _resolve_path(base_dir, get_checked(raw, key, "a string", None))
        return value or (str(packaged_data_path(*default)) if default else None)

    def section(name: str):
        """A getter of the typed values of section ``name``."""
        values = get_checked(raw, name, "an object", {})
        where = f"config {name!r} "
        return lambda key, kind, default=None: get_checked(values, key, kind, default, where)

    kb_path = file_path("kb_path")
    if kb_path is None:
        raise ConfigError("config must set kb_path")
    retrieval, summarizer, llm = section("retrieval"), section("summarizer"), section("llm")
    try:
        retrieval_cfg = RetrievalConfig(
            path_overlap_threshold=float(retrieval("path_overlap_threshold", "a finite number", 0.75)),
            top_n=retrieval("top_n", "an integer", 9),
            token_overlap_threshold=float(retrieval("token_overlap_threshold", "a finite number", 0.75)),
        )
    except ValueError as e:
        raise ConfigError(f"invalid retrieval settings: {e}") from e
    llm_settings = LlmSettings(
        backend=resolve_setting(cli.get("backend"), None, llm("backend", "a string"), "mock"),
        mock_script_path=resolve_setting(
            _resolve_path(Path.cwd(), cli.get("mock_script")),
            None,
            _resolve_path(base_dir, llm("mock_script_path", "a string")),
        ),
        api_base=resolve_setting(
            cli.get("api_base"), env.get(ENV_API_BASE), llm("api_base", "a string")
        ),
        api_key=resolve_setting(
            cli.get("api_key"), env.get(ENV_API_KEY), llm("api_key", "a string")
        ),
        model=resolve_setting(cli.get("model"), env.get(ENV_MODEL), llm("model", "a string")),
        timeout=float(llm("timeout", "a finite number", 120.0)),
        retries=llm("retries", "an integer", 2),
    )
    workers = resolve_setting(cli.get("workers"), None, get_checked(raw, "workers", "an integer", 1))
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    dmt_keys = get_checked(raw, "dmt_keys", "a list", list(DEFAULT_DMT_KEYS))
    if not all(type(key) is str for key in dmt_keys):
        raise ConfigError("config 'dmt_keys' must be a list of strings")

    cfg = PipelineConfig(
        kb_path=kb_path,
        dictionary_path=file_path("dictionary_path", "uninformative_dictionary.txt"),
        schema_dir=file_path("schema_dir", "schemas"),
        refiner_constraints_path=file_path("refiner_constraints_path", "refiner_constraints.json"),
        retrieval=retrieval_cfg,
        max_iterations=summarizer("max_iterations", "an integer", 3),
        max_parse_retries=summarizer("max_parse_retries", "an integer", 1),
        llm=llm_settings,
        workers=workers,
        dmt_keys=tuple(dmt_keys),
    )

    for name in ("kb_path", "dictionary_path", "schema_dir", "refiner_constraints_path"):
        referenced = getattr(cfg, name)
        if not Path(referenced).exists():
            raise ConfigError(f"{name} does not exist: {referenced}")
    if cfg.llm.backend == "mock" and cfg.llm.mock_script_path:
        if not Path(cfg.llm.mock_script_path).exists():
            raise ConfigError(
                f"mock_script_path does not exist: {cfg.llm.mock_script_path}"
            )
    if cfg.max_iterations < 1:
        raise ConfigError("max_iterations must be >= 1")
    if cfg.max_parse_retries < 0:
        raise ConfigError("max_parse_retries must be >= 0")
    if cfg.llm.timeout <= 0:  # the HTTP stack refuses it on every call
        raise ConfigError("timeout must be > 0")
    if cfg.llm.retries < 0:
        raise ConfigError("retries must be >= 0")
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
