"""The per-record pipeline: model a function, check its metadata, retrieve
domain terms, then draft and refine its summary."""

from __future__ import annotations

import sys
import threading
from dataclasses import dataclass

from .code_model import FunctionRecord, model_function
from .config import PipelineConfig, build_client
from .errors import ConfigError, one_line
from .knowledge_base import KnowledgeEntry, TfIdfModel, load_knowledge_base
from .llm import LlmClient
from .metadata_check import UninformativeDictionary, check_metadata, load_dictionary
from .retrieval import query_from_metadata, retrieve
from .summarizer import (
    SummarizerConfig,
    load_category_schemas,
    load_refiner_constraints,
    summarize,
)

# ``print`` writes the text and its newline separately, so concurrent
# records' warnings could interleave; each line is one write under this lock.
_STDERR_LOCK = threading.Lock()


@dataclass(frozen=True)
class Pipeline:
    """A config and the files it names, loaded once. ``run`` only reads
    them, so one pipeline can serve any number of threads."""

    cfg: PipelineConfig
    dictionary: UninformativeDictionary
    kb: tuple[TfIdfModel, list[KnowledgeEntry]]
    client: LlmClient
    summarizer: SummarizerConfig

    @classmethod
    def from_config(cls, cfg: PipelineConfig) -> "Pipeline":
        """Load the dictionary, knowledge base, client, schemas and refiner
        constraints that ``cfg`` names; load errors propagate.

        The mock backend needs a script here: without one it answers every
        prompt with a judgment, which no draft parses."""
        if cfg.llm.backend == "mock" and not cfg.llm.mock_script_path:
            raise ConfigError(
                "the mock backend needs a script to summarize: set 'llm' "
                "'mock_script_path' in the config or pass --mock-script"
            )
        return cls(
            cfg=cfg,
            dictionary=load_dictionary(cfg.dictionary_path),
            kb=load_knowledge_base(cfg.kb_path),
            client=build_client(cfg.llm),
            summarizer=SummarizerConfig(
                schemas=load_category_schemas(cfg.schema_dir),
                refiner_constraints=load_refiner_constraints(cfg.refiner_constraints_path),
                max_iterations=cfg.max_iterations,
                max_parse_retries=cfg.max_parse_retries,
            ),
        )

    def run(self, record: dict) -> dict:
        """Summarize one corpus record (``{"id", "function"}``) into its
        output line.

        Any exception becomes ``{"id", "error": <exception type name>}`` and
        one ``warning:`` line on stderr (CR and LF in the message escaped),
        so one bad record never ends a run.
        """
        record_id = record["id"]
        try:
            function = FunctionRecord.from_dict(record.get("function"))
            checked = check_metadata(model_function(function, self.cfg.dmt_config()), self.dictionary)
            hits = retrieve(query_from_metadata(checked.retained), self.kb, self.cfg.retrieval)
            result = summarize(checked.retained, hits, self.client, self.summarizer)
        except Exception as e:  # the record's error line is the report
            with _STDERR_LOCK:
                sys.stderr.write(
                    one_line(f"warning: record {record_id!r} failed: {type(e).__name__}: {e}") + "\n"
                )
            return {"id": record_id, "error": type(e).__name__}
        return {
            "id": record_id,
            "final_summary": result.final_summary,
            "category": result.category.value,
            "retrieved_terms": result.retrieved_terms,
            "iterations": result.iterations,
            "degraded": result.degraded,
        }
