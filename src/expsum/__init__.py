"""Expectation-aware function summarization pipeline.

Four phases: model a function into a structured metadata set, drop empty and
uninformative fields, retrieve context-appropriate domain terms from a
TF-IDF knowledge base via cascaded filtering, and generate the summary with
a constraint-driven two-stage LLM loop. A deterministic scripted mock
backend makes the whole pipeline runnable and testable offline, and a
BLEU-4/ROUGE-L harness scores results against references.
"""

from .code_model import (
    DmtConfig,
    FunctionRecord,
    Language,
    MetadataSet,
    ParameterField,
    deserialize_metadata,
    extract_control_flow_skeleton,
    model_function,
    serialize_metadata,
)
from .config import load_pipeline_config
from .errors import ExpSumError
from .knowledge_base import (
    KnowledgeEntry,
    PackageDoc,
    SparseVector,
    TfIdfModel,
    build_knowledge_base,
    encode_tfidf,
    extract_terms_lexical,
    extract_terms_semantic,
    fit_tfidf,
    load_knowledge_base,
    save_knowledge_base,
)
from .llm import HttpLlmClient, LlmRequest, LlmResponse, MockLlmClient, MockScript
from .metadata_check import CheckReport, UninformativeDictionary, check_metadata, load_dictionary
from .metrics import EvaluationReport, ScorePair, bleu4, evaluate_corpus, rouge_l
from .pipeline import Pipeline
from .retrieval import (
    QueryText,
    RetrievalConfig,
    RetrievalResult,
    path_overlap,
    query_from_metadata,
    retrieve,
    stage1_filter,
    stage2_rank,
    stage3_dedup,
    token_overlap,
)
from .summarizer import (
    CategorySchema,
    DraftResult,
    FunctionCategory,
    RefinementOutcome,
    SummarizerConfig,
    SummaryResult,
    build_draft_prompt,
    build_refine_prompt,
    load_category_schemas,
    load_refiner_constraints,
    parse_draft,
    parse_refinement,
    summarize,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
