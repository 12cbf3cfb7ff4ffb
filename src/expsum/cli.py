"""Command-line orchestration of the full pipeline.

Subcommands: kb-build, extract, check, retrieve, summarize, evaluate.
Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional

from . import config as config_module
from .code_model import (
    DmtConfig,
    FunctionRecord,
    Language,
    MetadataSet,
    metadata_from_dict,
    metadata_to_dict,
    model_function,
)
from .errors import EmptyCorpus, ExpSumError, one_line
from .files import JsonObject, check, fault, read_json, read_jsonl, read_text
from .knowledge_base import (
    PackageDoc,
    build_knowledge_base,
    load_knowledge_base,
    save_knowledge_base,
)
from .metadata_check import check_metadata, load_dictionary
from .metrics import ScorePair, evaluate_corpus
from .pipeline import Pipeline
from .retrieval import RetrievalConfig, query_from_metadata, retrieve


def _log(message: str) -> None:
    """Write ``message`` to stderr as one line."""
    print(one_line(message), file=sys.stderr)


def _records(path: Path):
    """Yield each record of the JSON-lines file ``path``. Its ``id`` must be
    a non-empty string or a finite number, unique in the file also as text,
    since ``evaluate`` joins ids by their text (``1`` and ``"1"`` are one)."""
    lines: dict = {}  # each id, and its text, -> the first line holding it
    for line_no, record in read_jsonl(path):
        where = f"{path} line {line_no}"
        record_id = record.get("id")
        if not (
            type(record_id) is str and record_id
            or type(record_id) is int
            or type(record_id) is float and math.isfinite(record_id)
        ):
            kind = "a non-empty string or a finite number"
            raise fault(where, ("id",), kind, record_id, ValueError)
        first = lines.get(record_id) or lines.get(str(record_id))
        if first:
            line, first_id = first
            raise ValueError(f"{where}: duplicate id {record_id!r} (line {line} has {first_id!r})")
        lines[record_id] = lines[str(record_id)] = (line_no, record_id)
        yield record


def _load_corpus_records(path: Path) -> list[dict]:
    return list(_records(path))


def _read_metadata(path: Path) -> MetadataSet:
    """The metadata set in the JSON file ``path``; any fault is a
    ``ValueError`` naming the file."""
    return metadata_from_dict(read_json(path, "metadata", ValueError), f"metadata {path}")


def _read_record(path: Path) -> FunctionRecord:
    """The function of the record in the JSON file ``path``; any fault is a
    ``ValueError`` naming the file."""
    where = f"record {path}"
    record = check(read_json(path, "record", ValueError), "an object", where, (), ValueError)
    return FunctionRecord.from_dict(record.get("function"), where)


def _load_package_docs(corpus: Path) -> list[PackageDoc]:
    docs: list[PackageDoc] = []
    if corpus.is_dir():
        for file in sorted(corpus.iterdir()):
            if file.is_file() and file.suffix in (".txt", ".md"):
                text = read_text(file, "doc", ValueError).strip()
                if text:
                    docs.append(PackageDoc(path_context=file.stem, text=text))
    elif corpus.is_file():
        where = f"manifest {corpus}"
        manifest = check(read_json(corpus, "manifest", ValueError), "a list", where, (), ValueError)
        for n, item in enumerate(manifest):
            item = JsonObject(item, where, ValueError, (n,))
            path_context, text = item.get("path_context", "a string"), item.get("text", "a string")
            try:
                docs.append(PackageDoc(path_context, text))
            except ValueError as e:
                raise ValueError(f"{where}: item {n}: {e}") from None
    return docs


def cmd_kb_build(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.exists():
        _log(f"error: corpus {corpus} does not exist")
        return 2
    docs = _load_package_docs(corpus)
    client = config_module.build_client(
        config_module.LlmSettings(
            backend=args.backend,
            mock_script_path=args.mock_script,
            api_base=args.api_base,
            api_key=args.api_key,
            model=args.model,
        )
    )
    if not docs:
        raise EmptyCorpus(f"empty corpus: {corpus}")
    model, entries = build_knowledge_base(docs, client)
    save_knowledge_base(args.out, model, entries)
    terms = {e.term for e in entries}
    _log(
        f"knowledge base written to {args.out}: {len(docs)} documents, "
        f"{len(entries)} entries, {len(terms)} distinct terms"
    )
    return 0


def cmd_extract(args) -> int:
    dmt_config = (
        DmtConfig.of([k.strip() for k in args.dmt_keys.split(",") if k.strip()])
        if args.dmt_keys
        else DmtConfig()
    )
    if args.record:
        record = _read_record(args.record)
    else:
        record = FunctionRecord(
            file_path=args.source,
            source_text=read_text(args.source, "source", ValueError),
            language=Language.from_string(args.lang or "unknown"),
        )
    metadata = model_function(record, dmt_config)
    print(json.dumps(metadata_to_dict(metadata), indent=2, ensure_ascii=False))
    return 0


def cmd_check(args) -> int:
    dictionary = load_dictionary(
        args.dictionary
        or config_module.packaged_data_path("uninformative_dictionary.txt")
    )
    metadata = _read_metadata(Path(args.metadata))
    report = check_metadata(metadata, dictionary)
    print(json.dumps(report.to_dict(), indent=2, ensure_ascii=False))
    return 0


def cmd_retrieve(args) -> int:
    metadata = _read_metadata(Path(args.metadata))
    kb = load_knowledge_base(args.kb)
    cfg = RetrievalConfig(
        path_overlap_threshold=args.path_threshold,
        top_n=args.top_n,
        token_overlap_threshold=args.token_threshold,
    )
    result = retrieve(query_from_metadata(metadata), kb, cfg)
    print(json.dumps(result.to_dict(), indent=2, ensure_ascii=False))
    return 0


def cmd_summarize(args) -> int:
    cfg = config_module.load_pipeline_config(args.config, cli=vars(args))
    pipeline = Pipeline.from_config(cfg)
    records = _load_corpus_records(Path(args.corpus))
    failures = 0
    # Line-buffered, so each line reaches the file as soon as it and every
    # line before it are done; ``map`` yields in input order.
    with open(args.out, "w", encoding="utf-8", buffering=1) as out, ThreadPoolExecutor(
        max_workers=cfg.workers
    ) as pool:
        for result in pool.map(pipeline.run, records):
            out.write(json.dumps(result, sort_keys=True, ensure_ascii=False) + "\n")
            failures += "error" in result
    _log(
        f"summarized {len(records) - failures}/{len(records)} records "
        f"({failures} warnings) -> {args.out}"
    )
    return 0


def _load_jsonl_field(path: Path, *keys: str) -> dict[str, str]:
    """The text of the first of ``keys`` a record holds, not null, by the
    text of its id; a record holding none of them is skipped."""
    values: dict[str, str] = {}
    for record in _records(path):
        value = next((record[key] for key in keys if record.get(key) is not None), None)
        if value is not None:
            values[str(record["id"])] = str(value)
    return values


def cmd_evaluate(args) -> int:
    generated = _load_jsonl_field(
        Path(args.generated), "candidate", "final_summary", "summary"
    )
    references = _load_jsonl_field(
        Path(args.references), "reference", "reference_summary"
    )
    joinable = sorted(set(generated) & set(references))
    if not joinable:
        _log("error: zero joinable ids between generated and references")
        return 1
    pairs = [
        (item_id, ScorePair(candidate=generated[item_id], reference=references[item_id]))
        for item_id in joinable
    ]
    report = evaluate_corpus(pairs)
    Path(args.report).write_text(
        json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    if args.csv:
        with open(args.csv, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["id", "bleu4", "rougeL"])
            for item in report.per_item:
                writer.writerow([item.id, f"{item.bleu4:.6f}", f"{item.rougeL:.6f}"])
    print(
        f"n={report.n} "
        f"bleu4={report.corpus_means['bleu4']:.3f} "
        f"rougeL={report.corpus_means['rougeL']:.3f}"
    )
    return 0


def _add_llm_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=["mock", "http"], default=None)
    parser.add_argument("--mock-script", dest="mock_script", default=None)
    parser.add_argument("--api-base", dest="api_base", default=None)
    parser.add_argument("--api-key", dest="api_key", default=None)
    parser.add_argument("--model", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="expsum",
        description="Expectation-aware function summarization pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kb-build", help="build a knowledge base from package docs")
    p.add_argument("corpus", help="directory of .txt docs or a JSON manifest")
    p.add_argument("--out", required=True, help="output knowledge base JSON")
    _add_llm_flags(p)
    p.set_defaults(func=cmd_kb_build, backend="mock")

    p = sub.add_parser("extract", help="model a function into metadata JSON")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--source", help="source file containing the function")
    group.add_argument("--record", help="function record JSON file")
    p.add_argument("--lang", help="language name (else inferred from extension)")
    p.add_argument("--dmt-keys", dest="dmt_keys", help="comma-separated annotation keys")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("check", help="drop empty/uninformative metadata fields")
    p.add_argument("--metadata", required=True, help="metadata JSON file")
    p.add_argument("--dictionary", help="dictionary file (default: packaged)")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("retrieve", help="run cascaded retrieval for one function")
    p.add_argument("--metadata", required=True, help="metadata JSON file")
    p.add_argument("--kb", required=True, help="knowledge base JSON file")
    p.add_argument("--top-n", dest="top_n", type=int, default=9)
    p.add_argument("--path-threshold", dest="path_threshold", type=float, default=0.75)
    p.add_argument("--token-threshold", dest="token_threshold", type=float, default=0.75)
    p.set_defaults(func=cmd_retrieve)

    p = sub.add_parser("summarize", help="summarize a corpus of function records")
    p.add_argument("corpus", help="JSON-lines corpus of function records")
    p.add_argument("--config", required=True, help="pipeline config JSON")
    p.add_argument("--out", required=True, help="output JSON-lines file")
    p.add_argument("--workers", type=int, default=None)
    _add_llm_flags(p)
    p.set_defaults(func=cmd_summarize)

    p = sub.add_parser("evaluate", help="score generated summaries against references")
    p.add_argument("--generated", required=True, help="JSON lines with id + candidate")
    p.add_argument("--references", required=True, help="JSON lines with id + reference")
    p.add_argument("--report", required=True, help="output report JSON")
    p.add_argument("--csv", help="optional per-item CSV")
    p.set_defaults(func=cmd_evaluate)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ExpSumError, ValueError, OSError, KeyError) as e:
        _log(f"error: {type(e).__name__}: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
