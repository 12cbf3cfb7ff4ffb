"""Span tracing from outside the program.

Each traced public function is wrapped at the name through which its caller
looks it up (``retrieve`` finds ``encode_tfidf`` through
``expsum.retrieval``, so that name is wrapped as well as the one on
``expsum.knowledge_base``). A span records its name, start, end, parent span
and the item it belongs to; spans and counters stay in memory until the run
ends. Wrappers can be removed again, so one process can alternate traced and
untraced rounds.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import threading
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, span_id, parent_id, item)
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.active = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple] = []
        self._call_counters: dict[str, itertools.count] = {}

    # -- recording -------------------------------------------------------

    def set_item(self, item) -> None:
        self._local.item = item

    def begin(self, name: str):
        local = self._local
        stack = getattr(local, "stack", None)
        if stack is None:
            stack = local.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        return (name, perf_counter(), span_id, parent)

    def end(self, token) -> None:
        end = perf_counter()
        local = self._local
        local.stack.pop()
        name, start, span_id, parent = token
        self.spans.append((name, start, end, span_id, parent, getattr(local, "item", None)))

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    # -- installing wrappers ----------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None, on_error=None) -> None:
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            except Exception as e:
                tracer.end(token)
                if on_error is not None:
                    on_error(e)
                raise
            tracer.end(token)
            if on_result is not None:
                on_result(args, result)
            return result

        self._patches.append((owner, attr, original, traced))

    def wrap_count(self, owner, attr: str, counter: str) -> None:
        """Count calls without a span, for functions called per KB entry.
        ``next`` on an ``itertools.count`` is atomic, so no lock is taken."""
        original = getattr(owner, attr)
        calls = itertools.count()
        self._call_counters[counter] = calls

        @functools.wraps(original)
        def counted(*args, **kwargs):
            next(calls)
            return original(*args, **kwargs)

        self._patches.append((owner, attr, original, counted))

    def call_counts(self) -> dict[str, int]:
        """Totals of the ``wrap_count`` counters (reading one advances it,
        so read once, at the end)."""
        return {name: next(c) for name, c in self._call_counters.items()}

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)
        self.active = False


def register_program_wrappers(tracer: Tracer, expsum) -> None:
    """Wrap the program's public functions, one span name per function."""
    t = tracer
    cfg, mc, cm, fe = expsum.config, expsum.metadata_check, expsum.code_model, expsum.frontends
    kb, rt, sm, llm = expsum.knowledge_base, expsum.retrieval, expsum.summarizer, expsum.llm

    def set_entries(args, result):
        t.counts["knowledge_base.entries"] = len(result[1])

    def build_done(args, result):
        t.count("knowledge_base.docs_built", len(args[0]))
        t.count("knowledge_base.entries_built", len(result[1]))

    def stage1_done(args, result):
        t.count("retrieval.entries_scanned", len(args[1]))
        t.count("retrieval.stage1_survivors", len(result))

    def prompt_chars(name):
        return lambda args, req: t.sample(name, len(req.system_prompt) + len(req.user_prompt))

    def summary_done(args, result):
        t.count("summarizer.iterations", result.iterations)
        t.count("summarizer.degraded", int(result.degraded))

    def parse_failed(error):
        t.count("summarizer.parse_failures")

    t.wrap(cfg, "load_pipeline_config", "config.load_pipeline_config")
    t.wrap(mc, "load_dictionary", "metadata_check.load_dictionary")
    t.wrap(
        mc, "check_metadata", "metadata_check.check_metadata",
        lambda a, r: t.count("metadata_check.fields_removed", len(r.removed_fields)),
    )
    t.wrap(cm, "model_function", "code_model.model_function")
    t.wrap(fe.TypeScriptLikeFrontend, "parse", "frontends.TypeScriptLikeFrontend.parse")
    t.wrap(kb, "load_knowledge_base", "knowledge_base.load_knowledge_base", set_entries)
    t.wrap(kb, "build_knowledge_base", "knowledge_base.build_knowledge_base", build_done)
    t.wrap(kb, "fit_tfidf", "knowledge_base.fit_tfidf")
    t.wrap(kb, "extract_terms_lexical", "knowledge_base.extract_terms_lexical")
    t.wrap(
        kb, "extract_terms_semantic", "knowledge_base.extract_terms_semantic",
        lambda a, r: t.count("knowledge_base.semantic_terms", len(r)),
    )
    t.wrap(kb, "encode_tfidf", "knowledge_base.encode_tfidf")
    t.wrap(rt, "encode_tfidf", "knowledge_base.encode_tfidf")
    t.wrap(kb, "kb_to_json", "knowledge_base.kb_to_json")
    t.wrap(kb, "save_knowledge_base", "knowledge_base.save_knowledge_base")
    t.wrap(rt, "query_from_metadata", "retrieval.query_from_metadata")
    t.wrap(rt, "retrieve", "retrieval.retrieve", lambda a, r: t.count("retrieval.queries"))
    t.wrap(rt, "stage1_filter", "retrieval.stage1_filter", stage1_done)
    t.wrap(
        rt, "stage2_rank", "retrieval.stage2_rank",
        lambda a, r: t.count("retrieval.stage2_kept", len(r)),
    )
    t.wrap(
        rt, "stage3_dedup", "retrieval.stage3_dedup",
        lambda a, r: t.count("retrieval.stage3_terms", len(r)),
    )
    t.wrap_count(rt, "path_overlap", "retrieval.path_overlap_calls")
    t.wrap(sm, "load_category_schemas", "summarizer.load_category_schemas")
    t.wrap(sm, "load_refiner_constraints", "summarizer.load_refiner_constraints")
    t.wrap(sm, "summarize", "summarizer.summarize", summary_done)
    t.wrap(
        sm, "build_draft_prompt", "summarizer.build_draft_prompt",
        prompt_chars("summarizer.draft_prompt_chars"),
    )
    t.wrap(
        sm, "build_refine_prompt", "summarizer.build_refine_prompt",
        prompt_chars("summarizer.refine_prompt_chars"),
    )
    t.wrap(sm, "parse_draft", "summarizer.parse_draft", on_error=parse_failed)
    t.wrap(sm, "parse_refinement", "summarizer.parse_refinement", on_error=parse_failed)
    t.wrap(
        llm.HttpLlmClient, "complete", "llm.HttpLlmClient.complete",
        lambda a, r: t.count("llm.calls"),
    )


# -- analysis ----------------------------------------------------------------


def median0(values) -> float:
    """Median, or 0 for no values."""
    return statistics.median(values) if values else 0.0


class SpanIndex:
    """Durations and self times of the recorded spans, in milliseconds."""

    def __init__(self, spans: list[tuple]):
        self.children: dict[int, list[tuple]] = defaultdict(list)
        self.by_name: dict[str, list[tuple]] = defaultdict(list)
        for span in spans:
            self.children[span[4]].append(span)
            self.by_name[span[0]].append(span)
        self.self_ms = {
            s[3]: (s[2] - s[1] - sum(c[2] - c[1] for c in self.children.get(s[3], ())))
            * 1000.0
            for s in spans
        }
        self.items = [s[5] for s in self.by_name.get("bench.item", [])]

    def durations(self, name: str) -> list[float]:
        return [(s[2] - s[1]) * 1000.0 for s in self.by_name.get(name, [])]

    def self_times(self, name: str) -> list[float]:
        return [self.self_ms[s[3]] for s in self.by_name.get(name, [])]

    def p50(self, name: str) -> float:
        return median0(self.durations(name))

    def per_item_p50(self, name: str) -> float:
        """Median over traced items of the time an item spent in ``name``
        (0 for an item that never called it); 0 when no item did."""
        spans = self.by_name.get(name, [])
        if not spans:
            return 0.0
        totals = dict.fromkeys(self.items, 0.0)
        for s in spans:
            if s[5] in totals:
                totals[s[5]] += (s[2] - s[1]) * 1000.0
        return median0(list(totals.values()))

    def child_overhead(self, name: str, child: str) -> list[float]:
        """Duration of each ``name`` span minus its ``child`` spans."""
        out = []
        for s in self.by_name.get(name, []):
            inner = sum((c[2] - c[1]) for c in self.children.get(s[3], []) if c[0] == child)
            out.append((s[2] - s[1] - inner) * 1000.0)
        return out

    def table(self) -> list[dict]:
        """Per span name: count, total, self time, p50, and the share of
        all item time spent in that name's own code."""
        item_total = sum(self.durations("bench.item")) or 1.0
        rows = []
        for name in sorted(self.by_name):
            durations = self.durations(name)
            in_items = [self.self_ms[s[3]] for s in self.by_name[name] if s[5] is not None]
            rows.append(
                {
                    "name": name,
                    "count": len(durations),
                    "total_ms": sum(durations),
                    "self_ms": sum(self.self_times(name)),
                    "p50_ms": median0(durations),
                    "item_share": sum(in_items) / item_total,
                }
            )
        return rows
