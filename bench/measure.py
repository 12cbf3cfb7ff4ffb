"""The measured process: one workload in a fresh interpreter.

Run by ``run.py`` as ``python3 bench/measure.py <spec.json>``. It runs whole
rounds of the workload's items until the run length is reached, setting the
program up (and timing each set-up) before every round, and writes timings,
counters, outputs and, when traced, the per-layer figures to the spec's
result file. Output checks happen in the parent, outside this process.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter, process_time

from backend import SimulatedBackend, simulated_client
from tracing import SpanIndex, Tracer, median0, register_program_wrappers


def import_program(root: Path):
    sys.path.insert(0, str(root / "src"))
    import expsum
    import expsum.config  # noqa: F401  (not imported by the package)
    import expsum.frontends  # noqa: F401  (otherwise imported on first parse)

    return expsum


class Workload:
    """Set-up and items of one workload; ``run_item`` is called from up to
    ``workers`` threads."""

    def __init__(self, spec: dict, expsum, backend: SimulatedBackend, tracer):
        self.x = expsum
        self.backend = backend
        self.tracer = tracer
        self.fixture = Path(spec["fixture_dir"])
        self.out_dir = Path(spec["out_dir"])

    def _begin_item(self, key):
        self.backend.set_item(key)
        tracer = self.tracer
        if tracer is not None:
            tracer.set_item(key)
            if tracer.active:
                return tracer.begin("bench.item")
        return None

    def _end_item(self, token):
        if token is not None:
            self.tracer.end(token)


class SummarizeWorkload(Workload):
    """The per-record path of ``expsum summarize``: model_function ->
    check_metadata -> query_from_metadata -> retrieve -> summarize."""

    def load_inputs(self):
        records = json.loads((self.fixture / "records.json").read_text())
        self.items = [{"id": r["id"], "function": r["function"]} for r in records]

    def setup(self):
        x = self.x
        cfg = x.config.load_pipeline_config(self.fixture / "config.json")
        dictionary = x.metadata_check.load_dictionary(cfg.dictionary_path)
        summarizer_cfg = x.summarizer.SummarizerConfig(
            schemas=x.summarizer.load_category_schemas(cfg.schema_dir),
            refiner_constraints=x.summarizer.load_refiner_constraints(
                cfg.refiner_constraints_path
            ),
            max_iterations=cfg.max_iterations,
            max_parse_retries=cfg.max_parse_retries,
        )
        kb = x.knowledge_base.load_knowledge_base(cfg.kb_path)
        client = x.llm.HttpLlmClient(
            api_base=cfg.llm.api_base,
            model=cfg.llm.model,
            timeout=cfg.llm.timeout,
            retries=cfg.llm.retries,
            transport=self.backend,
        )
        return cfg, dictionary, kb, client, summarizer_cfg

    def run_item(self, state, record: dict, key: str) -> dict:
        x = self.x
        cm = x.code_model
        cfg, dictionary, kb, client, summarizer_cfg = state
        token = self._begin_item(key)
        started, cpu_started = perf_counter(), process_time()
        try:
            fn = record["function"]
            pre = fn.get("pre_extracted")
            function_record = cm.FunctionRecord(
                file_path=fn.get("file_path", ""),
                source_text=fn.get("source_text"),
                language=cm.Language.from_string(fn.get("language", "unknown")),
                pre_extracted=cm.metadata_from_dict(pre) if pre is not None else None,
            )
            metadata = cm.model_function(function_record, cfg.dmt_config())
            report = x.metadata_check.check_metadata(metadata, dictionary)
            query = x.retrieval.query_from_metadata(report.retained)
            hits = x.retrieval.retrieve(query, kb, cfg.retrieval)
            result = x.summarizer.summarize(report.retained, hits, client, summarizer_cfg)
            latency, cpu = perf_counter() - started, process_time() - cpu_started
        except Exception as e:  # one failed item must not stop the run
            self._end_item(token)
            return {"id": record["id"], "error": f"{type(e).__name__}: {e}"}
        self._end_item(token)
        return {
            "id": record["id"],
            "latency_s": latency,
            "cpu_s": cpu,
            "modeled": cm.metadata_to_dict(metadata),
            "removed": [name for name, _ in report.removed_fields],
            "terms": list(hits.terms),
            "category": result.category.value,
            "iterations": result.iterations,
            "degraded": result.degraded,
            "final_summary": result.final_summary,
        }


class KbBuildWorkload(Workload):
    """One item builds one project's KB and saves it, as ``expsum kb-build``
    does."""

    def load_inputs(self):
        projects = json.loads((self.fixture / "projects.json").read_text())
        pd = self.x.knowledge_base.PackageDoc
        self.items = [
            {"id": f"proj-{i:04d}", "docs": [pd(d["path_context"], d["text"]) for d in docs]}
            for i, docs in enumerate(projects)
        ]
        (self.out_dir / "kbs").mkdir(parents=True, exist_ok=True)

    def setup(self):
        return simulated_client(self.x, self.backend)

    def run_item(self, client, project: dict, key: str) -> dict:
        kb = self.x.knowledge_base
        path = self.out_dir / "kbs" / f"{project['id']}.json"
        token = self._begin_item(key)
        started, cpu_started = perf_counter(), process_time()
        try:
            model, entries = kb.build_knowledge_base(project["docs"], client)
            kb.save_knowledge_base(path, model, entries)
            latency, cpu = perf_counter() - started, process_time() - cpu_started
        except Exception as e:  # one failed item must not stop the run
            self._end_item(token)
            return {"id": project["id"], "error": f"{type(e).__name__}: {e}"}
        self._end_item(token)
        return {"id": project["id"], "latency_s": latency, "cpu_s": cpu}


def layer_metrics(index: SpanIndex, counts: dict, samples: dict, n_docs: int) -> dict:
    """The per-layer metrics measured in this process (the KB file metrics
    are added by the parent); a layer that never ran on the workload reads
    0."""
    items = len(index.items) or 1
    queries = counts.get("retrieval.queries", 0)
    scanned = counts.get("retrieval.entries_scanned", 0)
    docs_built = counts.get("knowledge_base.docs_built", 0)
    judge_calls = counts.get("llm.calls", 0) if docs_built else 0
    per_query = (lambda n: n / queries) if queries else (lambda n: 0.0)
    if docs_built:
        entries_per_doc = counts.get("knowledge_base.entries_built", 0) / docs_built
    else:
        entries_per_doc = counts.get("knowledge_base.entries", 0) / max(n_docs, 1)
    prompt_builds = index.durations("summarizer.build_draft_prompt") + index.durations(
        "summarizer.build_refine_prompt"
    )
    tail = sorted(index.durations("retrieval.retrieve"))
    return {
        "config.load_ms": index.p50("config.load_pipeline_config"),
        "knowledge_base.load_ms": index.p50("knowledge_base.load_knowledge_base"),
        "knowledge_base.entries": counts.get("knowledge_base.entries", 0)
        or counts.get("knowledge_base.entries_built", 0) / items,
        "knowledge_base.build_ms": index.per_item_p50("knowledge_base.build_knowledge_base"),
        "knowledge_base.fit_ms": index.per_item_p50("knowledge_base.fit_tfidf"),
        "knowledge_base.lexical_ms": index.per_item_p50("knowledge_base.extract_terms_lexical"),
        "knowledge_base.semantic_ms": index.per_item_p50("knowledge_base.extract_terms_semantic"),
        "knowledge_base.encode_ms": index.per_item_p50("knowledge_base.encode_tfidf"),
        "knowledge_base.serialize_ms": index.per_item_p50("knowledge_base.kb_to_json"),
        "knowledge_base.write_ms": median0(index.self_times("knowledge_base.save_knowledge_base")),
        "knowledge_base.entries_per_doc": entries_per_doc,
        "knowledge_base.judge_calls_per_doc": judge_calls / docs_built if docs_built else 0.0,
        "knowledge_base.judge_changed_ratio": counts.get("knowledge_base.semantic_terms", 0)
        / judge_calls
        if judge_calls
        else 0.0,
        "code_model.model_ms_p50": index.p50("code_model.model_function"),
        "metadata_check.check_ms_p50": index.p50("metadata_check.check_metadata"),
        "metadata_check.fields_removed_per_item": counts.get("metadata_check.fields_removed", 0)
        / items,
        "retrieval.retrieve_ms_p50": index.p50("retrieval.retrieve"),
        "retrieval.retrieve_ms_tail": tail[tail_index(len(tail))] if tail else 0.0,
        "retrieval.stage1_ms_p50": index.p50("retrieval.stage1_filter"),
        "retrieval.stage2_ms_p50": index.p50("retrieval.stage2_rank"),
        "retrieval.stage3_ms_p50": index.p50("retrieval.stage3_dedup"),
        "retrieval.path_overlap_calls_per_query": per_query(
            counts.get("retrieval.path_overlap_calls", 0)
        ),
        "retrieval.stage1_keep_ratio": counts.get("retrieval.stage1_survivors", 0) / scanned
        if scanned
        else 0.0,
        "retrieval.stage1_survivors_per_query": per_query(
            counts.get("retrieval.stage1_survivors", 0)
        ),
        "retrieval.stage2_kept_per_query": per_query(counts.get("retrieval.stage2_kept", 0)),
        "retrieval.stage3_terms_per_query": per_query(counts.get("retrieval.stage3_terms", 0)),
        "summarizer.draft_prompt_chars_p50": median0(samples.get("summarizer.draft_prompt_chars", [])),
        "summarizer.refine_prompt_chars_p50": median0(samples.get("summarizer.refine_prompt_chars", [])),
        "summarizer.prompt_build_ms_p50": median0(prompt_builds),
        "summarizer.self_ms_p50": median0(index.self_times("summarizer.summarize")),
        "summarizer.iterations_per_item": counts.get("summarizer.iterations", 0) / items,
        "summarizer.parse_retries_per_item": counts.get("summarizer.parse_failures", 0) / items,
        "summarizer.degraded_per_item": counts.get("summarizer.degraded", 0) / items,
        "llm.calls_per_item": counts.get("llm.calls", 0) / items,
        "llm.complete_ms_p50": index.p50("llm.HttpLlmClient.complete"),
        "llm.backend_ms_p50": index.p50("llm.backend"),
        "llm.client_overhead_ms_p50": median0(
            index.child_overhead("llm.HttpLlmClient.complete", "llm.backend")
        ),
    }


def tail_index(n: int) -> int:
    """Index of the p90 sample in a sorted list of ``n`` (nearest rank)."""
    return max(0, min(n - 1, -(-9 * n // 10) - 1))


# Timings are scaled to a reference machine speed. The host this benchmark
# was tuned on changes speed by up to 2.5x, for seconds to minutes at a
# time, with other load, which moves every CPU-bound time alike. Between
# items, with no item in flight, the benchmark times a fixed pure-Python
# loop, and the part of an item's time that is not the simulated model's
# delay is multiplied by REFERENCE_CALIBRATION_S / the mean of the loop's
# times just before and after the item.
#
# With one worker the loop brackets every item, and both are timed in the
# process's CPU time: an item's work then reads the same whether or not
# other processes took the CPU from it meanwhile, and a slow spell of any
# length is scaled away. Work the program hands to its own threads still
# counts; waits that are neither CPU nor the simulated model (a disk, a
# child process) do not. With more workers, an item's wall time also holds
# its wait for the other workers (the interpreter lock), which is the
# program's own, so items run in chunks of CALIBRATION_CHUNK with the loop
# timed in wall time between chunks. Set-ups run with no item in flight,
# back to back before every round; they are timed in CPU time and scaled by
# the loop's CPU times just before and after the round's set-ups.
REFERENCE_CALIBRATION_S = 0.004  # about the loop's time on the reference VM
CALIBRATION_CHUNK = 20  # items between calibrations with more than one worker
CHUNK_CALIBRATION_REPS = 7
ITEM_CALIBRATION_REPS = 3
_CALIBRATION_PATHS = [f"ohos.p{i % 7}.q{i % 11}@r{i % 13}/s{i}" for i in range(2000)]


def calibrate(reps: int = CHUNK_CALIBRATION_REPS) -> tuple[float, float]:
    """Wall and CPU times of the fixed calibration loop: path tokenizing
    and comparing, the kind of interpreter work the program does. Wall
    times take the median, which drops a rep another process preempted;
    CPU times take the mean, since an item takes every slow spell of its
    CPU in full."""
    walls, cpus = [], []
    for _ in range(reps):
        started, cpu_started = perf_counter(), process_time()
        matched = 0
        for path in _CALIBRATION_PATHS:
            tokens = path.replace(".", "/").replace("@", "/").split("/")
            matched += sum(1 for a, b in zip(tokens, tokens[1:]) if a != b)
        cpus.append(process_time() - cpu_started)
        walls.append(perf_counter() - started)
    return statistics.median(walls), statistics.mean(cpus)


def peak_rss_kib() -> float:
    """This process image's peak resident set. ``ru_maxrss`` is not used
    where ``VmHWM`` exists: it keeps the parent's peak across fork and
    exec."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1])
    except OSError:
        pass
    return float(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    expsum = import_program(Path(spec["root"]))
    fixture = Path(spec["fixture_dir"])
    table = json.loads((fixture / "backend.json").read_text())
    backend = SimulatedBackend(
        table["plans"], table["changed"], spec["fixed_ms"], spec["per_kchar_ms"]
    )
    tracer = None
    if spec["trace"]:
        tracer = Tracer()
        register_program_wrappers(tracer, expsum)
        backend.tracer = tracer
    workload = (KbBuildWorkload if spec["kind"] == "kb_build" else SummarizeWorkload)(
        spec, expsum, backend, tracer
    )
    workload.load_inputs()

    # Whole rounds only, so every count per item repeats exactly. Set-up is
    # repeated before every round, so its median samples the whole run and
    # not one moment of a machine whose speed drifts. Traced runs alternate
    # traced and untraced rounds; the untraced ones give the tracing
    # overhead.
    setup_s: list[float] = []  # wall time
    scaled_setup_s: list[float] = []
    scaled_walls: list[float] = []
    calibrations = [calibrate()]
    state = None
    outputs: list[dict] = []
    round_walls = {True: [], False: []}
    workers = spec["workers"]
    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    # One worker: the loop brackets every item, in CPU time. More: chunks,
    # in wall time (see REFERENCE_CALIBRATION_S).
    per_item = pool is None
    chunk_size, reps = (1, ITEM_CALIBRATION_REPS) if per_item else (CALIBRATION_CHUNK, CHUNK_CALIBRATION_REPS)
    clock = 1 if per_item else 0  # index into a calibrate() result
    elapsed = 0.0
    round_no = 0
    min_rounds = max(1, -(-spec["min_items"] // len(workload.items)))
    if tracer is not None:
        min_rounds = max(2, min_rounds)
    while round_no < min_rounds or elapsed < spec["seconds"]:
        if tracer is not None:
            tracer.set_item(None)
            tracer.install()
        setup_cpu_s = []
        for _ in range(spec["setup_reps"]):
            state = None  # frees the previous state before the next set-up
            started, cpu_started = perf_counter(), process_time()
            state = workload.setup()
            setup_cpu_s.append(process_time() - cpu_started)
            setup_s.append(perf_counter() - started)
        calibrations.append(calibrate())
        factor = REFERENCE_CALIBRATION_S / statistics.mean(c[1] for c in calibrations[-2:])
        scaled_setup_s.extend(t * factor for t in setup_cpu_s)

        traced = tracer is not None and round_no % 2 == 0
        if tracer is not None and not traced:
            tracer.uninstall()

        def one(item, r=round_no):
            return workload.run_item(state, item, f"{r}:{item['id']}")

        # The round runs in chunks with a calibration after each, so the
        # scaling follows the machine's speed within a round too.
        results = []
        wall = scaled_wall = 0.0
        for first in range(0, len(workload.items), chunk_size):
            chunk = workload.items[first : first + chunk_size]
            started = perf_counter()
            chunk_results = [one(item) for item in chunk] if pool is None else list(pool.map(one, chunk))
            chunk_wall = perf_counter() - started
            calibrations.append(calibrate(reps))
            factor = REFERENCE_CALIBRATION_S / statistics.mean(c[clock] for c in calibrations[-2:])
            raw = scaled = 0.0
            for r in chunk_results:
                r["traced"] = traced
                if "latency_s" in r:
                    delay = backend.delay_s.get(f"{round_no}:{r['id']}", 0.0)
                    work = r["cpu_s"] if per_item else r["latency_s"] - delay
                    r["scaled_latency_s"] = delay + work * factor
                    raw += r["latency_s"]
                    scaled += r["scaled_latency_s"]
            wall += chunk_wall
            scaled_wall += chunk_wall * scaled / raw if raw else chunk_wall
            results.extend(chunk_results)
        round_walls[traced].append(wall)
        if not traced:
            scaled_walls.append(scaled_wall)
        elapsed += wall
        outputs.extend(results)
        if round_no == 0:
            # Later set-ups reload the program's state into a fragmented heap;
            # a user loads it once.
            peak_rss_mb = peak_rss_kib() / 1024.0
        round_no += 1
    if pool is not None:
        pool.shutdown(wait=True)
    if tracer is not None:
        tracer.uninstall()

    result = {
        "setup_s": setup_s,
        "scaled_setup_s": scaled_setup_s,
        "calibrations": [c[0] for c in calibrations],
        "round_walls": round_walls[False],
        "scaled_round_walls": scaled_walls,
        "traced_round_walls": round_walls[True],
        "items_per_round": len(workload.items),
        "llm_calls": backend.calls,
        "prompt_chars": backend.prompt_chars,
        "peak_rss_mb": peak_rss_mb,
        "outputs": outputs,
    }
    if tracer is not None:
        index = SpanIndex(tracer.spans)
        result["layers"] = layer_metrics(
            index, {**tracer.counts, **tracer.call_counts()}, tracer.samples, spec["n_docs"]
        )
        result["table"] = index.table()
    Path(spec["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
