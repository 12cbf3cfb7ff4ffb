"""expsum benchmark: one command, three workloads, checked outputs.

    python3 bench/run.py --workload summarize_large_kb --seed 1 --seconds 10 --trace 0

Prepares the workload's inputs from ``--seed`` (cached under
``bench/.work/``), runs the program in a fresh process for whole rounds of
items until ``--seconds`` of measuring is used, checks every output against
references computed apart from the program, and prints one JSON line:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones and prints the per-layer
table. ``--repeat K`` runs K seeds in fresh processes and prints the spread
of every metric; ``--smoke`` shrinks every input. See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RUN_LIMIT_S = 170.0

sys.path.insert(0, str(BENCH))
import fixtures  # noqa: E402
import reference  # noqa: E402
from backend import SIMULATED_API_BASE, SIMULATED_MODEL, SimulatedBackend, simulated_client  # noqa: E402
from measure import tail_index  # noqa: E402

# Inputs and the simulated backend of each workload. ``items`` is one round
# (a multiple of the twenty-record plan block); ``setup_reps`` set-ups
# precede every round. A run makes whole rounds until ``--seconds`` have
# passed and at least MIN_ITEMS items are done, so the p90 tail always has
# ten samples beyond it.
MIN_ITEMS = 100
WORKLOADS = {
    "summarize_large_kb": dict(
        kind="summarize", docs=2000, items=100, raw_share=0.0, workers=1,
        fixed_ms=0.0, per_kchar_ms=0.0, changed=0, setup_reps=1,
    ),
    "summarize_llm_bound": dict(
        kind="summarize", docs=40, items=100, raw_share=0.5, workers=2,
        fixed_ms=8.0, per_kchar_ms=4.0, changed=6, setup_reps=5,
    ),
    "kb_build": dict(
        kind="kb_build", items=60, docs_per_project=4, workers=1,
        fixed_ms=1.0, per_kchar_ms=4.0, changed=6, setup_reps=51,
    ),
}
SMOKE = {
    "summarize_large_kb": dict(docs=60, items=20),
    "summarize_llm_bound": dict(docs=10, items=20, fixed_ms=0.0, per_kchar_ms=0.0),
    "kb_build": dict(items=10, setup_reps=3, fixed_ms=0.0, per_kchar_ms=0.0),
}
KEEP_FIXTURES = 6


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    src = ROOT / "src"
    if not (src / "expsum" / "__init__.py").is_file():
        fail(f"no program source at {src}; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    import expsum

    if Path(expsum.__file__).resolve().parent != (src / "expsum").resolve():
        fail(f"imported expsum from {expsum.__file__}, not from {src}")
    return expsum


def load_benchmark_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


# -- fixtures ------------------------------------------------------------------


def source_digest() -> str:
    """Hash of the program and the benchmark: a cached fixture built by other
    code is never reused."""
    h = hashlib.sha256()
    for base in (ROOT / "src" / "expsum", BENCH):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".py", ".json", ".txt"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def judge_client(expsum, changed):
    """Zero-delay client whose judge answers ``changed`` for ``changed``."""
    return simulated_client(expsum, SimulatedBackend({}, changed, 0.0, 0.0))


def build_fixture(expsum, name: str, params: dict, seed: int, target: Path) -> None:
    rng = random.Random(f"{name}:{seed}")
    changed = fixtures.changed_words(rng, params["changed"])
    target.mkdir(parents=True)
    if params["kind"] == "kb_build":
        projects = fixtures.make_projects(
            rng, params["items"], params["docs_per_project"], changed
        )
        (target / "projects.json").write_text(json.dumps(projects))
        (target / "backend.json").write_text(
            json.dumps({"plans": {}, "changed": sorted(changed)})
        )
        return
    docs = fixtures.make_docs(rng, params["docs"], changed=changed)
    records = fixtures.make_records(
        rng, params["items"], [d["path_context"] for d in docs], params["raw_share"]
    )
    plans = {r["expected_metadata"]["function_name"]: r["plan"] for r in records}
    (target / "docs.json").write_text(json.dumps(docs))
    (target / "records.json").write_text(json.dumps(records))
    (target / "backend.json").write_text(
        json.dumps({"plans": plans, "changed": sorted(changed)})
    )
    (target / "config.json").write_text(
        json.dumps(
            {
                "kb_path": "kb.json",
                "llm": {
                    "backend": "http",
                    "api_base": SIMULATED_API_BASE,
                    "model": SIMULATED_MODEL,
                    "timeout": 30,
                    "retries": 0,
                },
                "workers": params["workers"],
            }
        )
    )
    kb = expsum.knowledge_base
    package_docs = [kb.PackageDoc(d["path_context"], d["text"]) for d in docs]
    model, entries = kb.build_knowledge_base(package_docs, judge_client(expsum, changed))
    kb.save_knowledge_base(target / "kb.json", model, entries)


def prepare_fixture(expsum, name: str, params: dict, seed: int, smoke: bool) -> Path:
    fixtures_dir = WORK / "fixtures"
    tag = f"{name}-s{seed}{'-smoke' if smoke else ''}-{source_digest()}"
    target = fixtures_dir / tag
    if not target.is_dir():
        partial = fixtures_dir / f".{tag}.{os.getpid()}"
        shutil.rmtree(partial, ignore_errors=True)
        build_fixture(expsum, name, params, seed, partial)
        try:
            partial.rename(target)
        except OSError:  # built meanwhile by another run
            shutil.rmtree(partial, ignore_errors=True)
    target.touch()
    cached = sorted(
        (p for p in fixtures_dir.iterdir() if p.is_dir() and not p.name.startswith(".")),
        key=lambda p: p.stat().st_mtime,
    )
    for old in cached[:-KEEP_FIXTURES]:
        shutil.rmtree(old, ignore_errors=True)
    return target


# -- checks ----------------------------------------------------------------------


def check_summarize(fixture: Path, outputs: list[dict]) -> dict[str, list[str]]:
    records = {r["id"]: r for r in json.loads((fixture / "records.json").read_text())}
    changed = set(json.loads((fixture / "backend.json").read_text())["changed"])
    corpus = reference.Corpus(json.loads((fixture / "docs.json").read_text()), changed)
    cache: dict = {}
    problems = {}
    for out in outputs:
        if "error" not in out:
            found = reference.check_summarize_item(out, records[out["id"]], corpus, cache)
            if found:
                problems[out["id"]] = found
    return problems


def check_kb_build(expsum, fixture: Path, out_dir: Path) -> dict[str, list[str]]:
    kb = expsum.knowledge_base
    projects = json.loads((fixture / "projects.json").read_text())
    changed = set(json.loads((fixture / "backend.json").read_text())["changed"])
    problems = {}
    for i, docs in enumerate(projects):
        item_id = f"proj-{i:04d}"
        path = out_dir / "kbs" / f"{item_id}.json"
        try:
            text = path.read_text(encoding="utf-8")
            model, entries = kb.load_knowledge_base(path)
        except Exception as e:  # a missing or unreadable KB fails its item only
            problems[item_id] = [f"saved KB unreadable: {type(e).__name__}: {e}"]
            continue
        found = reference.check_project_kb(model, entries, docs, changed)
        if kb.kb_to_json(model, entries) != text:
            found.append("save then load is not lossless")
        rebuilt = kb.build_knowledge_base(
            [kb.PackageDoc(d["path_context"], d["text"]) for d in docs],
            judge_client(expsum, changed),
        )
        if kb.kb_to_json(*rebuilt) != text:
            found.append("rebuild is not byte-identical")
        if found:
            problems[item_id] = found
    return problems


# -- one run -----------------------------------------------------------------------


def doc_bytes(docs) -> int:
    return sum(len(d["text"].encode("utf-8")) for d in docs)


def run_once(args, spec_json: dict) -> int:
    started = time.monotonic()
    expsum = import_program()
    params = dict(WORKLOADS[args.workload])
    if args.smoke:
        params.update(SMOKE[args.workload])
    fixture = prepare_fixture(expsum, args.workload, params, args.seed, args.smoke)
    run_dir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        spec = {
            "root": str(ROOT),
            "fixture_dir": str(fixture),
            "out_dir": str(run_dir),
            "result_path": str(run_dir / "result.json"),
            "kind": params["kind"],
            "workers": params["workers"],
            "fixed_ms": params["fixed_ms"],
            "per_kchar_ms": params["per_kchar_ms"],
            "setup_reps": params["setup_reps"],
            "n_docs": params.get("docs", 0),
            "seconds": 0.0 if args.smoke else args.seconds,
            "min_items": 0 if args.smoke else MIN_ITEMS,
            "trace": bool(args.trace),
        }
        (run_dir / "spec.json").write_text(json.dumps(spec))
        budget = RUN_LIMIT_S - (time.monotonic() - started)
        try:
            child = subprocess.run(
                [sys.executable, str(BENCH / "measure.py"), str(run_dir / "spec.json")],
                stdout=subprocess.DEVNULL,
                timeout=max(budget, 1.0),
            )
        except subprocess.TimeoutExpired:
            fail("measured process did not finish in time")
        if child.returncode != 0:
            fail(f"measured process exited with {child.returncode}")
        result = json.loads((run_dir / "result.json").read_text())
        return report(args, spec_json, params, fixture, run_dir, result, expsum)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report(args, spec_json, params, fixture, run_dir, result, expsum) -> int:
    outputs = result["outputs"]
    if params["kind"] == "kb_build":
        problems = check_kb_build(expsum, fixture, run_dir)
        projects = json.loads((fixture / "projects.json").read_text())
        kb_files = sorted((run_dir / "kbs").glob("*.json"))
        kb_bytes = sum(p.stat().st_size for p in kb_files)
        kb_bytes_per_doc_byte = kb_bytes / sum(doc_bytes(docs) for docs in projects)
        file_bytes = kb_bytes / len(kb_files)
    else:
        problems = check_summarize(fixture, outputs)
        docs = json.loads((fixture / "docs.json").read_text())
        file_bytes = (fixture / "kb.json").stat().st_size
        kb_bytes_per_doc_byte = file_bytes / doc_bytes(docs)

    errors = [o for o in outputs if "error" in o]
    failed = sum(1 for o in outputs if "error" in o or o["id"] in problems)
    for o in errors[:5]:
        print(f"bench: item {o['id']} failed: {o['error']}", file=sys.stderr)
    for item_id, found in list(problems.items())[:5]:
        print(f"bench: item {item_id} output mismatch: {'; '.join(found)}", file=sys.stderr)

    items_per_round = result["items_per_round"]
    walls = result["round_walls"]
    items_per_s = items_per_round * len(walls) / sum(walls)
    scaled_items_per_s = items_per_round * len(walls) / sum(result["scaled_round_walls"])
    if args.trace:
        metrics = dict(result["layers"])
        metrics["knowledge_base.file_bytes"] = file_bytes
        traced_walls = result["traced_round_walls"]
        traced_items_per_s = items_per_round * len(traced_walls) / sum(traced_walls)
        print_table(result["table"], items_per_s, traced_items_per_s)
        wanted = spec_json["per_layer"]
    else:
        latencies = sorted(
            o["scaled_latency_s"] * 1000.0
            for o in outputs
            if not o["traced"] and "latency_s" in o
        )
        if not latencies:
            fail("no item completed")
        raw = sorted(o["latency_s"] * 1000.0 for o in outputs if not o["traced"] and "latency_s" in o)
        print(
            f"bench: unscaled setup_s {statistics.median(result['setup_s']):.6g}, "
            f"items_per_s {items_per_s:.6g}, p50 {statistics.median(raw):.6g} ms, "
            f"tail {raw[tail_index(len(raw))]:.6g} ms; calibration loop "
            f"{1000 * statistics.median(result['calibrations']):.4g} ms",
            file=sys.stderr,
        )
        metrics = {
            "setup_s": statistics.median(result["scaled_setup_s"]),
            "items_per_s": scaled_items_per_s,
            "item_latency_p50_ms": statistics.median(latencies),
            "item_latency_tail_ms": latencies[tail_index(len(latencies))],
            "llm_calls_per_item": result["llm_calls"] / len(outputs),
            "prompt_chars_per_item": result["prompt_chars"] / len(outputs),
            "kb_bytes_per_doc_byte": kb_bytes_per_doc_byte,
            "peak_rss_mb": result["peak_rss_mb"],
        }
        wanted = spec_json["end_to_end"]
    names = [m["name"] for m in wanted]
    if set(names) != set(metrics):
        fail(f"metrics {sorted(set(names) ^ set(metrics))} differ from BENCHMARK.json")
    correct = not problems
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outputs),
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0 if correct and not failed else 1


def print_table(rows: list[dict], items_per_s: float, traced_items_per_s: float) -> None:
    print(f"{'span':48} {'count':>7} {'total ms':>11} {'self ms':>11} {'p50 ms':>9} {'item %':>7}")
    layers: dict[str, float] = {}
    for r in rows:
        layer = r["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + r["item_share"]
        print(
            f"{r['name']:48} {r['count']:7d} {r['total_ms']:11.2f} {r['self_ms']:11.2f} "
            f"{r['p50_ms']:9.4f} {100 * r['item_share']:6.1f}%"
        )
    print("item time by layer (self time): " + ", ".join(
        f"{k} {100 * v:.1f}%" for k, v in sorted(layers.items(), key=lambda kv: -kv[1])
    ))
    print(
        f"tracing overhead: {items_per_s:.3f} items/s untraced, "
        f"{traced_items_per_s:.3f} traced ({100 * (items_per_s / traced_items_per_s - 1):+.1f}%)"
    )


# -- repeat mode ---------------------------------------------------------------------


def repeat(args, spec_json: dict) -> int:
    """Run ``args.repeat`` seeds in fresh processes; print each metric's
    median, quartiles, minimum, maximum and quartile spread."""
    rows: dict[str, list[float]] = {}
    shares = set()
    status = 0
    for k in range(args.repeat):
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed + k), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            status = 1
            continue
        line = json.loads(lines[-1])
        shares.add((line["failed"], line["attempted"]) if line["failed"] else 0)
        print(f"seed {args.seed + k}: {json.dumps(line)}", flush=True)
        for name, m in line["metrics"].items():
            rows.setdefault(name, []).append(m["value"])
    print(f"{'metric':42} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'iqr/med':>8}")
    for name, values in rows.items():
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        print(
            f"{name:42} {med:12.6g} {q1:12.6g} {q3:12.6g} {min(values):12.6g} "
            f"{max(values):12.6g} {spread:8.4f}"
        )
    print(f"failed shares: {sorted(map(str, shares))}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=0, help="seeds to run, one process each")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs, no backend delay, one round"
    )
    args = parser.parse_args(argv)
    spec_json = load_benchmark_spec()
    if args.repeat:
        return repeat(args, spec_json)
    return run_once(args, spec_json)


if __name__ == "__main__":
    sys.exit(main())
