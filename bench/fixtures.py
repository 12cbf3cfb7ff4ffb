"""Seeded input generators for the benchmark workloads.

Everything here is plain data made from ``random.Random(seed)``: package
docs with planted lexical terms, function records (pre-extracted metadata or
raw ArkTS source rendered from the same metadata), the planned LLM outcome
of every record, and the judge's ``changed`` word set. The program under
test sees only the files written from this data; the output checks compare
the program's results against it.
"""

from __future__ import annotations

import random

# Twenty plain words: alphabetic, at least three letters, not English
# stopwords, not entries of the packaged uninformative dictionary, and none
# equal to an I/O verb the frontend looks for (read, write, open, close,
# print), so every plain occurrence is a semantic-judging candidate.
VOCAB = (
    "battery power session window display audio camera sensor network "
    "storage bundle ability device screen input media notice locale timer "
    "wallet"
).split()

CATEGORIES = ("field", "procedural", "constructor", "callback", "utility")

# One block of twenty records fixes the planned outcome mix, so every whole
# round of records makes the same number of LLM calls whatever the seed:
# (iterations until acceptance or the bound, degraded, parse retry, count).
# Item latency clusters by LLM calls (2, 3, 4 or 6). The counts put the
# median item a third of the way into the two-draft cluster and the p90
# two thirds of the way into the three-draft one: a percentile that fell on
# the gap between two clusters would average their edges and move from run
# to run.
PLAN_BLOCK = (
    (1, False, False, 6),
    (2, False, False, 6),
    (3, False, False, 4),
    (3, True, False, 2),
    (1, False, True, 2),
)
BLOCK_SIZE = sum(n for *_, n in PLAN_BLOCK)

# Planted uninformative values, cycled over records; each is removed by the
# checking phase with the packaged dictionary ("void", "value"+"any",
# "none").
PLANTED_REMOVALS = ("return_type", "parameters[1]", "@usage")

VERBS = ("get", "set", "query", "update", "enable", "register")
SUMMARY_VERBS = ("Obtains", "Sets", "Queries", "Updates", "Enables", "Registers")


def _camel(a: str, b: str) -> str:
    return a.capitalize() + b.capitalize()


def make_docs(
    rng: random.Random,
    n_docs: int,
    path_prefix: str = "ohos",
    sentences: int = 8,
    plain_per_sentence: int = 6,
    distinct_plain: bool = False,
    changed: frozenset = frozenset(),
    changed_per_doc: int = 0,
) -> list[dict]:
    """Package docs after the corpus recipe: each sentence holds one
    CamelCase pair, some lowercase vocabulary words and one ALL-CAPS word;
    path contexts are ``<prefix>.<w>.<w>``. The last sentence's pair is the
    first one's in CONSTANT_CASE (``BATTERY_POWER`` for ``BatteryPower``),
    a longer term with the same tokens, which stage 3's nested-term drop
    removes the CamelCase form for.

    With ``distinct_plain`` every plain word of a doc is distinct and exactly
    ``changed_per_doc`` of them come from ``changed``, so the number of
    judge calls and of judged-changed terms per doc is fixed.

    Each doc carries its planted lexical terms (first-occurrence order).
    """
    docs = []
    others = [w for w in VOCAB if w not in changed]
    for _ in range(n_docs):
        path_context = f"{path_prefix}.{rng.choice(VOCAB)}.{rng.choice(VOCAB)}"
        n_plain = sentences * plain_per_sentence
        if distinct_plain:
            plain = rng.sample(sorted(changed), changed_per_doc) + rng.sample(
                others, n_plain - changed_per_doc
            )
            rng.shuffle(plain)
        else:
            plain = [rng.choice(VOCAB) for _ in range(n_plain)]
        pairs = [rng.sample(VOCAB, 2) for _ in range(sentences)]
        specials = [_camel(a, b) for a, b in pairs]
        specials[-1] = "_".join(pairs[0]).upper()
        parts_text = []
        lexical: list[str] = []
        for s, special in enumerate(specials):
            caps = rng.choice(VOCAB).upper()
            words = plain[s * plain_per_sentence : (s + 1) * plain_per_sentence]
            words.insert(rng.randrange(len(words) + 1), special)
            words.insert(rng.randrange(len(words) + 1), caps)
            for w in words:
                if (w == special or w == caps) and w not in lexical:
                    lexical.append(w)
            parts_text.append(" ".join(words) + ".")
        docs.append(
            {
                "path_context": path_context,
                "text": " ".join(parts_text),
                "lexical_terms": lexical,
            }
        )
    return docs


def make_records(
    rng: random.Random, n_records: int, path_contexts: list[str], raw_share: float
) -> list[dict]:
    """Function records aimed at random path contexts, each with its planned
    LLM outcome and the metadata the program must model from it.

    ``n_records`` must be a multiple of the plan block. A ``raw_share`` part
    of every block is given as ArkTS source rendered from the metadata; the
    rest is pre-extracted.
    """
    if n_records % BLOCK_SIZE:
        raise ValueError(f"record count must be a multiple of {BLOCK_SIZE}")
    records = []
    used_names: set[str] = set()
    for block in range(n_records // BLOCK_SIZE):
        plans = [p[:3] for p in PLAN_BLOCK for _ in range(p[3])]
        rng.shuffle(plans)
        n_raw = round(raw_share * BLOCK_SIZE)
        raw_flags = [True] * n_raw + [False] * (BLOCK_SIZE - n_raw)
        rng.shuffle(raw_flags)
        for k, (plan, raw) in enumerate(zip(plans, raw_flags)):
            index = block * BLOCK_SIZE + k
            records.append(
                _make_record(rng, index, rng.choice(path_contexts), plan, raw, used_names)
            )
    return records


def _make_record(rng, index, path_context, plan, raw, used_names) -> dict:
    # Function names identify records to the simulated backend: redraw on a
    # clash.
    while True:
        a, b = rng.sample(VOCAB, 2)
        name = f"{rng.choice(VERBS)}{_camel(a, b)}"
        if name not in used_names:
            break
    used_names.add(name)
    p0, p1 = rng.sample(VOCAB, 2)
    _, sub = path_context.split(".", 1)
    planted = PLANTED_REMOVALS[index % len(PLANTED_REMOVALS)]
    params = [
        {"name": p0, "type_annotation": "?number", "default_value": None},
        {"name": p1, "type_annotation": "string", "default_value": "'main'"},
    ]
    if planted == "parameters[1]":
        params.insert(1, {"name": "value", "type_annotation": "any", "default_value": None})
    dmt = {
        "@since": f"API version {rng.randrange(7, 13)}",
        "@syscap": f"SystemCapability.{_camel(a, b)}.Core",
    }
    if planted == "@usage":
        dmt["@usage"] = "none"
    meta = {
        "function_name": name,
        "parameters": params,
        "return_type": "void" if planted == "return_type" else f"Promise<{_camel(b, a)}Info>",
        "file_path": f"src/{sub.replace('.', '/')}/{a}.ets",
        "package_module": path_context,
        "dependency": [f"system.{rng.choice(VOCAB)}"],
        "control_flow_skeleton": "conditional; return statement; return statement",
        "io_behavior": "read",
        "variable_modification": "this.cache",
        "dmt": dict(sorted(dmt.items())),
    }
    iterations, degraded, parse_retry = plan
    final_category = rng.choice(CATEGORIES)
    wrong = rng.sample([c for c in CATEGORIES if c != final_category], 3)
    if degraded:
        declared = wrong[:iterations]
    else:
        declared = wrong[: iterations - 1] + [final_category]
    topic = f"the {a} {b} of the {p0} for {name}"
    drafts = [
        f"{SUMMARY_VERBS[(index + k) % len(SUMMARY_VERBS)]} {topic}, draft {k + 1}."
        for k in range(iterations)
    ]
    final = f"{SUMMARY_VERBS[index % len(SUMMARY_VERBS)]} {topic} with {p1} detail."
    function = {"file_path": meta["file_path"]}
    if raw:
        function.update(language="arkts", source_text=render_arkts(meta))
    else:
        function.update(pre_extracted=meta)
    return {
        "id": f"rec-{index:05d}",
        "function": function,
        "expected_metadata": meta,
        "planted_removal": planted,
        "plan": {
            "declared": declared,
            "drafts": drafts,
            "final": final,
            "degraded": degraded,
            "parse_retry": parse_retry,
        },
    }


def render_arkts(meta: dict) -> str:
    """ArkTS source whose modeling yields ``meta`` exactly: the namespace
    gives the package, the import the dependency, the doc comment the
    annotations, and the body the skeleton, I/O verb and modified field."""
    params = []
    for p in meta["parameters"]:
        t = p["type_annotation"]
        text = f"{p['name']}?: {t[1:]}" if t.startswith("?") else f"{p['name']}: {t}"
        if p["default_value"] is not None:
            text += f" = {p['default_value']}"
        params.append(text)
    first = meta["parameters"][0]["name"]
    tags = "\n".join(f"   * {k} {v}" for k, v in meta["dmt"].items())
    return (
        f"import dep from '{meta['dependency'][0]}';\n\n"
        f"namespace {meta['package_module']} {{\n"
        "  /**\n"
        f"   * Generated declaration of {meta['function_name']}.\n"
        f"{tags}\n"
        "   */\n"
        f"  export function {meta['function_name']}({', '.join(params)}): "
        f"{meta['return_type']} {{\n"
        f"    if ({first} > 0) {{\n"
        f"      return this.readLevel({first});\n"
        "    }\n"
        f"    this.cache = {first};\n"
        "    return 0;\n"
        "  }\n"
        "}\n"
    )


def changed_words(rng: random.Random, n: int) -> frozenset:
    """The words the simulated judge answers ``changed`` for."""
    return frozenset(rng.sample(VOCAB, n)) if n else frozenset()


def make_projects(
    rng: random.Random, n_projects: int, docs_per_project: int, changed: frozenset
) -> list[list[dict]]:
    """Small projects for the KB-build workload, each under its own path
    prefix. Every doc has twelve distinct plain words, three of them from
    the judge's ``changed`` set."""
    return [
        make_docs(
            rng,
            docs_per_project,
            path_prefix=f"proj{p:04d}",
            sentences=3,
            plain_per_sentence=4,
            distinct_plain=True,
            changed=changed,
            changed_per_doc=3,
        )
        for p in range(n_projects)
    ]
