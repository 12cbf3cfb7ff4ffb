"""Output checks made apart from the program.

The retrieval reference follows the documented definitions (the root
README.md and the docstrings of ``expsum.knowledge_base`` and
``expsum.retrieval``): TF-IDF with
``tf = count / tokens in the text`` and ``idf = ln(N / (df + 0.01))``,
left-aligned path-context overlap on '/', '.' and '@' tokens (threshold
0.75), cosine top-n (n = 9) with ties broken by path context then term, and
the drop of terms nested in a longer term (token overlap 0.75, relative to
the longer term). Its inputs are the generator's docs and planted terms,
not the knowledge base the program built.
"""

from __future__ import annotations

import math
import re
from collections import Counter

PATH_THRESHOLD = 0.75
TOP_N = 9
TOKEN_THRESHOLD = 0.75

_PIECE_RE = re.compile(r"[A-Za-z0-9]+")
_SUBWORD_RE = re.compile(r"[A-Z]+(?![a-z])|[A-Z]?[a-z]+|[0-9]+")


def subwords(word: str) -> list[str]:
    """Lowercased sub-words: lowercase runs, Capitalized runs, ALL-CAPS runs
    and digit runs."""
    return [s.lower() for s in _SUBWORD_RE.findall(word)]


def text_tokens(text: str) -> list[str]:
    return [s for piece in _PIECE_RE.findall(text) for s in subwords(piece)]


def path_tokens(path: str) -> list[str]:
    return [t.lower() for t in re.split(r"[/.@]", path) if t]


def path_overlap(query: list[str], entry: list[str]) -> float:
    matched = 0
    for q, e in zip(query, entry):
        if q != e:
            break
        matched += 1
    return matched / len(query) if query else 0.0


def judged_terms(doc: dict, changed) -> list[str]:
    """Distinct plain words of a doc the judge answers ``changed`` for."""
    lexical = set(doc["lexical_terms"])
    out: list[str] = []
    for raw in doc["text"].split():
        word = raw.strip(".")
        if word in changed and word not in lexical and word not in out:
            out.append(word)
    return out


def doc_terms(doc: dict, changed) -> list[str]:
    """A doc's KB terms: planted lexical terms, then judged-changed words."""
    return list(doc["lexical_terms"]) + judged_terms(doc, changed)


class Corpus:
    """TF-IDF statistics and entries recomputed from the generator's docs."""

    def __init__(self, docs: list[dict], changed):
        self.docs = docs
        counts = [Counter(text_tokens(d["text"])) for d in docs]
        df = Counter(t for c in counts for t in c)
        n = len(docs)
        self.idf = {t: math.log(n / (k + 0.01)) for t, k in df.items()}
        self.vectors = []
        for c in counts:
            total = sum(c.values())
            self.vectors.append({t: k / total * self.idf[t] for t, k in c.items()})
        self.norms = [math.sqrt(math.fsum(w * w for w in v.values())) for v in self.vectors]
        self.paths = [path_tokens(d["path_context"]) for d in docs]
        self.terms = [doc_terms(d, changed) for d in docs]

    def retrieve(self, query_values: list[str], query_path: str) -> list[str]:
        qcounts = Counter(t for v in query_values for t in text_tokens(v))
        qvec = {t: k * self.idf[t] for t, k in qcounts.items() if t in self.idf}
        qnorm = math.sqrt(math.fsum(w * w for w in qvec.values()))
        qpath = path_tokens(query_path)
        ranked = []
        for i, doc in enumerate(self.docs):
            if path_overlap(qpath, self.paths[i]) < PATH_THRESHOLD:
                continue
            vec = self.vectors[i]
            denom = qnorm * self.norms[i]
            score = math.fsum(w * vec.get(t, 0.0) for t, w in qvec.items()) / denom if denom else 0.0
            ranked.extend((-score, doc["path_context"], term) for term in self.terms[i])
        ranked.sort()
        return drop_nested([term for _, _, term in ranked[:TOP_N]])


def term_overlap(a: str, b: str) -> float:
    ta = Counter(s for w in a.split() for s in subwords(w))
    tb = Counter(s for w in b.split() for s in subwords(w))
    longer = max(sum(ta.values()), sum(tb.values()))
    return sum((ta & tb).values()) / longer if longer else 0.0


def drop_nested(terms: list[str]) -> list[str]:
    unique = list(dict.fromkeys(terms))
    return [
        t
        for t in unique
        if not any(
            u != t and len(t) < len(u) and term_overlap(t, u) >= TOKEN_THRESHOLD
            for u in unique
        )
    ]


# -- summarize outputs ---------------------------------------------------------


def retained_values(meta: dict, removed: str) -> tuple[list[str], str]:
    """Values the retrieval query is made of, after the planted
    uninformative field is removed, and the query path."""
    values = [meta["function_name"]]
    for i, p in enumerate(meta["parameters"]):
        if removed == f"parameters[{i}]":
            continue
        values += [p["name"], p["type_annotation"] or "", p["default_value"] or ""]
    for key in ("return_type", "file_path", "package_module", "control_flow_skeleton",
                "io_behavior", "variable_modification"):
        if key != removed:
            values.append(meta[key])
    values += meta["dependency"]
    values += [v for k, v in meta["dmt"].items() if k != removed]
    return values, meta["package_module"]


def check_summarize_item(out: dict, record: dict, corpus: Corpus, cache: dict) -> list[str]:
    """Mismatches between one summarized item and the generator's plan."""
    plan = record["plan"]
    problems = []
    expected = {
        "category": plan["declared"][-1],
        "iterations": len(plan["declared"]),
        "degraded": plan["degraded"],
        "final_summary": plan["drafts"][-1] if plan["degraded"] else plan["final"],
    }
    for key, want in expected.items():
        if out[key] != want:
            problems.append(f"{key}: {out[key]!r} != {want!r}")
    meta = record["expected_metadata"]
    if "source_text" in record["function"] and out["modeled"] != meta:
        problems.append(f"modeled metadata differs: {out['modeled']!r}")
    if out["removed"] != [record["planted_removal"]]:
        problems.append(f"removed fields {out['removed']!r} != [{record['planted_removal']!r}]")
    if record["id"] not in cache:
        cache[record["id"]] = corpus.retrieve(*retained_values(meta, record["planted_removal"]))
    if out["terms"] != cache[record["id"]]:
        problems.append(f"terms {out['terms']!r} != reference {cache[record['id']]!r}")
    return problems


# -- kb_build outputs ----------------------------------------------------------


def check_project_kb(model, entries, docs: list[dict], changed) -> list[str]:
    """Mismatches between a loaded project KB and the generator's docs:
    the (term, path context) entries and every TF-IDF weight."""
    problems = []
    want = sorted((t, d["path_context"]) for d in docs for t in doc_terms(d, changed))
    got = sorted((e.term, e.path_context) for e in entries)
    if got != want:
        problems.append(f"entries {got!r} != planted {want!r}")
    corpus = Corpus(docs, changed)
    if model.doc_count != len(docs):
        problems.append(f"doc_count {model.doc_count} != {len(docs)}")
    token_of = {i: t for t, i in model.vocabulary.items()}
    by_text = {d["text"]: v for d, v in zip(docs, corpus.vectors)}
    for e in entries:
        want_vec = by_text.get(e.documentation)
        if want_vec is None:
            problems.append(f"entry {e.term!r} carries unknown documentation")
            continue
        got_vec = {token_of[i]: w for i, w in e.vector.entries.items()}
        if got_vec.keys() != {t for t, w in want_vec.items() if w != 0.0} or any(
            not math.isclose(w, want_vec[t], rel_tol=1e-12, abs_tol=1e-15)
            for t, w in got_vec.items()
        ):
            problems.append(f"TF-IDF vector of {e.term!r} differs from the definition")
    return problems
