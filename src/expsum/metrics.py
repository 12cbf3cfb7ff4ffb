"""Reference-based summary evaluation: sentence-level BLEU-4 and ROUGE-L."""

from __future__ import annotations

import math
import re
from collections import Counter
from dataclasses import dataclass

from .errors import EmptyCorpus

_TOKEN_RE = re.compile(r"[a-z0-9]+")

# Smoothing constant added as numerator for n-gram orders with zero matches.
BLEU_EPSILON = 0.1


def metric_tokens(text: str) -> list[str]:
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class ScorePair:
    candidate: str
    reference: str

    def __post_init__(self):
        if not self.reference.strip():
            raise ValueError("reference must be non-empty")


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def bleu4(pair: ScorePair) -> float:
    """Sentence BLEU with 1..4-gram modified precisions, uniform weights,
    brevity penalty, and epsilon smoothing; scaled to 0-100.

    Orders for which the candidate has no n-grams at all are excluded from
    the geometric mean, so short identical strings still score 100.
    """
    cand = metric_tokens(pair.candidate)
    ref = metric_tokens(pair.reference)
    if not cand:
        return 0.0

    log_sum = 0.0
    orders = 0
    for n in range(1, 5):
        cand_ngrams = _ngrams(cand, n)
        total = sum(cand_ngrams.values())
        if total == 0:
            continue
        ref_ngrams = _ngrams(ref, n)
        matches = sum(
            min(count, ref_ngrams.get(gram, 0))
            for gram, count in cand_ngrams.items()
        )
        numerator = matches if matches > 0 else BLEU_EPSILON
        log_sum += math.log(numerator / total)
        orders += 1
    if orders == 0:
        return 0.0
    geo_mean = math.exp(log_sum / orders)

    if len(cand) > len(ref):
        brevity = 1.0
    else:
        brevity = math.exp(1.0 - len(ref) / len(cand))
    return 100.0 * brevity * geo_mean


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    previous = [0] * (len(b) + 1)
    for token_a in a:
        current = [0]
        for j, token_b in enumerate(b, start=1):
            if token_a == token_b:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[len(b)]


def rouge_l(pair: ScorePair) -> float:
    """LCS-based F1 between candidate and reference tokens, scaled to 0-100."""
    cand = metric_tokens(pair.candidate)
    ref = metric_tokens(pair.reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    if precision + recall == 0.0:
        return 0.0
    return 100.0 * 2 * precision * recall / (precision + recall)


@dataclass
class ItemScores:
    id: str
    bleu4: float
    rougeL: float


@dataclass
class EvaluationReport:
    per_item: list[ItemScores]
    corpus_means: dict[str, float]
    n: int

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "corpus_means": dict(self.corpus_means),
            "per_item": [
                {"id": item.id, "bleu4": item.bleu4, "rougeL": item.rougeL}
                for item in self.per_item
            ],
        }


def evaluate_corpus(pairs: list[tuple[str, ScorePair]]) -> EvaluationReport:
    """Score every (id, pair) and report arithmetic corpus means."""
    if not pairs:
        raise EmptyCorpus("no pairs to evaluate")
    per_item = [
        ItemScores(id=item_id, bleu4=bleu4(pair), rougeL=rouge_l(pair))
        for item_id, pair in pairs
    ]
    n = len(per_item)
    means = {
        "bleu4": sum(i.bleu4 for i in per_item) / n,
        "rougeL": sum(i.rougeL for i in per_item) / n,
    }
    return EvaluationReport(per_item=per_item, corpus_means=means, n=n)
