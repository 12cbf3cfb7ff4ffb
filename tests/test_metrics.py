import math
import random
import re
from functools import lru_cache

import pytest

from expsum.errors import EmptyCorpus
from expsum.metrics import ScorePair, bleu4, evaluate_corpus, metric_tokens, rouge_l


# -- brute-force oracles -------------------------------------------------------
# Structurally independent: greedy clipped n-gram matching by list removal,
# recursive memoized LCS.

def oracle_tokens(text):
    return re.findall(r"[a-z0-9]+", text.lower())


def oracle_bleu(candidate, reference, epsilon=0.1):
    cand = oracle_tokens(candidate)
    ref = oracle_tokens(reference)
    if not cand:
        return 0.0
    logs = []
    for n in range(1, 5):
        cand_grams = [tuple(cand[i : i + n]) for i in range(len(cand) - n + 1)]
        if not cand_grams:
            continue
        ref_grams = [tuple(ref[i : i + n]) for i in range(len(ref) - n + 1)]
        pool = list(ref_grams)
        hits = 0
        for gram in cand_grams:
            if gram in pool:
                pool.remove(gram)
                hits += 1
        numerator = hits if hits > 0 else epsilon
        logs.append(math.log(numerator / len(cand_grams)))
    if not logs:
        return 0.0
    geo = math.exp(sum(logs) / len(logs))
    bp = 1.0 if len(cand) > len(ref) else math.exp(1 - len(ref) / len(cand))
    return 100.0 * bp * geo


def oracle_rouge(candidate, reference):
    cand = tuple(oracle_tokens(candidate))
    ref = tuple(oracle_tokens(reference))
    if not cand or not ref:
        return 0.0

    @lru_cache(maxsize=None)
    def lcs(i, j):
        if i == 0 or j == 0:
            return 0
        if cand[i - 1] == ref[j - 1]:
            return lcs(i - 1, j - 1) + 1
        return max(lcs(i - 1, j), lcs(i, j - 1))

    length = lcs(len(cand), len(ref))
    p = length / len(cand)
    r = length / len(ref)
    if p + r == 0:
        return 0.0
    return 100.0 * 2 * p * r / (p + r)


class TestBleu4:
    def test_identity_four_tokens(self):
        pair = ScorePair("obtains the battery level", "obtains the battery level")
        assert bleu4(pair) == pytest.approx(100.0)

    def test_empty_candidate(self):
        assert bleu4(ScorePair("", "obtains the battery level")) == 0.0

    def test_hand_derived_case(self):
        pair = ScorePair(
            "obtains the battery level",
            "obtains the battery level of the device",
        )
        expected = oracle_bleu(pair.candidate, pair.reference)
        assert expected == pytest.approx(47.236655274101466, abs=1e-9)
        assert bleu4(pair) == pytest.approx(expected, abs=1e-6)

    def test_short_identical_strings_score_100(self):
        assert bleu4(ScorePair("battery level", "battery level")) == pytest.approx(100.0)
        assert bleu4(ScorePair("battery", "battery")) == pytest.approx(100.0)

    def test_zero_match_smoothing_is_finite_positive(self):
        score = bleu4(ScorePair("alpha beta gamma delta", "one two three four"))
        assert 0.0 < score < 10.0

    def test_tokenization_ignores_case_and_punctuation(self):
        assert bleu4(ScorePair("Obtains, the BATTERY level!", "obtains the battery level")) == (
            pytest.approx(100.0)
        )


class TestRougeL:
    def test_identity(self):
        assert rouge_l(ScorePair("a b c d", "a b c d")) == pytest.approx(100.0)

    def test_hand_derived_case(self):
        assert rouge_l(ScorePair("a c d", "a b c d")) == pytest.approx(
            85.71428571428571, abs=1e-9
        )

    def test_disjoint_tokens(self):
        assert rouge_l(ScorePair("x y z", "p q r")) == 0.0

    def test_empty_candidate(self):
        assert rouge_l(ScorePair("", "a b")) == 0.0


class TestScorePair:
    def test_reference_must_be_nonempty(self):
        with pytest.raises(ValueError):
            ScorePair("candidate", "   ")


class TestOracleEquivalence:
    def test_randomized_short_pairs(self):
        rng = random.Random(77)
        vocab = ["obtains", "the", "battery", "level", "device", "session",
                 "media", "data", "remote", "store"]
        checked = 0
        for _ in range(150):
            cand = " ".join(rng.choices(vocab, k=rng.randrange(0, 13)))
            ref = " ".join(rng.choices(vocab, k=rng.randrange(1, 13)))
            pair = ScorePair(cand, ref)
            assert bleu4(pair) == pytest.approx(
                oracle_bleu(cand, ref), abs=1e-6
            )
            assert rouge_l(pair) == pytest.approx(
                oracle_rouge(cand, ref), abs=1e-6
            )
            assert 0.0 <= bleu4(pair) <= 100.0
            assert 0.0 <= rouge_l(pair) <= 100.0
            checked += 1
        assert checked >= 100

    def test_shared_tokenizer(self):
        text = "AVSession.setMetadata(x), quickly!"
        assert metric_tokens(text) == oracle_tokens(text)


class TestEvaluateCorpus:
    def test_single_identical_pair(self):
        report = evaluate_corpus([("1", ScorePair("a b c d", "a b c d"))])
        assert report.corpus_means["bleu4"] == pytest.approx(100.0)
        assert report.corpus_means["rougeL"] == pytest.approx(100.0)
        assert report.n == 1

    def test_mean_of_extremes(self):
        report = evaluate_corpus(
            [
                ("hit", ScorePair("a b c d", "a b c d")),
                ("miss", ScorePair("", "a b c d")),
            ]
        )
        assert report.corpus_means["bleu4"] == pytest.approx(50.0)
        assert report.corpus_means["rougeL"] == pytest.approx(50.0)

    def test_five_item_fixture_matches_oracle(self):
        fixture = [
            ("a", ("obtains the battery level", "obtains the battery level of the device")),
            ("b", ("a c d", "a b c d")),
            ("c", ("media session handle", "media session")),
            ("d", ("", "nonempty reference")),
            ("e", ("enumerates visibility statuses", "enumerates the visibility statuses")),
        ]
        report = evaluate_corpus([(i, ScorePair(c, r)) for i, (c, r) in fixture])
        for item, (_, (cand, ref)) in zip(report.per_item, fixture):
            assert item.bleu4 == pytest.approx(oracle_bleu(cand, ref), abs=1e-6)
            assert item.rougeL == pytest.approx(oracle_rouge(cand, ref), abs=1e-6)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            evaluate_corpus([])

    def test_report_dict_without_semantic_column(self):
        report = evaluate_corpus([("1", ScorePair("a", "a"))])
        assert "semantic" not in report.to_dict()["per_item"][0]
