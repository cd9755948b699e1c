"""Corpus-level BLEU over token sequences (single reference per hypothesis).

Zero clipped-match counts are smoothed to 1/(2 * total n-grams) so tiny
corpora do not collapse to exactly zero; orders with no n-grams at all
(corpus shorter than n) are left out of the geometric mean.
"""

from __future__ import annotations

from collections import Counter

import math

from .errors import DataError


def _ngrams(seq, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def corpus_bleu(hypotheses, references, max_n: int = 4) -> float:
    if len(hypotheses) != len(references):
        raise DataError(f"{len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise DataError("empty corpus")

    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hc = _ngrams(hyp, n)
            rc = _ngrams(ref, n)
            totals[n - 1] += max(len(hyp) - n + 1, 0)
            matches[n - 1] += sum(min(c, rc[g]) for g, c in hc.items())

    if hyp_len == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for m, t in zip(matches, totals):
        if t == 0:
            continue
        p = m / t if m > 0 else 1.0 / (2.0 * t)
        log_sum += math.log(p)
        orders += 1
    geo = math.exp(log_sum / orders)
    bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    return geo * bp
