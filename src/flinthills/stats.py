"""Partial-quotient statistics: Gauss-Kuzmin frequencies, geometric means,
histograms, extreme terms.

Positions follow the published convention that numbers the expansion's
leading term (the integer part) as term 1; the famous outlier 20776 of pi
therefore sits at position 432.  Frequency statistics are taken over the
proper partial quotients a_1, a_2, ... only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .contfrac import PartialQuotients
from .errors import DomainError, InsufficientTermsError
from .mpreal import RealContext, make_context

# histogram values above this go to one overflow bucket for display; the
# exact maximum is tracked separately
HISTOGRAM_OVERFLOW = 10_000

_stats_ctx = None


def _ctx() -> RealContext:
    global _stats_ctx
    if _stats_ctx is None:
        _stats_ctx = make_context(30)
    return _stats_ctx


@dataclass(frozen=True)
class QuotientStats:
    n_terms: int
    geometric_mean: object  # over a_1..a_n
    histogram: dict[int, int]  # value -> count, overflow bucketed
    max_term: tuple[int, object]  # (1-based position incl. leading term, value)
    gk_expected: dict[int, object]  # value -> Gauss-Kuzmin probability
    freq_low: object  # empirical freq(1) + freq(2)


def gauss_kuzmin_p(k: int):
    """Gauss-Kuzmin frequency -log2(1 - 1/(k+1)^2) of the quotient value k."""
    if k < 1:
        raise DomainError("Gauss-Kuzmin frequency defined for k >= 1")
    mp = _ctx()._mp
    return -mp.log(1 - 1 / mp.mpf(k + 1) ** 2) / mp.log(2)


def running_geometric_mean(pq: PartialQuotients, n: int, include_leading: bool = True):
    """Geometric mean of the first n partial quotients, via summed logarithms.

    With ``include_leading`` the mean runs over the expansion's first n terms
    counting the integer part, the convention behind the published values
    3.361 (n=10) and 2.628 (n=20) for pi; pass False to average over
    a_1..a_n only, the convention of the Khinchin limit.
    """
    if n < 1:
        raise DomainError("n must be positive")
    terms = pq.terms if include_leading else pq.terms[1:]
    if len(terms) < n:
        raise InsufficientTermsError(f"{n} quotients requested, {len(terms)} available")
    mp = _ctx()._mp
    return mp.exp(_log_sum(mp, terms[:n]) / n)


def _log_sum(mp, terms):
    """The sum of mp.log(a) over the terms in order; each distinct a's log is computed once."""
    logs: dict[int, object] = {}
    total = mp.mpf(0)
    for a in terms:
        log_a = logs.get(a)
        if log_a is None:
            log_a = logs[a] = mp.log(a)
        total += log_a
    return total


def quotient_histogram(pq: PartialQuotients, n: int) -> QuotientStats:
    """Empirical quotient statistics over a_1..a_n with Gauss-Kuzmin expectations."""
    if n < 1:
        raise DomainError("n must be positive")
    if len(pq.terms) < n + 1:
        raise InsufficientTermsError(f"need a_1..a_{n}, have {len(pq.terms) - 1} quotients")
    mp = _ctx()._mp
    histogram: dict[int, int] = {}
    max_pos, max_val = 1, pq.terms[1]
    for i in range(1, n + 1):
        a = pq.terms[i]
        bucket = a if a <= HISTOGRAM_OVERFLOW else -1
        histogram[bucket] = histogram.get(bucket, 0) + 1
        if a > max_val:
            max_val = a
            max_pos = i
    gk = {k: gauss_kuzmin_p(k) for k in sorted(v for v in histogram if v > 0)[:64]}
    freq_low = mp.mpf(histogram.get(1, 0) + histogram.get(2, 0)) / n
    return QuotientStats(
        n_terms=n,
        geometric_mean=running_geometric_mean(pq, n, include_leading=False),
        histogram=histogram,
        max_term=(max_pos + 1, max_val),  # +1: leading term is position 1
        gk_expected=gk,
        freq_low=freq_low,
    )


def gauss_kuzmin_partial_sum(k_max: int):
    """sum_{k=1..k_max} p(k); telescopes to 1 - log2(1 + 1/(k_max+1)) ... computed directly."""
    if k_max < 1:
        raise DomainError("k_max must be >= 1")
    mp = _ctx()._mp
    # product of (1 - 1/(k+1)^2) = (k(k+2))/(k+1)^2 telescopes to (k_max+2)/(2(k_max+1))
    prod = mp.mpf(k_max + 2) / (2 * (k_max + 1))
    return -mp.log(prod) / mp.log(2)
