"""Order statistics shared by the benchmark runner and its tests."""

# A tail percentile is reported only where at least this many samples lie
# beyond it, so that one slow sample cannot set it alone.
TAIL_MIN_BEYOND = 10


def median(values):
    """Median of a non-empty sequence (mean of the middle pair when even)."""
    s = sorted(values)
    if not s:
        raise ValueError("median of no samples")
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2


def tail(values, min_beyond=TAIL_MIN_BEYOND):
    """The highest percentile that still has `min_beyond` samples above it.

    Returns `(percentile, value, beyond, n)`: the sample at sorted rank
    `n - min_beyond` (1-based), the percentile that rank is (rank / n, in
    percent), the number of samples strictly after it, and the sample
    count. With `n <= min_beyond` no rank qualifies; the maximum is then
    returned as p100 with nothing beyond it, and `beyond` (0) says so.
    """
    s = sorted(values)
    n = len(s)
    if n == 0:
        raise ValueError("tail of no samples")
    rank = n - min_beyond
    if rank < 1:
        return 100.0, s[-1], 0, n
    return 100.0 * rank / n, s[rank - 1], n - rank, n


def describe_tail(values, unit):
    """`p<pct> = <value> <unit> (n=<count>, <beyond> beyond)` for printing."""
    pct, value, beyond, n = tail(values)
    note = "" if beyond else f", fewer than {TAIL_MIN_BEYOND + 1} samples: max shown"
    return f"p{pct:.1f} = {value:.4f} {unit} (n={n}, {beyond} beyond{note})"


def share(part, whole):
    """part / whole, or 0 when the whole is zero (nothing to share)."""
    return part / whole if whole else 0.0
