import numpy as np


def downward_greedy_power_count(alpha: float, epsilon: float, cutoff_factor: float = 1e-3) -> int:
    """Array-driven covering count for the power sequence, used as a test oracle.

    Materializes every term down to cutoff_factor * epsilon explicitly and
    runs the greedy sweep from the largest term downward on the array.  Once
    the current anchor is at or below 2*epsilon, the remaining terms together
    with the whole accumulation tail fit in (0, 2*epsilon], which one closed
    ball covers, so the sweep charges exactly one more ball and stops.  This
    never uses the index-inversion arithmetic of the production routine, so
    agreement certifies that arithmetic.
    """
    assert alpha < 0 and 0 < epsilon < 1
    cutoff = cutoff_factor * epsilon
    # largest index needed: m**alpha >= cutoff  =>  m <= cutoff**(1/alpha)
    top = int(np.ceil(cutoff ** (1.0 / alpha))) + 2
    terms = np.arange(1, top + 1, dtype=float) ** alpha
    terms = terms[terms >= cutoff][::-1]  # ascending
    count = 0
    pos = terms.size - 1
    while pos >= 0:
        anchor = terms[pos]
        count += 1
        if anchor <= 2 * epsilon:
            # one closed ball [~0, anchor] already covered everything left,
            # including the un-materialized tail below the cutoff
            return count
        limit = anchor - 2 * epsilon
        # next anchor: largest term strictly below the covered interval
        pos = np.searchsorted(terms, limit, side="left") - 1
    # loop exhausted the array above 2*epsilon: the tail still needs one ball
    return count + 1


def stratified_uniform(rng, k):
    """k points, one drawn from the middle half of each of k equal cells of [0, 1]."""
    return (np.arange(k) + rng.uniform(0.25, 0.75, k)) / k


def cantor_like(rng, levels):
    """2**levels midpoints of a randomized Cantor construction on [0, 1]."""
    lo, width = np.zeros(1), np.ones(1)
    for _ in range(levels):
        left = rng.uniform(0.28, 0.36, lo.size) * width
        right = rng.uniform(0.28, 0.36, lo.size) * width
        lo = np.stack([lo, lo + width - right], axis=-1).ravel()
        width = np.stack([left, right], axis=-1).ravel()
    return np.sort(lo + 0.5 * width)
