"""Exact identities for bootstrap out-of-bag counts.

All quantities describe resampling *with replacement and without ordering*,
i.e. the uniform distribution over the C(m+n-1, m) multisets obtained when m
items are drawn from n distinguishable observations.  For the bootstrap
proper, m = n.  Everything here is big-integer / rational arithmetic; no
floating point.

Let a_b denote the number of original observations absent from a replicate.

- ``pmf_unseen_count(n, m, k)``       Pr[a_b = k] = C(n,k) C(m-1, k+m-n) / C(m+n-1, m)
- ``expected_unseen(n)``              E a_b           = n(n-1) / (2n-1)
- ``expected_inv_one_plus_unseen(n)`` E 1/(1+a_b)     = 2 / (n+1)
- ``inclusion_probability(n)``        Pr[obs appears] = n / (2n-1)
- ``expected_oob_weight(n)``          the published closed form (2n-2)/(2n-1)
  for the mean of the weight w_b = n * I_i / a_b that links the two bootstrap
  estimator variants
- ``prob_some_unseen(n)``             Pr[a_b != 0] = 1 - pmf_unseen_count(n, n, 0)

The last two are deliberately separate.  Exhaustive enumeration over all
multisets shows that the exact mean of w_b (in either its per-observation or
summed reading; they coincide by symmetry and E[sum_i I_i/a_b] = Pr[a_b != 0])
is ``prob_some_unseen(n)``, which agrees with the closed form (2n-2)/(2n-1)
only for n <= 2.  The closed form corresponds instead to treating the
replicate, conditional on observation i being unseen, as a resample of size
n-1 from the remaining n-1 observations (whence E 1/(1+a) = 2/n and
E w_b = n * Pr[I_i = 1] * 2/n = (2n-2)/(2n-1)); it is the quantity quoted as
the large-B theory for the ratio between the bootstrap estimator variants,
so both readings are kept available and tested against brute force.
``identity_checks`` checks ``prob_some_unseen(n)`` against E[w_b] counted
directly (the multisets that leave out observation i and k - 1 others number
C(n-1, k-1) C(n-1, n-k-1)), so a wrong pmf fails that line too.

Binomial convention: C(y, x) = 0 whenever x < 0 or x > y.
"""

from __future__ import annotations

import math
from fractions import Fraction

from cvlab.core import DomainError

def binom(n: int, k: int) -> int:
    """C(n, k) with the out-of-range convention: 0 for k < 0 or k > n."""
    if n < 0:
        raise DomainError("binom requires n >= 0")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def pmf_unseen_count(n: int, m: int, k: int) -> Fraction:
    """Pr[a_b = k] when m items are drawn from n, with replacement, unordered.

    Out-of-support k (including k < 0 and k > n-1 when m >= n) yields an
    exact zero through the binomial convention.
    """
    if n < 1 or m < 1:
        raise DomainError("pmf_unseen_count requires n >= 1 and m >= 1")
    return Fraction(binom(n, k) * binom(m - 1, k + m - n), binom(m + n - 1, m))


def expected_unseen(n: int) -> Fraction:
    """E a_b = n(n-1)/(2n-1) for the size-n bootstrap."""
    if n < 1:
        raise DomainError("expected_unseen requires n >= 1")
    return Fraction(n * (n - 1), 2 * n - 1)


def expected_inv_one_plus_unseen(n: int) -> Fraction:
    """E 1/(1+a_b) = 2/(n+1) for the size-n bootstrap."""
    if n < 1:
        raise DomainError("expected_inv_one_plus_unseen requires n >= 1")
    return Fraction(2, n + 1)


def inclusion_probability(n: int) -> Fraction:
    """Pr[a given observation appears in a replicate] = n/(2n-1)."""
    if n < 1:
        raise DomainError("inclusion_probability requires n >= 1")
    return Fraction(n, 2 * n - 1)


def expected_oob_weight(n: int) -> Fraction:
    """Closed form (2n-2)/(2n-1) for E[n I_i / a_b]; see the module notes.

    This is the published value used as the large-B theory curve for the
    ratio between the bootstrap estimator variants.  The exact mean under
    the uniform-multiset model is :func:`prob_some_unseen`.
    """
    if n < 1:
        raise DomainError("expected_oob_weight requires n >= 1")
    return Fraction(2 * n - 2, 2 * n - 1)


def prob_some_unseen(n: int) -> Fraction:
    """Pr[a_b != 0] = 1 - Pr[a_b = 0]; the exact mean of the OOB weight."""
    if n < 1:
        raise DomainError("prob_some_unseen requires n >= 1")
    return 1 - pmf_unseen_count(n, n, 0)


def _oob_weight_by_count(n: int) -> Fraction:
    """E[w_b] = E[n I_i / a_b] by counting multisets, independently of the pmf.

    The multisets that leave out observation i and k - 1 others number
    C(n-1, k-1) C(n-1, n-k-1), each with weight n / k.
    """
    total = binom(2 * n - 1, n)
    return sum((Fraction(n * binom(n - 1, k - 1) * binom(n - 1, n - k - 1), k * total)
                for k in range(1, n)), start=Fraction(0))


def identity_checks(n: int) -> list[tuple[str, bool]]:
    """Each appendix identity at size n, evaluated exactly: (name, holds)."""
    if n < 1:
        raise DomainError("identity_checks requires n >= 1")
    pmf = [pmf_unseen_count(n, n, k) for k in range(n)]
    total = sum(pmf, start=Fraction(0))
    mean = sum((k * p for k, p in enumerate(pmf)), start=Fraction(0))
    inv_mean = sum((p / (1 + k) for k, p in enumerate(pmf)), start=Fraction(0))
    return [
        ("pmf-normalization", total == 1),
        ("expected-unseen", mean == expected_unseen(n)),
        ("expected-inv-one-plus-unseen", inv_mean == expected_inv_one_plus_unseen(n)),
        ("inclusion-probability", 1 - mean / n == inclusion_probability(n)),
        ("oob-weight-vs-prob-some-unseen", _oob_weight_by_count(n) == prob_some_unseen(n)),
    ]
