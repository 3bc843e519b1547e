"""Extended-real sentinels and arithmetic conventions.

Time separations and distortion coefficients take values in the extended reals.
We use the distinguished IEEE infinities as explicit sentinel values (never a
silent NaN):

  * ``INF`` marks a distortion coefficient past the first conjugate parameter;
  * ``NEG_INF`` marks "not in the causal future" for time separations.

Bare float multiplication would turn ``0 * inf`` into NaN, so the coefficient
algebra goes through :func:`xmul` / :func:`xpow`, which implement the
conventions used throughout the comparison theory:

    0 * inf = 0,        alpha * inf = inf        (alpha > 0),
    inf ** alpha = inf  (alpha > 0),              inf ** 0 = 1.
"""

from __future__ import annotations

import math

INF = math.inf
NEG_INF = -math.inf


def is_inf(x: float) -> bool:
    """True iff x is the +infinity sentinel."""
    return x == INF


def is_neg_inf(x: float) -> bool:
    """True iff x is the -infinity sentinel (non-causal marker)."""
    return x == NEG_INF


def xmul(a: float, b: float) -> float:
    """Product with the convention 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def xpow(base: float, exponent: float) -> float:
    """Power with inf ** alpha = inf for alpha > 0, inf ** 0 = 1.

    Negative exponents of the infinity sentinel give 0 (the limit value).
    """
    if base == INF:
        if exponent > 0.0:
            return INF
        if exponent == 0.0:
            return 1.0
        return 0.0
    return math.pow(base, exponent)
