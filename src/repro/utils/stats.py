"""Statistics for fault-injection campaigns.

The paper sizes its campaigns with the normal approximation of the
binomial distribution (footnote 2: observing a 1% outcome rate to within
+/-0.1% at 95% confidence requires more than 40,000 samples).  This module
implements that calculation plus the Wilson score interval, which we use
for reporting because it behaves sensibly at the very small outcome rates
typical of soft-error studies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: Two-sided z value for a 95% confidence level, the level used throughout
#: the paper.
Z_95 = 1.959963984540054


def normal_ci_halfwidth(rate: float, samples: int, z: float = Z_95) -> float:
    """Half-width of the normal-approximation confidence interval.

    ``rate`` is the observed outcome probability and ``samples`` the number
    of injection runs.  This is the quantity the paper's footnote 2 bounds
    at 0.1% for rate=1%, n>40,000.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be within [0, 1]")
    return z * math.sqrt(rate * (1.0 - rate) / samples)


def required_samples(rate: float, halfwidth: float, z: float = Z_95) -> int:
    """Samples needed so the normal CI half-width is at most ``halfwidth``.

    ``required_samples(0.01, 0.001)`` reproduces the paper's ">40,000"
    campaign-sizing rule.
    """
    if halfwidth <= 0.0:
        raise ValueError("halfwidth must be positive")
    if not 0.0 <= rate <= 1.0:
        raise ValueError("rate must be within [0, 1]")
    n = (z / halfwidth) ** 2 * rate * (1.0 - rate)
    return int(math.ceil(n))


def wilson_interval(
    successes: int, samples: int, z: float = Z_95
) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion.

    Unlike the normal approximation it never escapes [0, 1] and remains
    informative when ``successes`` is zero -- the common case for rare
    outcome categories such as OMM.
    """
    if samples <= 0:
        raise ValueError("samples must be positive")
    if not 0 <= successes <= samples:
        raise ValueError("successes must be within [0, samples]")
    p = successes / samples
    z2 = z * z
    denom = 1.0 + z2 / samples
    centre = (p + z2 / (2.0 * samples)) / denom
    spread = (
        z
        * math.sqrt(p * (1.0 - p) / samples + z2 / (4.0 * samples * samples))
        / denom
    )
    low = 0.0 if successes == 0 else max(0.0, centre - spread)
    high = 1.0 if successes == samples else min(1.0, centre + spread)
    return (low, high)


@dataclass(frozen=True)
class BinomialEstimate:
    """An observed outcome rate with its uncertainty.

    Attributes:
        successes: number of runs with the outcome.
        samples: total number of injection runs.
    """

    successes: int
    samples: int

    def __post_init__(self) -> None:
        if self.samples <= 0:
            raise ValueError("samples must be positive")
        if not 0 <= self.successes <= self.samples:
            raise ValueError("successes must be within [0, samples]")

    @property
    def rate(self) -> float:
        """Point estimate of the outcome probability."""
        return self.successes / self.samples

    @property
    def ci95(self) -> tuple[float, float]:
        """95% Wilson confidence interval."""
        return wilson_interval(self.successes, self.samples)

    @property
    def ci95_halfwidth(self) -> float:
        """Half-width of the normal-approximation 95% interval."""
        return normal_ci_halfwidth(self.rate, self.samples)

    def __str__(self) -> str:
        low, high = self.ci95
        return f"{self.rate:.4%} [{low:.4%}, {high:.4%}] (n={self.samples})"
