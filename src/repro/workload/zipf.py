"""A Zipfian sampler over ranked items.

The paper samples protein-function values "according to a heavy-tailed
Zipfian distribution with characteristic s = 1.5".  Rank ``k`` (1-based)
has probability proportional to ``k ** -s``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random
from typing import Optional, Tuple

from repro.errors import WorkloadError


@functools.lru_cache(maxsize=16)
def _cumulative(n: int, s: float) -> Tuple[float, ...]:
    """The cumulative rank probabilities — a function of ``(n, s)``
    alone, so every sampler over one distribution (one per participant
    substream) shares one table."""
    weights = [rank ** -s for rank in range(1, n + 1)]
    total = sum(weights)
    cumulative = list(itertools.accumulate(weight / total for weight in weights))
    cumulative[-1] = 1.0  # guard against float drift
    return tuple(cumulative)


class ZipfSampler:
    """Samples 0-based indices with Zipfian rank probabilities."""

    def __init__(self, n: int, s: float = 1.5, rng: Optional[random.Random] = None):
        if n < 1:
            raise WorkloadError(f"Zipf sampler needs n >= 1, got {n}")
        if s <= 0:
            raise WorkloadError(f"Zipf characteristic must be positive, got {s}")
        self.n = n
        self.s = s
        # Deterministic by default: an OS-seeded fallback RNG would make
        # two identically configured samplers diverge run to run.
        self._rng = rng if rng is not None else random.Random(0)
        self._cumulative = _cumulative(n, s)

    def sample(self) -> int:
        """Draw one 0-based index (0 is the most popular rank)."""
        point = self._rng.random()
        return bisect.bisect_left(self._cumulative, point)

    def probability(self, index: int) -> float:
        """The probability mass of a 0-based index."""
        if not 0 <= index < self.n:
            raise WorkloadError(f"index {index} out of range for n={self.n}")
        lower = self._cumulative[index - 1] if index > 0 else 0.0
        return self._cumulative[index] - lower
