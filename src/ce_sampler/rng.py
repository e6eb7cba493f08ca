"""Splittable, counter-addressed random streams for reproducible simulation.

Every stochastic operation in this package takes an explicit stream.  A
stream is addressed by a root seed plus a path of integers; deriving the
child for trial ``t`` gives a generator whose output depends only on
``(seed, path)``, never on scheduling order, so Monte Carlo runs are
bit-reproducible even when trials are executed out of order or in
parallel.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction


class RandomStream:
    """A deterministic random source identified by (seed, path)."""

    __slots__ = ("seed", "path", "_rng")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = seed
        self.path = path
        material = ("%d:" % seed + "/".join(map(str, path))).encode()
        digest = hashlib.sha256(material).digest()
        self._rng = random.Random(int.from_bytes(digest, "big"))

    def child(self, *indices: int) -> "RandomStream":
        """An independent stream one level deeper; order of creation is irrelevant."""
        return RandomStream(self.seed, self.path + tuple(indices))

    def randbelow(self, n: int) -> int:
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        return self._rng.randrange(n)

    def bernoulli(self, p: Fraction) -> bool:
        """True with probability exactly ``p`` (integer arithmetic, no floats)."""
        numerator, denominator = p.numerator, p.denominator  # ints: no Fraction compares
        if not 0 <= numerator <= denominator:
            raise ValueError("bernoulli probability must lie in [0, 1]")
        if numerator == 0:
            return False
        if numerator == denominator:
            return True
        return self._rng.randrange(denominator) < numerator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStream(seed={self.seed}, path={self.path})"
