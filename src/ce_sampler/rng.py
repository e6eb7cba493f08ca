"""Splittable, counter-based random streams for reproducible simulation.

Every stochastic operation in this package takes an explicit stream.  A
stream is addressed by a root seed plus a path of integers, and holds only
that address and a draw counter.  Draw ``c`` of the stream at ``(seed,
path)`` is the 512-bit BLAKE2b digest of an unambiguous encoding of
``(seed, path, c)``, as in the counter-based generators of Salmon et al.
2011 ("Parallel random numbers: as easy as 1, 2, 3").  A child is a new
address and seeds no generator.  A stream's output depends only on its
address, never on scheduling order, so Monte Carlo runs are
bit-reproducible even when trials are executed out of order or in
parallel.

``randbelow(n)`` is exactly uniform: it takes the top
``(n - 1).bit_length()`` bits of the next draw (of the next several draws,
concatenated, when ``n`` is wider than one digest) and rejects values
``>= n``.  ``bernoulli(p)`` compares one such value below the denominator
of ``p`` with its numerator, in integers.

The encoding starts with a version tag.  A seed reproduces a sample byte
for byte only within one version of the stream.
"""

from __future__ import annotations

from fractions import Fraction
from hashlib import blake2b

DIGEST_BITS = 512
# (seed, path) in hex: ':' closes the seed, ',' each path index and ';' the
# path.  The counter follows in 8 fixed bytes, so no two draws hash alike.
_SEED_FORMAT = "ce-sampler counter stream 1;%x:"


class RandomStream:
    """A deterministic random source identified by (seed, path)."""

    __slots__ = ("seed", "path", "_address", "_counter")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        path = tuple(path)
        if type(seed) is not int:
            raise TypeError(f"stream seed must be an int, not {type(seed).__name__}")
        for index in path:
            if type(index) is not int:
                raise TypeError(f"stream path index must be an int, not {type(index).__name__}")
        self.seed = seed
        self.path = path
        self._address = ((_SEED_FORMAT + "%x," * len(path) + ";") % (seed, *path)).encode()
        self._counter = 0

    def child(self, *indices: int) -> "RandomStream":
        """An independent stream one level deeper; order of creation is irrelevant."""
        return RandomStream(self.seed, self.path + indices)

    def _draw(self, bits: int) -> int:
        """The top ``bits`` bits of the next digest, or of the next
        ``ceil(bits / 512)`` digests concatenated when one is too narrow."""
        counter = self._counter
        if bits <= DIGEST_BITS:
            self._counter = counter + 1
            digest = blake2b(self._address + counter.to_bytes(8, "little")).digest()
            return int.from_bytes(digest, "big") >> (DIGEST_BITS - bits)
        blocks = -(-bits // DIGEST_BITS)
        self._counter = counter + blocks
        digest = b"".join([
            blake2b(self._address + c.to_bytes(8, "little")).digest()
            for c in range(counter, counter + blocks)
        ])
        return int.from_bytes(digest, "big") >> (blocks * DIGEST_BITS - bits)

    def _below(self, n: int) -> int:
        bits = (n - 1).bit_length()
        while True:
            value = self._draw(bits)
            if value < n:
                return value

    def randbelow(self, n: int) -> int:
        """A uniform integer in ``[0, n)``, exactly."""
        if n <= 0:
            raise ValueError("randbelow needs a positive bound")
        return self._below(n)

    def bernoulli(self, p: Fraction) -> bool:
        """True with probability exactly ``p`` (integer arithmetic, no floats)."""
        numerator, denominator = p.numerator, p.denominator  # ints: no Fraction compares
        if not 0 <= numerator <= denominator:
            raise ValueError("bernoulli probability must lie in [0, 1]")
        if numerator == 0:
            return False
        if numerator == denominator:
            return True
        return self._below(denominator) < numerator

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RandomStream(seed={self.seed}, path={self.path})"
