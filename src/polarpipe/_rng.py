"""numpy's legacy seeded stream, drawn with the standard library.

``random.Random`` runs the same Mersenne Twister, MT19937 (Matsumoto &
Nishimura, ACM TOMACS 1998), as numpy's legacy seeded generator, and its
``random()`` is that generator's ``random_sample()``. Only the integer
seeding and the bounded integer draws differ, so ``LegacyRandom`` seeds the
state as numpy does and draws integers with numpy's masked rejection. For
every seed, each corpus, split and shuffle is the one numpy's generator gave.
"""

from __future__ import annotations

import operator
import random

_WORD = 2**32 - 1


class LegacyRandom:
    """The draws polarpipe makes, each equal to numpy's legacy draw of the same name."""

    __slots__ = ("random", "_bits")

    def __init__(self, seed: int):
        try:
            seed = operator.index(seed)
        except TypeError:
            raise ValueError(f"seed must be an integer, got {seed!r}") from None
        if not 0 <= seed <= _WORD:
            raise ValueError(f"seed {seed} is outside [0, 2**32 - 1]")
        # numpy's mt19937_seed: the key, with its position at the end so that
        # the first draw regenerates the whole state
        key = [seed]
        for i in range(1, 624):
            prev = key[-1]
            key.append((1812433253 * (prev ^ prev >> 30) + i) & _WORD)
        gen = random.Random(0)
        gen.setstate((3, (*key, 624), None))
        self.random = gen.random  # genrand_res53 is numpy's next_double
        self._bits = gen.getrandbits

    def randint(self, low: int, high: int) -> int:
        """One integer in [low, high), as numpy's ``randint(low, high)``."""
        return self.randints(low, high, 1)[0]

    def randints(self, low: int, high: int, size: int) -> list[int]:
        """``size`` integers in [low, high), as numpy's ``randint(low, high, size)``."""
        span = high - 1 - low
        # numpy draws a wider range from two words per value, in an order
        # that C leaves unspecified, so it is refused here
        if not 0 <= span <= _WORD:
            raise ValueError(f"range [{low}, {high}) is empty or wider than 2**32")
        if span == 0:
            return [low] * size
        # each 32-bit word is masked to the smallest all-ones mask >= span and
        # drawn again while it is above span
        mask = (1 << span.bit_length()) - 1
        bits = self._bits
        out = []
        for _ in range(size):
            value = bits(32) & mask
            while value > span:
                value = bits(32) & mask
            out.append(low + value)
        return out

    def permutation(self, n: int) -> list[int]:
        """``range(n)`` shuffled as numpy's ``permutation(n)`` shuffles it."""
        if n - 1 > _WORD:
            raise ValueError(f"permutation of {n} items is wider than 2**32")
        items = list(range(n))
        bits = self._bits
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            j = bits(32) & mask
            while j > i:
                j = bits(32) & mask
            items[i], items[j] = items[j], items[i]
        return items
