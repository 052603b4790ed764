"""Deterministic 64-bit generator for the randomized sum procedure.

The generator is pinned down by its update equations so any implementation,
in any language, can reproduce the same m-sets from the same seed:

    state    <- (state + 0x9E3779B97F4A7C15) mod 2**64
    z        <- state
    z        <- (z XOR (z >> 30)) * 0xBF58476D1CE4B9B9  mod 2**64
    z        <- (z XOR (z >> 27)) * 0x94D049BB133111EB  mod 2**64
    output   <- z XOR (z >> 31)

This is the SplitMix64 mixer.  It is splittable (distinct seeds give
independent streams), passes standard statistical batteries, and needs
nothing beyond 64-bit integer arithmetic.
"""
from __future__ import annotations

__all__ = ["SplitMix64", "sample_without_replacement"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """SplitMix64 stream seeded by a single 64-bit integer."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        self.state = (self.state + _GOLDEN) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4B9B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound), free of modulo bias.

        Draws are rejected above the largest multiple of bound that fits in
        64 bits, so every residue is equally likely.  A bound past 2**64 has
        no such multiple and is refused.
        """
        if not 0 < bound <= 1 << 64:
            raise ValueError(f"bound must be in [1, 2**64], got {bound}")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            u = self.next_u64()
            if u < limit:
                return u % bound


def sample_without_replacement(count: int, m_max: int, seed: int) -> list[int]:
    """Draw `count` distinct integers uniformly from {0, ..., m_max}.

    Repeats are rejected, so the result is in first-acceptance order and the
    selected set is uniform over all count-subsets.  Identical arguments give
    an identical list.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if m_max < 0:
        raise ValueError(f"m_max must be >= 0, got {m_max}")
    if count > m_max + 1:
        raise ValueError(
            f"cannot draw {count} distinct values from {{0..{m_max}}}"
        )
    rng = SplitMix64(seed)
    seen: set[int] = set()
    out: list[int] = []
    while len(out) < count:
        v = rng.below(m_max + 1)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out
