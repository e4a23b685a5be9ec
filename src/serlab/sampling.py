"""Deterministic batch plans and the PRNG they are built on.

Plans are pure functions of (inputs, seed).  The generator is xoshiro256**
seeded through splitmix64, so a plan can be reproduced from the seed alone,
independent of any platform RNG state.
"""

from __future__ import annotations

from typing import Sequence

from .losses import NUM_CLASSES

_MASK64 = (1 << 64) - 1


class SplitMix64:
    def __init__(self, seed: int) -> None:
        self._x = seed & _MASK64

    def next(self) -> int:
        self._x = (self._x + 0x9E3779B97F4A7C15) & _MASK64
        z = self._x
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    def __init__(self, seed: int) -> None:
        sm = SplitMix64(seed)
        self._s = [sm.next() for _ in range(4)]

    def next(self) -> int:
        s = self._s
        result = (_rotl((s[1] * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = _rotl(s[3], 45)
        return result

    def randbelow(self, n: int) -> int:
        """Unbiased draw from [0, n) via rejection sampling."""
        if n <= 0:
            raise ValueError("randbelow: n must be positive")
        if n == 1:
            return 0
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next()
            if v < limit:
                return v % n

    def shuffle(self, items: list) -> None:
        """Fisher-Yates in place, item i swapped with ``randbelow(i + 1)``.
        The draws are ``next`` and ``randbelow`` written inline, on the state
        words held in locals, so the order is theirs, call for call."""
        s0, s1, s2, s3 = self._s
        for i in range(len(items) - 1, 0, -1):
            n = i + 1
            limit = (1 << 64) - ((1 << 64) % n)
            while True:
                x = (s1 * 5) & _MASK64
                v = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64
                t = (s1 << 17) & _MASK64
                s2 ^= s0
                s3 ^= s1
                s1 ^= s2
                s0 ^= s3
                s2 ^= t
                s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
                if v < limit:
                    break
            j = v % n
            items[i], items[j] = items[j], items[i]
        self._s[:] = (s0, s1, s2, s3)


def epoch_seed(base_seed: int, epoch: int) -> int:
    """Per-epoch plan seed derived from the run seed."""
    sm = SplitMix64(base_seed)
    for _ in range(epoch):
        sm.next()
    return sm.next()


def shuffled_batches(n: int, batch_size: int, seed: int) -> list[list[int]]:
    """Seeded permutation of range(n) chunked into batches; last may be short."""
    if n < 1:
        raise ValueError("shuffled_batches: n must be >= 1")
    if batch_size < 1:
        raise ValueError("shuffled_batches: batch_size must be >= 1")
    perm = list(range(n))
    Xoshiro256StarStar(seed).shuffle(perm)
    return [perm[i : i + batch_size] for i in range(0, n, batch_size)]


def balanced_batches(labels: Sequence[int], batch_size: int, seed: int) -> list[list[int]]:
    """Batches with exactly batch_size/NUM_CLASSES samples of every class.

    Each class draws from its own seeded shuffle; exhausted classes are
    reshuffled and drawn again, so minorities oversample with replacement.
    Plan length is ceil(n/batch_size) regardless of imbalance.
    """
    if batch_size % NUM_CLASSES != 0:
        raise ValueError(
            f"balanced_batches: batch size {batch_size} not divisible by {NUM_CLASSES} classes"
        )
    pools: list[list[int]] = [[] for _ in range(NUM_CLASSES)]
    for idx, label in enumerate(labels):
        if not 0 <= label < NUM_CLASSES:
            raise ValueError(f"balanced_batches: label {label} out of range [0, {NUM_CLASSES})")
        pools[label].append(idx)
    for c, pool in enumerate(pools):
        if not pool:
            raise ValueError(f"balanced_batches: class {c} missing from labels")

    rng = Xoshiro256StarStar(seed)
    queues: list[list[int]] = []
    cursors = [0] * NUM_CLASSES
    for pool in pools:
        q = list(pool)
        rng.shuffle(q)
        queues.append(q)

    n = len(labels)
    per_class = batch_size // NUM_CLASSES
    num_batches = -(-n // batch_size)
    plan: list[list[int]] = []
    for _ in range(num_batches):
        batch: list[int] = []
        for c in range(NUM_CLASSES):
            for _ in range(per_class):
                if cursors[c] == len(queues[c]):
                    queues[c] = list(pools[c])
                    rng.shuffle(queues[c])
                    cursors[c] = 0
                batch.append(queues[c][cursors[c]])
                cursors[c] += 1
        plan.append(batch)
    return plan
