import hashlib
import json
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serlab.sampling import (
    SplitMix64,
    Xoshiro256StarStar,
    balanced_batches,
    epoch_seed,
    shuffled_batches,
)


class TestPrng:
    def test_splitmix64_reference_vector(self):
        # published outputs for seed 0
        sm = SplitMix64(0)
        assert sm.next() == 0xE220A8397B1DCDAF
        assert sm.next() == 0x6E789E6AA1B965F4
        assert sm.next() == 0x06C45D188009454F

    def test_xoshiro_outputs_are_64_bit_and_deterministic(self):
        a = Xoshiro256StarStar(99)
        b = Xoshiro256StarStar(99)
        va = [a.next() for _ in range(100)]
        vb = [b.next() for _ in range(100)]
        assert va == vb
        assert all(0 <= v < (1 << 64) for v in va)
        assert len(set(va)) == 100

    def test_randbelow_range_and_determinism(self):
        rng = Xoshiro256StarStar(3)
        draws = [rng.randbelow(7) for _ in range(500)]
        assert set(draws) == set(range(7))
        with pytest.raises(ValueError):
            rng.randbelow(0)

    def test_shuffle_is_permutation(self):
        rng = Xoshiro256StarStar(5)
        items = list(range(50))
        rng.shuffle(items)
        assert sorted(items) == list(range(50))
        assert items != list(range(50))

    def test_shuffle_is_fisher_yates_over_randbelow(self):
        # shuffle inlines next and randbelow; the loop over them is the reference
        def reference(rng, items):
            for i in range(len(items) - 1, 0, -1):
                j = rng.randbelow(i + 1)
                items[i], items[j] = items[j], items[i]

        mask = (1 << 64) - 1
        x = ((1 << 64) - 1) * pow(9, -1, 1 << 64) & mask
        x = (x >> 7 | x << 57) & mask  # s1 whose next draw is 2^64 - 1, rejected for n = 3
        crafted = [1, x * pow(5, -1, 1 << 64) & mask, 2, 3]
        for seed in range(4):
            for n in (0, 1, 2, 3, 17, 300):
                fast, slow = Xoshiro256StarStar(seed), Xoshiro256StarStar(seed)
                if seed == 0:
                    fast._s, slow._s = list(crafted), list(crafted)
                a, b = list(range(n)), list(range(n))
                fast.shuffle(a)
                reference(slow, b)
                assert a == b and fast._s == slow._s
        probe = Xoshiro256StarStar(0)
        probe._s = list(crafted)
        assert probe.next() == (1 << 64) - 1

    def test_epoch_seed_varies(self):
        seeds = [epoch_seed(42, e) for e in range(10)]
        assert len(set(seeds)) == 10
        assert epoch_seed(42, 3) == epoch_seed(42, 3)


class TestShuffledBatches:
    def test_sizes_and_coverage(self):
        plan = shuffled_batches(5, 2, seed=1)
        assert [len(b) for b in plan] == [2, 2, 1]
        assert sorted(i for b in plan for i in b) == list(range(5))

    def test_same_seed_identical(self):
        assert shuffled_batches(20, 4, seed=9) == shuffled_batches(20, 4, seed=9)
        assert shuffled_batches(20, 4, seed=9) != shuffled_batches(20, 4, seed=10)

    @settings(max_examples=50, deadline=None)
    @given(
        n=st.integers(min_value=1, max_value=200),
        batch=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    def test_partition_property(self, n, batch, seed):
        plan = shuffled_batches(n, batch, seed)
        flat = [i for b in plan for i in b]
        assert sorted(flat) == list(range(n))
        assert all(len(b) == batch for b in plan[:-1])

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            shuffled_batches(0, 2, 1)
        with pytest.raises(ValueError):
            shuffled_batches(5, 0, 1)


class TestBalancedBatches:
    def _labels(self, counts):
        labels = []
        for c, n in enumerate(counts):
            labels.extend([c] * n)
        return labels

    def test_exact_per_class_counts(self):
        labels = self._labels([10, 2, 3, 1, 5, 2, 4, 5])
        plan = balanced_batches(labels, 32, seed=7)
        assert len(plan) == 1  # ceil(32/32)
        for batch in plan:
            counts = Counter(labels[i] for i in batch)
            assert all(counts[c] == 4 for c in range(8))

    def test_plan_length_is_ceil(self):
        labels = self._labels([20, 5, 5, 5, 5, 5, 5, 5])  # n=55
        plan = balanced_batches(labels, 16, seed=0)
        assert len(plan) == 4  # ceil(55/16)
        assert all(len(b) == 16 for b in plan)

    def test_determinism_and_seed_sensitivity(self):
        labels = self._labels([6, 2, 2, 2, 2, 2, 2, 2])
        p1 = balanced_batches(labels, 8, seed=5)
        p2 = balanced_batches(labels, 8, seed=5)
        p3 = balanced_batches(labels, 8, seed=6)
        assert p1 == p2
        assert p1 != p3
        for plan in (p1, p3):
            for batch in plan:
                counts = Counter(labels[i] for i in batch)
                assert all(counts[c] == 1 for c in range(8))

    def test_full_coverage_before_third_appearance_on_balanced_data(self):
        labels = self._labels([6] * 8)  # n=48, batch 16 -> 3 batches, 6 draws/class
        plan = balanced_batches(labels, 16, seed=11)
        seen = Counter()
        for idx in (i for batch in plan for i in batch):
            seen[idx] += 1
            if seen[idx] == 3:
                missing = [i for i in range(len(labels)) if seen[i] == 0]
                assert not missing, "a third appearance happened before full coverage"
        assert set(seen) == set(range(len(labels)))

    def test_indivisible_batch_size_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            balanced_batches(self._labels([2] * 8), 12, seed=0)

    def test_missing_class_rejected(self):
        labels = self._labels([4, 4, 4, 4, 4, 4, 4, 0])
        with pytest.raises(ValueError, match="class 7"):
            balanced_batches(labels, 8, seed=0)

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            balanced_batches([0, 1, 2, 9], 8, seed=0)


class TestPinnedPlans:
    """Whole plans pinned by their SHA-256, so a faster shuffle or sampler
    must reproduce every batch of every plan, not only the generator's
    reference values."""

    IMBALANCED = [c for c, n in enumerate([120, 40, 25, 60, 15, 35, 10, 30]) for _ in range(n)]

    @staticmethod
    def _sha(plan) -> str:
        return hashlib.sha256(json.dumps(plan, separators=(",", ":")).encode()).hexdigest()

    @pytest.mark.parametrize("seed,digest", [
        (7, "e297f777b50eced13616d005ec29089c61f22b92f2b81987092e5aaee6519124"),
        (2024, "cfb9fdfdf49a05083f58fb3278d1057c630cd6dfd7d5f091576abc8fb0b4539a"),
    ])
    def test_shuffled_plan(self, seed, digest):
        assert self._sha(shuffled_batches(2000, 32, seed)) == digest

    @pytest.mark.parametrize("seed,digest", [
        (7, "e0327a1e288a7bbcb3263c2b0cbfc6cc65f9d66c7ddcc5dd509c2823f1d30bc6"),
        (2024, "ec06a542075da75854c0dc4b4fcf3bf11ed2cda2fccc74b62ef3e0f676029817"),
    ])
    def test_balanced_plan_on_imbalanced_labels(self, seed, digest):
        assert self._sha(balanced_batches(self.IMBALANCED, 32, seed)) == digest
