"""Tests for the stable shard hash that routes instances to worker processes."""

import pytest

from repro.fleet import stable_shard


class TestStableShard:
    def test_deterministic_across_calls(self):
        assert stable_shard("db-03", 4) == stable_shard("db-03", 4)

    def test_known_values_pinned(self):
        # blake2b is process-independent; pin a few assignments so an
        # accidental switch to the randomised builtin hash() fails loudly.
        assert [stable_shard(f"db-{i:02d}", 4) for i in range(6)] == [
            1, 1, 0, 2, 1, 1,
        ]
        assert stable_shard("db-00", 1) == 0

    def test_range(self):
        for i in range(50):
            assert 0 <= stable_shard(f"inst-{i}", 7) < 7

    def test_invalid_shards(self):
        with pytest.raises(ValueError):
            stable_shard("x", 0)
