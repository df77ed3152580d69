"""Tests for the seeded serving workload generator."""

import pytest

from repro.errors import ConfigError
from repro.serve.workload import Request, WorkloadConfig, generate_workload


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ConfigError, match="num_requests"):
            WorkloadConfig(num_requests=0)
        with pytest.raises(ConfigError, match="arrival_rate"):
            WorkloadConfig(arrival_rate=0.0)
        with pytest.raises(ConfigError, match="long_frac"):
            WorkloadConfig(long_frac=1.5)
        with pytest.raises(ConfigError, match="prompt_len"):
            WorkloadConfig(prompt_len=(5, 3))

    def test_max_request_tokens(self):
        cfg = WorkloadConfig(prompt_len=(4, 12), output_long=(48, 64))
        assert cfg.max_request_tokens == 12 + 64


class TestGenerateWorkload:
    def test_deterministic(self):
        cfg = WorkloadConfig(seed=7, num_requests=20)
        assert generate_workload(cfg) == generate_workload(cfg)

    def test_seed_changes_everything(self):
        a = generate_workload(WorkloadConfig(seed=0, num_requests=20))
        b = generate_workload(WorkloadConfig(seed=1, num_requests=20))
        assert [r.arrival for r in a] != [r.arrival for r in b]
        assert [r.prompt_tokens for r in a] != [r.prompt_tokens for r in b]

    def test_ranges_and_monotone_arrivals(self):
        cfg = WorkloadConfig(seed=3, num_requests=64, prompt_len=(2, 5),
                             output_short=(3, 6), output_long=(20, 30),
                             vocab=16)
        reqs = generate_workload(cfg)
        assert len(reqs) == 64
        last = 0.0
        for r in reqs:
            assert r.arrival >= last
            last = r.arrival
            assert 2 <= r.prompt_len <= 5
            assert (3 <= r.output_len <= 6) or (20 <= r.output_len <= 30)
            assert all(0 <= t < 16 for t in r.prompt_tokens)
            assert all(0 <= t < 16 for t in r.output_tokens)

    def test_bimodal_outputs(self):
        cfg = WorkloadConfig(seed=0, num_requests=200, long_frac=0.2)
        reqs = generate_workload(cfg)
        n_long = sum(r.output_len >= cfg.output_long[0] for r in reqs)
        assert 0 < n_long < 200
        assert abs(n_long / 200 - 0.2) < 0.1

    def test_bursts_share_arrival(self):
        cfg = WorkloadConfig(seed=0, num_requests=12, burst_size=4)
        reqs = generate_workload(cfg)
        for lead in range(0, 12, 4):
            group = reqs[lead:lead + 4]
            assert len({r.arrival for r in group}) == 1
        assert len({r.arrival for r in reqs}) == 3

    def test_request_is_pure_function_of_seed(self):
        # Regenerating a single request (preemption replay) reproduces it.
        cfg_small = WorkloadConfig(seed=5, num_requests=3)
        cfg_big = WorkloadConfig(seed=5, num_requests=10)
        small = generate_workload(cfg_small)
        big = generate_workload(cfg_big)
        for a, b in zip(small, big):
            assert a == b

    def test_request_properties(self):
        r = Request(rid=0, arrival=0.5, prompt_tokens=(1, 2, 3),
                    output_tokens=(4, 5))
        assert r.prompt_len == 3
        assert r.output_len == 2
        assert r.total_tokens == 5

    def test_repeated_config_shares_requests_not_the_list(self):
        cfg = WorkloadConfig(seed=3, num_requests=6)
        first, again = generate_workload(cfg), generate_workload(cfg)
        assert first == again and first is not again
        assert all(a is b for a, b in zip(first, again))
        first.clear()  # a caller's own list: the next one is whole
        assert len(generate_workload(cfg)) == 6
        other = generate_workload(WorkloadConfig(seed=4, num_requests=6))
        assert other != again
