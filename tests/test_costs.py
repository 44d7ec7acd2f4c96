from collections import Counter

import pytest

from specdec import (
    CostLedger,
    UndefinedRatioError,
    relative_throughput,
    speculative_decode,
    vanilla_decode,
)
from specdec.engine import DEFAULT_BURSTS
from specdec.synthetic import uniform_profile

from conftest import all_agree_backend


def ledger_of(*passes):
    """A ledger of one pass per (phase, first layer, last layer, positions)."""
    return CostLedger(Counter(passes))


class TestPassHistogram:
    """A pass in the histogram is priced at its layers in sequential depth
    and at its layers times positions in compute."""

    def test_single_position_pass(self):
        ledger = ledger_of(("draft", 1, 4, 1))
        assert ledger.phases["draft"].sequential_depth_units == 4
        assert ledger.phases["draft"].position_layer_units == 4

    def test_batched_pass(self):
        ledger = ledger_of(("target_verify", 9, 32, 5))
        assert ledger.phases["target_verify"].sequential_depth_units == 24
        assert ledger.phases["target_verify"].position_layer_units == 120

    def test_compute_proxy_dominates_latency_proxy(self):
        ledger = ledger_of(
            ("draft", 1, 4, 1),
            ("intermediate_verify", 5, 8, 3),
            ("target_verify", 9, 32, 6),
        )
        for cost in ledger.phases.values():
            assert cost.position_layer_units >= cost.sequential_depth_units


class TestRelativeThroughput:
    def test_identity(self):
        ledger = ledger_of(("draft", 1, 8, 1))
        assert relative_throughput(10, ledger, 10, ledger) == 1.0

    def test_zero_cost_ledger_rejected(self):
        empty = CostLedger()
        full = ledger_of(("draft", 1, 8, 1))
        with pytest.raises(UndefinedRatioError):
            relative_throughput(10, empty, 10, full)

    def test_zero_baseline_tokens_rejected(self):
        ledger = ledger_of(("draft", 1, 8, 1))
        with pytest.raises(UndefinedRatioError):
            relative_throughput(10, ledger, 0, ledger)

    def test_prefill_excluded_by_default(self):
        subject = ledger_of(("prefill", 1, 32, 7), ("draft", 1, 8, 1))
        baseline = ledger_of(("draft", 1, 16, 1))
        assert relative_throughput(1, subject, 1, baseline) == 2.0


class TestConservation:
    def test_zero_flush_decode_costs_exactly_full_depth_per_token(self):
        backend = all_agree_backend(n_layers=16, max_seq_len=256)
        result = speculative_decode(backend, [1, 2, 3], (2, 4, 16), DEFAULT_BURSTS, 30)
        assert result.stats.flushed == 0
        assert result.ledger.position_layer_units() == 16 * len(result.tokens)

    def test_selfspec_zero_flush_conservation(self):
        backend = all_agree_backend(n_layers=16, max_seq_len=256)
        result = speculative_decode(backend, [1, 2], (4, 16), (3,), 30)
        assert result.stats.flushed == 0
        assert result.ledger.position_layer_units() == 16 * len(result.tokens)

    def test_flushing_decode_costs_at_least_full_depth_per_token(self):
        from specdec import SyntheticBackend, SyntheticModelSpec

        profile = uniform_profile(16, 0.4)
        backend = SyntheticBackend(
            SyntheticModelSpec(
                n_layers=16, vocab_size=32, seed=9, agreement_profile=profile, max_seq_len=512
            )
        )
        result = speculative_decode(backend, [5, 5, 5], (2, 4, 16), DEFAULT_BURSTS, 30)
        assert result.stats.flushed > 0
        assert result.ledger.position_layer_units() > 16 * len(result.tokens)

    def test_vanilla_conservation(self):
        backend = all_agree_backend(n_layers=16, max_seq_len=256)
        result = vanilla_decode(backend, [1, 2, 3], 20)
        assert result.ledger.position_layer_units() == 16 * 20
