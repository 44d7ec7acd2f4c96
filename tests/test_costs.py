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


class TestRecordPass:
    def test_single_position_pass(self):
        ledger = CostLedger()
        ledger.record_pass("draft", layers=4, positions=1)
        assert ledger.phases["draft"].sequential_depth_units == 4
        assert ledger.phases["draft"].position_layer_units == 4

    def test_batched_pass(self):
        ledger = CostLedger()
        ledger.record_pass("target_verify", layers=24, positions=5)
        assert ledger.phases["target_verify"].sequential_depth_units == 24
        assert ledger.phases["target_verify"].position_layer_units == 120

    def test_compute_proxy_dominates_latency_proxy(self):
        ledger = CostLedger()
        for phase, layers, positions in (
            ("draft", 4, 1),
            ("intermediate_verify", 4, 3),
            ("target_verify", 24, 6),
        ):
            ledger.record_pass(phase, layers, positions)
        for cost in ledger.phases.values():
            assert cost.position_layer_units >= cost.sequential_depth_units

    def test_rejects_nonpositive(self):
        ledger = CostLedger()
        with pytest.raises(ValueError):
            ledger.record_pass("draft", 0, 1)


class TestRelativeThroughput:
    def test_identity(self):
        ledger = CostLedger()
        ledger.record_pass("draft", 8, 1)
        assert relative_throughput(10, ledger, 10, ledger) == 1.0

    def test_zero_cost_ledger_rejected(self):
        empty = CostLedger()
        full = CostLedger()
        full.record_pass("draft", 8, 1)
        with pytest.raises(UndefinedRatioError):
            relative_throughput(10, empty, 10, full)

    def test_zero_baseline_tokens_rejected(self):
        ledger = CostLedger()
        ledger.record_pass("draft", 8, 1)
        with pytest.raises(UndefinedRatioError):
            relative_throughput(10, ledger, 0, ledger)

    def test_prefill_excluded_by_default(self):
        subject = CostLedger()
        subject.record_pass("prefill", 32, 7)
        subject.record_pass("draft", 8, 1)
        baseline = CostLedger()
        baseline.record_pass("draft", 16, 1)
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
