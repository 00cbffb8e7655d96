import numpy as np
import pytest

from polarpipe.corpus import DataError, preprocess
from polarpipe.synth import generate_synthetic


def positive_rate(ds, l):
    return sum(i.labels[l] for i in ds.instances) / len(ds)


class TestValidation:
    def test_rates_must_be_open_interval(self):
        with pytest.raises(DataError, match="open interval"):
            generate_synthetic(10, [0.0])
        with pytest.raises(DataError, match="open interval"):
            generate_synthetic(10, [1.0])
        with pytest.raises(DataError, match="open interval"):
            generate_synthetic(10, [])

    def test_noise_bounds(self):
        with pytest.raises(DataError, match="noise"):
            generate_synthetic(10, [0.5], noise=0.5)
        with pytest.raises(DataError, match="noise"):
            generate_synthetic(10, [0.5], noise=-0.1)

    def test_instance_count(self):
        with pytest.raises(DataError, match="n_instances"):
            generate_synthetic(0, [0.5])

    def test_label_name_count(self):
        with pytest.raises(DataError, match="label names"):
            generate_synthetic(10, [0.5, 0.5], label_names=["only"])


class TestSampling:
    def test_rates_echo_at_scale(self):
        ds = generate_synthetic(1500, [0.5, 0.1], seed=1)
        assert abs(positive_rate(ds, 0) - 0.5) < 0.02
        assert abs(positive_rate(ds, 1) - 0.1) < 0.02

    def test_rare_label_scale(self):
        # 0.022 of 3222 is ~71 expected positives; allow 3 sigma
        ds = generate_synthetic(3222, [0.022], seed=42)
        count = sum(i.labels[0] for i in ds.instances)
        assert abs(count - 71) < 25

    def test_noise_shifts_observed_rate(self):
        clean = generate_synthetic(2000, [0.1], seed=3)
        noisy = generate_synthetic(2000, [0.1], noise=0.2, seed=3)
        # expected observed rate 0.1*0.8 + 0.9*0.2 = 0.26
        assert abs(positive_rate(noisy, 0) - 0.26) < 0.03
        assert abs(positive_rate(clean, 0) - 0.10) < 0.02


class TestStructure:
    def test_signal_tokens_track_true_labels(self):
        ds = generate_synthetic(300, [0.3, 0.3], seed=7)
        for inst in ds.instances:
            tokens = set(inst.text.split())
            for l in range(2):
                has_signal = any(t.startswith(f"topic{l}tok") for t in tokens)
                assert has_signal == bool(inst.labels[l])

    def test_ids_unique_and_seed_scoped(self):
        a = generate_synthetic(50, [0.5], seed=1)
        b = generate_synthetic(50, [0.5], seed=2)
        ids = {i.id for i in a.instances} | {i.id for i in b.instances}
        assert len(ids) == 100
        assert all(i.id.startswith("s1-") for i in a.instances)

    def test_custom_label_names(self):
        ds = generate_synthetic(5, [0.5, 0.5], label_names=["x", "y"])
        assert ds.schema.names == ("x", "y")
        assert generate_synthetic(5, [0.5]).schema.names == ("label0",)

    def test_text_is_already_normalized(self):
        ds = generate_synthetic(100, [0.4], seed=9)
        for inst in ds.instances:
            assert preprocess(inst.raw_text) == inst.text


class TestDeterminism:
    def test_same_seed_identical(self):
        a = generate_synthetic(80, [0.3, 0.1], noise=0.1, seed=5)
        b = generate_synthetic(80, [0.3, 0.1], noise=0.1, seed=5)
        assert a == b

    def test_different_seed_differs(self):
        a = generate_synthetic(80, [0.3], seed=5)
        b = generate_synthetic(80, [0.3], seed=6)
        assert a != b
