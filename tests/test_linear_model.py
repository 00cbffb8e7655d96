import json
import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from polarpipe.corpus import DataError, Dataset, Instance, LabelSchema
from polarpipe.linear_model import (
    FeaturizerConfig,
    LinearModel,
    TrainConfig,
    featurize_all,
    load_model,
    lr_at_step,
    predict_proba,
    save_history,
    save_model,
    train,
)
from polarpipe.metrics import evaluate
from polarpipe.synth import generate_synthetic
from polarpipe.weighting import PosWeights

from helpers import (
    fd_max_rel_err,
    featurize,
    fnv1a64,
    loss_and_grad,
    mk_dataset,
    random_fd_case,
    zero_model,
)


class TestFeaturizerConfig:
    def test_defaults(self):
        assert [f.name for f in fields(FeaturizerConfig)] == ["hash_dim"]
        assert FeaturizerConfig().hash_dim == 2**18

    @pytest.mark.parametrize("field", ["ngram_orders", "tf_mode", "l2_normalize"])
    def test_removed_fields_are_refused(self, field):
        # one featurizer: unigram and bigram counts, L2-normalized
        with pytest.raises(TypeError, match=field):
            FeaturizerConfig(**{field: None})

    def test_rejects_bad_dims(self):
        with pytest.raises(DataError, match="power of two"):
            FeaturizerConfig(hash_dim=1000)
        with pytest.raises(DataError, match="power of two"):
            FeaturizerConfig(hash_dim=512)

    def test_hash_dim_capped_at_2_62(self):
        # ids are reduced in uint64 and stored as int64
        assert FeaturizerConfig(hash_dim=2**62).hash_dim == 2**62
        for dim in (2**63, 2**64, 2**70):
            with pytest.raises(DataError, match=r"power of two in \[2\*\*10, 2\*\*62\]"):
                FeaturizerConfig(hash_dim=dim)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("hash_dim", True, "hash_dim must be an integer"),
            ("hash_dim", 1024.0, "hash_dim must be an integer"),
            ("hash_dim", "1024", "hash_dim must be an integer"),
        ],
    )
    def test_rejects_mistyped_fields(self, field, value, message):
        with pytest.raises(DataError, match=message):
            FeaturizerConfig(**{field: value})


class TestFeaturize:
    def test_empty_text(self):
        v = featurize("")
        assert v.indices.size == 0
        assert v.values.size == 0

    def test_repeated_unigram_counts(self):
        # counts 2 and 1, divided by the row's norm sqrt(2^2 + 1^2)
        v = featurize("abc abc", FeaturizerConfig(hash_dim=2**10))
        by_index = dict(zip(v.indices.tolist(), v.values.tolist()))
        assert by_index == {
            fnv1a64(b"abc") % 2**10: 2.0 / math.sqrt(5.0),
            fnv1a64(b"abc abc") % 2**10: 1.0 / math.sqrt(5.0),
        }

    def test_unigram_bigram_aggregation(self):
        v = featurize("a b a")
        by_index = dict(zip(v.indices.tolist(), v.values.tolist()))
        dim = 2**18
        # counts 2, 1, 1 and 1, divided by sqrt(7)
        assert by_index == {
            fnv1a64(b"a") % dim: 2.0 / math.sqrt(7.0),
            fnv1a64(b"b") % dim: 1.0 / math.sqrt(7.0),
            fnv1a64(b"a b") % dim: 1.0 / math.sqrt(7.0),
            fnv1a64(b"b a") % dim: 1.0 / math.sqrt(7.0),
        }

    @given(st.lists(st.sampled_from(["a", "b", "cd", "efg", "abc"]), max_size=12))
    def test_norm_is_one_or_empty(self, tokens):
        v = featurize(" ".join(tokens))
        if v.values.size:
            assert math.isclose(float(np.sum(v.values**2)), 1.0, rel_tol=1e-12)
        else:
            assert tokens == []

    def test_indices_strictly_increasing(self):
        v = featurize("the quick brown fox jumps over the lazy dog")
        assert np.all(np.diff(v.indices) > 0)

    def test_featurize_all_rows_match_featurize(self):
        texts = ["a b", "", "c c d"]
        fm = featurize_all(texts)
        assert fm.n_rows == 3
        for i, t in enumerate(texts):
            v = featurize(t)
            lo, hi = fm.indptr[i], fm.indptr[i + 1]
            assert np.array_equal(fm.indices[lo:hi], v.indices)
            assert np.array_equal(fm.data[lo:hi], v.values)

    def test_take_reorders_rows(self):
        fm = featurize_all(["a b", "c", "d e f"])
        sub = fm.take(np.array([2, 0]))
        ref = featurize_all(["d e f", "a b"])
        assert np.array_equal(sub.indptr, ref.indptr)
        assert np.array_equal(sub.indices, ref.indices)
        assert np.array_equal(sub.data, ref.data)


def _mk_batch(texts, label_rows, names):
    return [
        Instance(id=f"b{i}", raw_text=t, text=t, labels=tuple(r))
        for i, (t, r) in enumerate(zip(texts, label_rows))
    ]


class TestLossAndGrad:
    def test_zero_model_positive_is_log2(self):
        schema = LabelSchema(names=("y",))
        model = zero_model(FeaturizerConfig(hash_dim=2**10), schema)
        batch = _mk_batch(["some text"], [(1,)], schema.names)
        loss, _, _ = loss_and_grad(model, batch)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_zero_model_negative_ignores_pos_weight(self):
        schema = LabelSchema(names=("y",))
        model = zero_model(FeaturizerConfig(hash_dim=2**10), schema)
        batch = _mk_batch(["some text"], [(0,)], schema.names)
        pw = PosWeights(weights=(50.0,), capped=(False,))
        loss, _, _ = loss_and_grad(model, batch, pw=pw)
        assert loss == pytest.approx(math.log(2.0), rel=1e-12)

    def test_weight_decay_adds_exact_penalty(self):
        schema = LabelSchema(names=("a", "b"))
        rng = np.random.RandomState(0)
        fcfg = FeaturizerConfig(hash_dim=2**10)
        model = LinearModel(
            feature_ids=np.arange(2**10),
            weights=rng.randn(2**10, 2) * 0.1,
            bias=rng.randn(2) * 0.1,
            featurizer=fcfg,
            schema=schema,
        )
        batch = _mk_batch(["t u", "v"], [(1, 0), (0, 1)], schema.names)
        plain, gw0, _ = loss_and_grad(model, batch)
        decayed, gw1, _ = loss_and_grad(model, batch, weight_decay=0.01)
        penalty = 0.01 * 0.5 * float(np.sum(model.weights**2))
        assert decayed == pytest.approx(plain + penalty, rel=1e-12)
        assert np.allclose(gw1 - gw0, 0.01 * model.weights)

    def test_compact_model_matches_its_dense_form(self):
        # a feature the model lacks adds nothing, as a zero row does
        schema = LabelSchema(names=("a", "b"))
        rng = np.random.RandomState(3)
        fcfg = FeaturizerConfig(hash_dim=2**10)
        batch = _mk_batch(["t u v", "v w", "x y z z", ""], [(1, 0), (0, 1), (1, 1), (0, 0)], schema.names)
        batch_ids = featurize_all([inst.text for inst in batch], fcfg).indices
        ids = np.unique(np.concatenate([batch_ids[::2], [3, 500, 1023]]))
        compact = LinearModel(
            feature_ids=ids, weights=rng.randn(ids.size, 2), bias=rng.randn(2), featurizer=fcfg, schema=schema
        )
        dense_w = np.zeros((2**10, 2))
        dense_w[ids] = compact.weights
        dense = LinearModel(
            feature_ids=np.arange(2**10), weights=dense_w, bias=compact.bias, featurizer=fcfg, schema=schema
        )
        loss, gw, gb = loss_and_grad(compact, batch, smoothing=0.1)
        loss_d, gw_d, gb_d = loss_and_grad(dense, batch, smoothing=0.1)
        assert loss == loss_d
        assert gw.tobytes() == gw_d[ids].tobytes()
        assert gb.tobytes() == gb_d.tobytes()
        ds = mk_dataset([(0, 0)] * len(batch), names=schema.names, texts=[i.text for i in batch])
        got, want = (np.array(predict_proba(m, ds).values) for m in (compact, dense))
        assert got.tobytes() == want.tobytes()

    def test_empty_batch_rejected(self):
        model = zero_model(FeaturizerConfig(hash_dim=2**10), LabelSchema(names=("y",)))
        with pytest.raises(DataError, match="non-empty"):
            loss_and_grad(model, [])

    def test_sample_weight_length_checked(self):
        schema = LabelSchema(names=("y",))
        model = zero_model(FeaturizerConfig(hash_dim=2**10), schema)
        batch = _mk_batch(["a", "b"], [(1,), (0,)], schema.names)
        with pytest.raises(DataError, match="sample_weights"):
            loss_and_grad(model, batch, sample_weights=[1.0])


class TestGradientCheck:
    def test_small_model_all_coordinates(self):
        rng = np.random.RandomState(1234)
        case = random_fd_case(rng)
        assert fd_max_rel_err(*case) < 1e-4

    def test_public_path_sampled_coordinates(self):
        rng = np.random.RandomState(5)
        schema = LabelSchema(names=("a", "b", "c"))
        fcfg = FeaturizerConfig(hash_dim=2**10)
        model = LinearModel(
            feature_ids=np.arange(2**10),
            weights=rng.randn(2**10, 3) * 0.3,
            bias=rng.randn(3) * 0.1,
            featurizer=fcfg,
            schema=schema,
        )
        texts = ["u v w", "w x", "y", "u y z z"]
        labels = [(1, 0, 0), (0, 1, 1), (1, 1, 0), (0, 0, 1)]
        batch = _mk_batch(texts, labels, schema.names)
        pw = PosWeights(weights=(2.0, 1.0, 0.7), capped=(False,) * 3)

        loss, gw, gb = loss_and_grad(
            model, batch, pw=pw, smoothing=0.1, weight_decay=0.01
        )
        assert loss >= 0.0
        h = 1e-5

        def loss_only():
            return loss_and_grad(model, batch, pw=pw, smoothing=0.1, weight_decay=0.01)[0]

        coords = [
            (rng.randint(2**10), rng.randint(3)) for _ in range(80)
        ]
        for i, j in coords:
            model.weights[i, j] += h
            up = loss_only()
            model.weights[i, j] -= 2 * h
            down = loss_only()
            model.weights[i, j] += h
            fd = (up - down) / (2 * h)
            assert abs(gw[i, j] - fd) / max(1e-6, abs(gw[i, j]), abs(fd)) < 1e-4
        for j in range(3):
            model.bias[j] += h
            up = loss_only()
            model.bias[j] -= 2 * h
            down = loss_only()
            model.bias[j] += h
            fd = (up - down) / (2 * h)
            assert abs(gb[j] - fd) / max(1e-6, abs(gb[j]), abs(fd)) < 1e-4


class TestSchedule:
    def test_linear_warmup(self):
        for s in range(1, 6):
            assert lr_at_step(s, 20, 5, 0.02) == pytest.approx(0.02 * s / 5)

    def test_cosine_tail(self):
        lr = lr_at_step(10, 20, 5, 0.02)
        progress = (10 - 5) / (20 - 5)
        assert lr == pytest.approx(0.02 * 0.5 * (1 + math.cos(math.pi * progress)))
        assert lr_at_step(20, 20, 5, 0.02) == pytest.approx(0.0, abs=1e-18)

    def test_nonincreasing_after_warmup(self):
        values = [lr_at_step(s, 50, 7, 0.02) for s in range(7, 51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_all_warmup_schedule(self):
        assert lr_at_step(3, 3, 3, 0.02) == pytest.approx(0.02)


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(DataError, match="label_smoothing"):
            TrainConfig(label_smoothing=1.0)
        with pytest.raises(DataError, match="patience"):
            TrainConfig(patience=0)
        for bad in (0.0, -1.0, float("nan")):
            with pytest.raises(DataError, match="max_grad_norm"):
                TrainConfig(max_grad_norm=bad)
        TrainConfig(max_grad_norm=float("inf"))  # never clip
        for bad in (0.0, -1.0, float("inf"), float("nan")):
            with pytest.raises(DataError, match="learning_rate"):
                TrainConfig(learning_rate=bad)
        for bad in (-5.0, float("inf"), float("nan")):
            with pytest.raises(DataError, match="weight_decay"):
                TrainConfig(weight_decay=bad)
        TrainConfig(weight_decay=0.0)
        with pytest.raises(DataError, match="warmup_ratio"):
            TrainConfig(warmup_ratio=1.5)
        with pytest.raises(DataError, match=r"^max_epochs must be >= 0$"):
            TrainConfig(max_epochs=-1)
        TrainConfig(max_epochs=0)
        for bad in (0, -3):
            with pytest.raises(DataError, match=r"^batch_size must be >= 1$"):
                TrainConfig(batch_size=bad)
        with pytest.raises(DataError, match="weighting must be 'balanced' or 'none', got 'sqrt'"):
            TrainConfig(weighting="sqrt")
        for removed in ("accumulation_steps", "warmup_steps"):
            with pytest.raises(TypeError, match=removed):
                TrainConfig(**{removed: 2})

    def test_smoothing_resolution(self):
        binary = LabelSchema(names=("y",))
        multi = LabelSchema(names=("a", "b"))
        assert TrainConfig().resolve_smoothing(binary) == 0.1
        assert TrainConfig().resolve_smoothing(multi) == 0.0
        assert TrainConfig(label_smoothing=0.2).resolve_smoothing(multi) == 0.2


def _separable_corpus(n_per_class, offset=0):
    texts = []
    rows = []
    for i in range(n_per_class):
        texts.append(f"pos{(i + offset) % 5} posmark")
        rows.append((1,))
    for i in range(n_per_class):
        texts.append(f"neg{(i + offset) % 5} negmark")
        rows.append((0,))
    return mk_dataset(rows, names=("y",), texts=texts)


def _perceptron_separates(ds, fcfg, max_passes=200):
    """Closed-form separability check: perceptron converges iff separable."""
    fm = featurize_all([i.text for i in ds.instances], fcfg)
    y = np.array([2 * i.labels[0] - 1 for i in ds.instances], dtype=np.float64)
    w = np.zeros(fcfg.hash_dim)
    b = 0.0
    for _ in range(max_passes):
        mistakes = 0
        for r in range(fm.n_rows):
            lo, hi = fm.indptr[r], fm.indptr[r + 1]
            score = float(fm.data[lo:hi] @ w[fm.indices[lo:hi]]) + b
            if y[r] * score <= 0:
                w[fm.indices[lo:hi]] += y[r] * fm.data[lo:hi]
                b += y[r]
                mistakes += 1
        if mistakes == 0:
            return True
    return False


class TestTrain:
    def test_zero_epochs_returns_zero_model(self):
        ds = _separable_corpus(4)
        model, report = train(ds, ds, TrainConfig(max_epochs=0))
        assert not np.any(model.weights)
        assert not np.any(model.bias)
        assert report.epoch_train_loss == ()
        assert report.epoch_val_macro_f1 == ()
        assert report.best_epoch == 0
        assert not report.stopped_early

    def test_separable_corpus_reaches_perfect_f1(self):
        train_ds = _separable_corpus(40)
        val_ds = _separable_corpus(10, offset=2)
        fcfg = FeaturizerConfig(hash_dim=2**12)
        assert _perceptron_separates(train_ds, fcfg)
        model, report = train(train_ds, val_ds, TrainConfig(), fcfg)
        assert max(report.epoch_val_macro_f1) == 1.0
        assert len(report.epoch_train_loss) <= 10
        # best-epoch invariants
        assert report.best_epoch >= 1
        assert report.epoch_val_macro_f1[report.best_epoch - 1] == max(
            report.epoch_val_macro_f1
        )
        assert len(report.epoch_val_macro_f1) <= report.best_epoch + TrainConfig().patience
        # retained parameters reproduce the best score
        pm = predict_proba(model, val_ds)
        rep = evaluate(pm, val_ds, [0.5])
        assert rep.macro_f1 == 1.0

    def test_loss_decreases_on_separable_data(self):
        train_ds = _separable_corpus(40)
        model, report = train(
            train_ds, _separable_corpus(10), TrainConfig(max_epochs=6, patience=6)
        )
        assert report.epoch_train_loss[-1] < report.epoch_train_loss[0]

    def test_balanced_weighting_lifts_minority_recall(self):
        ds = generate_synthetic(600, [0.05], noise=0.05, seed=11)
        from polarpipe.splitter import SplitConfig, stratified_split

        parts = stratified_split(ds, SplitConfig(val_fraction=0.25, seed=3))
        recalls = {}
        for mode in ("balanced", "none"):
            model, _ = train(parts.train, parts.val, TrainConfig(weighting=mode))
            pm = predict_proba(model, parts.val)
            rep = evaluate(pm, parts.val, [0.5], binary_mode="positive-f1")
            recalls[mode] = rep.per_label[0].recall
        assert recalls["balanced"] > recalls["none"]

    def test_weighting_records(self, tmp_path):
        ds = generate_synthetic(80, [0.3, 0.2], seed=4)
        # 80 rows in two updates, the first of them warmup
        cfg = TrainConfig(max_epochs=1, warmup_ratio=0.5)
        weighted, report = train(ds, ds, cfg)
        unweighted, plain = train(ds, ds, replace(cfg, weighting="none"))
        assert not np.array_equal(weighted.weights, unweighted.weights)
        for mode, rep in (("balanced", report), ("none", plain)):
            assert rep.weighting_mode == mode
            save_history(rep, tmp_path / "history.tsv")
            lines = (tmp_path / "history.tsv").read_text().splitlines()
            assert lines[-1] == f"# weighting_mode\t{mode}"

    def test_determinism_and_seed_sensitivity(self):
        ds = generate_synthetic(60, [0.4, 0.15], seed=2)
        # several updates per epoch, so the seed's order decides what each holds
        cfg = TrainConfig(max_epochs=3, patience=3, batch_size=16)
        m1, r1 = train(ds, ds, cfg)
        m2, r2 = train(ds, ds, cfg)
        assert r1.epoch_train_loss == r2.epoch_train_loss
        assert m1.weights.tobytes() == m2.weights.tobytes()
        assert m1.bias.tobytes() == m2.bias.tobytes()
        _, r3 = train(ds, ds, replace(cfg, seed=43))
        assert r1.epoch_train_loss != r3.epoch_train_loss

    def test_single_update_respects_clip_bound(self):
        # one optimizer update, all warmup, so at full lr from zero:
        # ||delta|| <= lr * max_grad_norm
        ds = generate_synthetic(40, [0.5], seed=9)
        cfg = TrainConfig(
            max_epochs=1,
            batch_size=64,
            warmup_ratio=1.0,
            max_grad_norm=1e-3,
            weight_decay=0.0,
        )
        model, _ = train(ds, ds, cfg)
        norm = math.sqrt(float(np.sum(model.weights**2)) + float(np.sum(model.bias**2)))
        bound = cfg.learning_rate * cfg.max_grad_norm
        assert norm <= bound + 1e-9
        assert norm == pytest.approx(bound, rel=1e-6)  # the clip actually engaged

    def test_input_validation(self):
        ds = _separable_corpus(4)
        empty = Dataset(schema=ds.schema, instances=())
        with pytest.raises(DataError, match="training set is empty"):
            train(empty, ds)
        with pytest.raises(DataError, match="validation set is empty"):
            train(ds, empty)
        other = mk_dataset([(0, 1)], names=("a", "b"))
        with pytest.raises(DataError, match="schemas differ"):
            train(ds, other)


class TestPredictProba:
    def test_zero_model_gives_exact_half(self):
        schema = LabelSchema(names=("a", "b"))
        model = zero_model(FeaturizerConfig(hash_dim=2**10), schema)
        ds = mk_dataset([(0, 1), (1, 0)], names=("a", "b"))
        pm = predict_proba(model, ds)
        assert all(v == 0.5 for row in pm.values for v in row)

    def test_bias_monotonicity(self):
        rng = np.random.RandomState(0)
        schema = LabelSchema(names=("a", "b"))
        fcfg = FeaturizerConfig(hash_dim=2**10)
        model = LinearModel(
            feature_ids=np.arange(2**10),
            weights=rng.randn(2**10, 2) * 0.1,
            bias=np.array([0.0, 0.0]),
            featurizer=fcfg,
            schema=schema,
        )
        ds = mk_dataset([(0, 1), (1, 0), (1, 1)], names=("a", "b"))
        before = np.array(predict_proba(model, ds).values)
        bumped = LinearModel(
            feature_ids=model.feature_ids,
            weights=model.weights,
            bias=np.array([0.0, 1.0]),
            featurizer=fcfg,
            schema=schema,
        )
        after = np.array(predict_proba(bumped, ds).values)
        assert np.all(after[:, 1] > before[:, 1])
        assert np.array_equal(after[:, 0], before[:, 0])

    def test_schema_mismatch(self):
        model = zero_model(FeaturizerConfig(hash_dim=2**10), LabelSchema(names=("a",)))
        ds = mk_dataset([(0, 1)], names=("a", "b"))
        with pytest.raises(DataError, match="schema"):
            predict_proba(model, ds)


class TestCompactModel:
    def test_zero_model_holds_no_rows(self):
        model = zero_model(FeaturizerConfig(hash_dim=2**20), LabelSchema(names=("a", "b")))
        assert model.feature_ids.dtype == np.int64 and model.feature_ids.shape == (0,)
        assert model.weights.shape == (0, 2)

    def test_model_holds_the_train_features_only(self):
        ds = generate_synthetic(60, [0.3, 0.5], seed=3)
        fcfg = FeaturizerConfig(hash_dim=2**20)
        model, _ = train(ds, ds, TrainConfig(max_epochs=2), fcfg)
        train_ids = np.unique(featurize_all([i.text for i in ds.instances], fcfg).indices)
        assert np.array_equal(model.feature_ids, train_ids)
        assert model.weights.shape == (train_ids.size, 2) and train_ids.size < 2**12
        # a text of features the model never saw scores its bias alone
        unseen = mk_dataset([(0, 1)], names=ds.schema.names, texts=["zq1 zq2 zq3"])
        assert not np.isin(featurize(unseen.instances[0].text, fcfg).indices, train_ids).any()
        expected = 1.0 / (1.0 + np.exp(-model.bias))
        assert np.array_equal(predict_proba(model, unseen).values[0], expected)

    @pytest.mark.parametrize(
        "ids, message",
        [
            ([3, 1], "strictly increasing"),
            ([1, 1], "strictly increasing"),
            ([-1, 2], r"lie in \[0, 1024\)"),
            ([5, 1024], r"lie in \[0, 1024\)"),
            (np.array([1, 2], dtype=np.int32), "int64"),
            (np.array([[1, 2]]), "1-d"),
        ],
    )
    def test_feature_ids_validated(self, ids, message):
        ids = np.asarray(ids, dtype=getattr(ids, "dtype", np.int64))
        with pytest.raises(DataError, match=message):
            LinearModel(
                feature_ids=ids,
                weights=np.zeros((ids.shape[-1], 1)),
                bias=np.zeros(1),
                featurizer=FeaturizerConfig(hash_dim=2**10),
                schema=LabelSchema(names=("a",)),
            )

    def test_weights_need_one_row_per_id(self):
        with pytest.raises(DataError, match="weights shape"):
            LinearModel(
                feature_ids=np.array([1, 7]),
                weights=np.zeros((3, 1)),
                bias=np.zeros(1),
                featurizer=FeaturizerConfig(hash_dim=2**10),
                schema=LabelSchema(names=("a",)),
            )


class TestModelFile:
    def _trained(self):
        ds = generate_synthetic(50, [0.3, 0.6], seed=5)
        model, _ = train(ds, ds, TrainConfig(max_epochs=2, patience=3), FeaturizerConfig(hash_dim=2**10))
        return model, ds

    def test_round_trip_probabilities_bit_exact(self, tmp_path):
        model, ds = self._trained()
        path = tmp_path / "m.bin"
        save_model(model, path)
        back = load_model(path)
        assert back.schema.names == model.schema.names
        assert back.featurizer == model.featurizer
        assert back.feature_ids.dtype == np.int64
        assert np.array_equal(back.feature_ids, model.feature_ids)
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.bias, model.bias)
        assert np.array_equal(
            predict_proba(back, ds).values, predict_proba(model, ds).values
        )

    def test_rejects_foreign_and_truncated_files(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00\x01binary junk\n")
        with pytest.raises(DataError, match="not a model file"):
            load_model(path)
        path.write_text('{"format": "something-else"}\n')
        with pytest.raises(DataError, match="not a model file"):
            load_model(path)

        model, _ = self._trained()
        good = tmp_path / "m.bin"
        save_model(model, good)
        clipped = tmp_path / "clipped.bin"
        clipped.write_bytes(good.read_bytes()[:-8])
        with pytest.raises(DataError, match="payload bytes"):
            load_model(clipped)

    def test_file_layout(self, tmp_path):
        model, _ = self._trained()
        path = tmp_path / "m.bin"
        save_model(model, path)
        line, body = path.read_bytes().split(b"\n", 1)
        header = json.loads(line)
        k, n_labels = model.weights.shape
        assert header["version"] == 3 and header["shape"] == [k, n_labels]
        assert 0 < k < 2**10
        assert len(body) == (k + k * n_labels + n_labels) * 8
        assert body[: k * 8] == model.feature_ids.astype("<i8").tobytes()
        assert body[k * 8 : -n_labels * 8] == model.weights.astype("<f8").tobytes()
        assert body[-n_labels * 8 :] == model.bias.astype("<f8").tobytes()

    def test_rejects_version_1(self, tmp_path):
        # the dense layout: hash_dim rows of weights, then the bias
        header = {
            "format": "polarpipe-model", "version": 1, "schema": ["a"], "shape": [1024, 1],
            "featurizer": {"hash_dim": 1024, "ngram_orders": [1, 2], "tf_mode": "count", "l2_normalize": True},
        }
        path = tmp_path / "v1.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(1025 * 8))
        with pytest.raises(DataError, match="unsupported model version 1$") as info:
            load_model(path)
        assert str(path) in str(info.value)

    def test_rejects_version_2(self, tmp_path):
        # the sparse layout of today, but a featurizer that may not be today's
        header = {
            "format": "polarpipe-model", "version": 2, "schema": ["a"], "shape": [1, 1],
            "featurizer": {"hash_dim": 1024, "ngram_orders": [1], "tf_mode": "binary", "l2_normalize": False},
        }
        path = tmp_path / "v2.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + bytes(3 * 8))
        with pytest.raises(DataError, match="unsupported model version 2$") as info:
            load_model(path)
        assert str(path) in str(info.value)

    @pytest.mark.parametrize(
        "edit, message",
        [
            ("nan-weight", "finite"),
            ("inf-bias", "finite"),
            ("unsorted-ids", "strictly increasing"),
            ("duplicate-ids", "strictly increasing"),
            ("negative-id", "lie in"),
            ("id-past-hash-dim", "lie in"),
        ],
    )
    def test_bad_parameters_name_the_path(self, tmp_path, edit, message):
        model, _ = self._trained()
        ids, weights, bias = model.feature_ids.copy(), model.weights.copy(), model.bias.copy()
        if edit == "nan-weight":
            weights[1, 0] = np.nan
        elif edit == "inf-bias":
            bias[-1] = np.inf
        elif edit == "unsorted-ids":
            ids[[0, 1]] = ids[[1, 0]]
        elif edit == "duplicate-ids":
            ids[1] = ids[0]
        elif edit == "negative-id":
            ids[0] = -1
        else:
            ids[-1] = model.featurizer.hash_dim
        good = tmp_path / "m.bin"
        save_model(model, good)
        header = good.read_bytes().split(b"\n", 1)[0]
        path = tmp_path / "edited.bin"
        path.write_bytes(
            header + b"\n" + ids.astype("<i8").tobytes()
            + weights.astype("<f8").tobytes() + bias.astype("<f8").tobytes()
        )
        with pytest.raises(DataError, match=message) as info:
            load_model(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_rejects_unknown_version(self, tmp_path):
        path = tmp_path / "v9.bin"
        header = b'{"format": "polarpipe-model", "version": 9}\n'
        path.write_bytes(header)
        with pytest.raises(DataError, match="version"):
            load_model(path)


class TestModelHeader:
    """Every header field is required; a lost or malformed one is a DataError."""

    def _header_and_body(self, tmp_path):
        model = zero_model(FeaturizerConfig(hash_dim=2**10), LabelSchema(names=("a", "b")))
        path = tmp_path / "m.bin"
        save_model(model, path)
        line, body = path.read_bytes().split(b"\n", 1)
        return json.loads(line), body

    def _load(self, tmp_path, header, body):
        path = tmp_path / "edited.bin"
        path.write_bytes(json.dumps(header).encode() + b"\n" + body)
        return path, lambda: load_model(path)

    def test_featurizer_written_from_dataclass(self, tmp_path):
        header, _ = self._header_and_body(tmp_path)
        assert header["featurizer"] == {"hash_dim": 1024}

    @pytest.mark.parametrize(
        "field, message",
        [
            ("format", "not a model file"),
            ("version", "version"),
            ("shape", "missing field 'shape'"),
            ("featurizer", "missing field 'featurizer'"),
            ("schema", "missing field 'schema'"),
        ],
    )
    def test_each_top_level_field_required(self, tmp_path, field, message):
        header, body = self._header_and_body(tmp_path)
        del header[field]
        path, load = self._load(tmp_path, header, body)
        with pytest.raises(DataError, match=message) as info:
            load()
        assert str(path) in str(info.value)

    @pytest.mark.parametrize("field", ["hash_dim"])
    def test_each_featurizer_field_required(self, tmp_path, field):
        header, body = self._header_and_body(tmp_path)
        del header["featurizer"][field]
        _, load = self._load(tmp_path, header, body)
        with pytest.raises(DataError, match=f"'featurizer' has no '{field}'"):
            load()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("shape", [1024]),
            ("shape", "1024x2"),
            ("shape", [1024.0, 2]),
            ("shape", [-1, -1]),
            ("featurizer", [1, 2]),
            ("featurizer", {"hash_dim": "big"}),
            ("featurizer", {"hash_dim": 1000}),
            ("schema", 7),
        ],
    )
    def test_malformed_fields_rejected(self, tmp_path, field, value):
        header, body = self._header_and_body(tmp_path)
        header[field] = value
        _, load = self._load(tmp_path, header, body)
        with pytest.raises(DataError):
            load()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("featurizer.hash_dim", 2**62, None),
            ("featurizer.hash_dim", 2**70, "power of two in"),
            ("featurizer.hash_dim", True, "hash_dim must be an integer"),
            ("featurizer.hash_dim", 1024.0, "hash_dim must be an integer"),
            ("schema", {"a": 1, "b": 2}, "schema must be a list of label names"),
            ("schema", "ab", "schema must be a list of label names"),
            ("schema", ["a", 2], "schema must be a list of label names"),
        ],
    )
    def test_mistyped_fields_name_the_path(self, tmp_path, field, value, message):
        header, body = self._header_and_body(tmp_path)
        if field.startswith("featurizer."):
            header["featurizer"][field.split(".")[1]] = value
        else:
            header[field] = value
        path, load = self._load(tmp_path, header, body)
        if message is None:
            assert load().featurizer.hash_dim == value
            return
        with pytest.raises(DataError, match=message) as info:
            load()
        assert str(info.value).startswith(f"{path}: ")

    def test_non_object_header_rejected(self, tmp_path):
        _, body = self._header_and_body(tmp_path)
        _, load = self._load(tmp_path, [1, 2], body)
        with pytest.raises(DataError, match="not a model file"):
            load()


class TestHistoryFile:
    def test_layout(self, tmp_path):
        ds = _separable_corpus(10)
        _, report = train(ds, ds, TrainConfig(max_epochs=2, patience=3))
        path = tmp_path / "history.tsv"
        save_history(report, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch\ttrain_loss\tval_macro_f1"
        assert lines[1].startswith("1\t")
        assert len(lines[1].split("\t")) == 3
        assert any(l.startswith("# best_epoch\t") for l in lines)
        assert any(l.startswith("# stopped_early\t") for l in lines)
        assert any(l.startswith("# weighting_mode\tbalanced") for l in lines)
