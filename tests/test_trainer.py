"""Training-loop tests: determinism, overfit, evaluation."""

import dataclasses

import numpy as np
import pytest

from pointer_gpt.model import (ModelConfig, init_params, param_specs,
                               sequence_loss)
from pointer_gpt.tensor import Tape, backward
from pointer_gpt.tokenizer import build_vocab, encode_example
from pointer_gpt.trainer import TrainConfig, TrainingError, train

SRC = "patient reports chronic sob and cough with mild fever ."
TGT = "chronic sob and cough ."


@pytest.fixture(scope="module")
def corpus():
    vocab = build_vocab([SRC, TGT], max_size=50)
    example = encode_example(SRC, TGT, vocab)
    cfg = ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2,
                      n_layers=1, d_ff=32, max_seq_len=32, seed=0)
    return vocab, example, cfg


class TestTrain:
    def test_zero_epochs_rejected(self):
        with pytest.raises(ValueError, match="epochs must be at least 1"):
            TrainConfig(epochs=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError,
                           match="^seed must be at least 0, got -1$"):
            TrainConfig(seed=-1)

    @pytest.mark.parametrize("name, value", [
        ("epochs", True), ("seed", True), ("batch_size", 2.5),
        ("epochs", 2.0)])
    def test_non_integers_rejected(self, name, value):
        # True used to train one epoch or seed 1; the floats failed in train
        with pytest.raises(ValueError) as info:
            TrainConfig(**{name: value})
        assert str(info.value) == "%s must be an integer, got %r" % (name,
                                                                     value)

    @pytest.mark.parametrize("lr", [True, "0.1", None, 10 ** 400],
                             ids=["bool", "str", "none", "401-digit-int"])
    def test_lr_must_be_a_positive_finite_number(self, lr):
        # True trained with lr 1.0; the int overflowed math.isfinite
        with pytest.raises(ValueError) as info:
            TrainConfig(lr=lr)
        assert str(info.value) == "lr must be positive and finite, got %r" % (
            lr,)

    def test_batch_size_below_one_rejected(self):
        with pytest.raises(ValueError) as info:
            TrainConfig(batch_size=0)
        assert str(info.value) == "batch_size must be at least 1, got 0"

    def test_empty_dataset_rejected(self, corpus):
        _, _, cfg = corpus
        with pytest.raises(ValueError):
            train(init_params(cfg), [], TrainConfig(), cfg)

    def test_same_seed_bit_identical_curves_and_params(self, corpus):
        _, example, cfg = corpus
        runs = []
        for _ in range(2):
            params = init_params(cfg)
            report = train(params, [example, example],
                           TrainConfig(epochs=5, batch_size=2, seed=9), cfg)
            runs.append((report.losses,
                         {n: t.data.copy() for n, t in params.items()}))
        assert runs[0][0] == runs[1][0]
        for name in runs[0][1]:
            assert np.array_equal(runs[0][1][name], runs[1][1][name])

    def test_every_parameter_trains(self, corpus):
        # the baseline is GPT: no pointer and no gate, so every parameter of
        # either variant gets a nonzero gradient and `train` moves them all
        vocab, example, _ = corpus
        examples = [example] + [encode_example(src, tgt, vocab) for src, tgt
                                in (("mild fever today .", "fever ."),
                                    ("chronic cough and sob .", "cough ."),
                                    ("patient reports sob .", "sob ."))]
        cfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2,
                          n_layers=1, d_ff=16, max_seq_len=32, seed=0)
        base_cfg = dataclasses.replace(cfg, baseline=True)
        assert list(param_specs(base_cfg)) == [
            name for name in param_specs(cfg)
            if name != "ptr.w" and not name.startswith("gate.")]
        for mcfg in (cfg, base_cfg):
            params = init_params(mcfg)
            with Tape() as tape:
                loss = sequence_loss(params, examples, mcfg)
            grads = backward(tape, loss)
            assert [name for name, t in params.items()
                    if not grads.get(t, np.zeros(1)).any()] == []
            before = {name: t.data.copy() for name, t in params.items()}
            train(params, examples, TrainConfig(batch_size=2), mcfg)
            assert [name for name, t in params.items()
                    if np.array_equal(t.data, before[name])] == []

    def test_non_finite_loss_names_step_and_examples(self, corpus):
        vocab, example, cfg = corpus
        other = encode_example("mild fever today .", "fever .", vocab)
        dataset = [example, other, example]
        params = init_params(cfg)
        params["w_vocab"].data[0, 0] = np.nan
        # seed 3 shuffles the first batch to [2, 1]: named in that order
        first = np.random.default_rng(3).permutation(3)[:2].tolist()
        assert first == [2, 1]
        with pytest.raises(TrainingError) as err:
            train(params, dataset, TrainConfig(batch_size=2, seed=3), cfg)
        assert str(err.value) == ("non-finite loss at step 0 (examples %s)"
                                  % first)

    def test_loss_decreases_from_init(self, corpus):
        _, example, cfg = corpus
        params = init_params(cfg)
        init_loss = float(sequence_loss(params, [example], cfg).data)
        train(params, [example], TrainConfig(epochs=50, batch_size=1), cfg)
        assert float(sequence_loss(params, [example], cfg).data) < init_loss

    def test_params_stay_finite(self, corpus):
        _, example, cfg = corpus
        params = init_params(cfg)
        train(params, [example], TrainConfig(epochs=30), cfg)
        for _, t in params.items():
            assert np.isfinite(t.data).all()

    def test_loss_log_format(self, corpus, tmp_path):
        _, example, cfg = corpus
        params = init_params(cfg)
        log = tmp_path / "loss.log"
        train(params, [example], TrainConfig(epochs=3), cfg,
              loss_log_path=str(log))
        lines = log.read_text().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines, start=1):
            step, loss = line.split("\t")
            assert int(step) == i
            float(loss)

    def test_overfit_single_pair(self, corpus):
        # memorization of one sequence must be achievable
        vocab, example, _ = corpus
        cfg = ModelConfig(vocab_size=vocab.size, d_model=64, n_heads=2,
                          n_layers=2, d_ff=128, max_seq_len=64, seed=0)
        params = init_params(cfg)
        report = train(params, [example],
                       TrainConfig(epochs=500, batch_size=1, seed=0), cfg)
        assert report.losses[-1] < 0.1


class TestEvaluateLoss:
    """A loss is evaluated by sequence_loss outside a Tape."""

    def test_single_example_equals_sequence_loss(self, corpus):
        _, example, cfg = corpus
        params = init_params(cfg)
        with Tape() as tape:
            taped = sequence_loss(params, [example], cfg)
        assert len(tape) > 0
        untaped = sequence_loss(params, [example], cfg)
        assert untaped.data.tobytes() == taped.data.tobytes()

    def test_order_invariant(self, corpus):
        vocab, example, cfg = corpus
        other = encode_example("mild fever today .", "fever .", vocab)
        params = init_params(cfg)
        a = float(sequence_loss(params, [example, other], cfg).data)
        b = float(sequence_loss(params, [other, example], cfg).data)
        assert a == pytest.approx(b, rel=1e-6)

    def test_mostly_decreasing_across_overfit_checkpoints(self, corpus):
        _, example, cfg = corpus
        params = init_params(cfg)
        checkpoints = [float(sequence_loss(params, [example], cfg).data)]
        for _ in range(10):
            train(params, [example], TrainConfig(epochs=20), cfg)
            checkpoints.append(float(sequence_loss(params, [example],
                                                   cfg).data))
        increases = sum(1 for a, b in zip(checkpoints, checkpoints[1:])
                        if b > a)
        assert increases <= 1  # allow <=10% non-monotone steps
