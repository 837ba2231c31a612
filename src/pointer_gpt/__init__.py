"""Pointer-augmented GPT summarizer: a gated mixture of a vocabulary
softmax and a copy distribution over the source document, trained with a
minimal numpy autodiff kernel and evaluated with ROUGE-1/2."""

from .tensor import Tensor, Tape, backward
from .tokenizer import Vocabulary, build_vocab, encode_example, tokenize
from .model import ModelConfig, init_params, sequence_loss, pointer_step
from .trainer import TrainConfig, train
from .decoder import DecodeConfig, greedy_decode, beam_decode
from .rouge import RougeScore, rouge_n, rouge_report, f_measure

__version__ = "0.1.0"

__all__ = [
    "Tensor", "Tape", "backward",
    "Vocabulary", "build_vocab", "encode_example", "tokenize",
    "ModelConfig", "init_params", "sequence_loss", "pointer_step",
    "TrainConfig", "train",
    "DecodeConfig", "greedy_decode", "beam_decode",
    "RougeScore", "rouge_n", "rouge_report", "f_measure",
]
