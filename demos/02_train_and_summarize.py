"""Train a tiny summarizer on a handful of clinical-style notes.

Memorizes four source/summary pairs, then generates each summary back and
shows the copy gate handling an out-of-vocabulary word.
"""

from pointer_gpt.decoder import DecodeConfig, greedy_decode
from pointer_gpt.model import ModelConfig, init_params
from pointer_gpt.tokenizer import (build_vocab, decode, encode_example,
                                  encode_source)
from pointer_gpt.trainer import TrainConfig, train

PAIRS = [
    ("patient reports mild cough and fever today .",
     "mild cough and fever ."),
    ("exam shows stable vitals and clear lungs .",
     "stable vitals ."),
    ("patient reports chronic back pain since friday .",
     "chronic back pain ."),
    ("exam shows swelling of the left ankle .",
     "left ankle swelling ."),
]

texts = [t for pair in PAIRS for t in pair]
vocab = build_vocab(texts, max_size=60)
examples = [encode_example(src, tgt, vocab) for src, tgt in PAIRS]

config = ModelConfig(vocab_size=vocab.size, d_model=32, n_heads=2,
                     n_layers=2, d_ff=64, max_seq_len=48, seed=0)
params = init_params(config)

print("training on %d pairs, vocab size %d ..." % (len(PAIRS), vocab.size))
report = train(params, examples,
               TrainConfig(epochs=200, batch_size=2, seed=0), config)
print("final batch loss: %.4f" % report.losses[-1])

print("\ngenerated summaries:")
for src, tgt in PAIRS:
    ids, ext_ids, oov = encode_source(src, vocab)
    out = greedy_decode(params, ids, ext_ids, len(oov), config,
                        DecodeConfig(max_summary_len=16))
    print("  source:    %s" % src)
    print("  generated: %s" % decode(out, vocab, oov))
    print("  reference: %s\n" % tgt)

# a word the model has never seen ("xyzzopril") gets an extended id; if the
# pointer copies it, the resolved text surfaces the original word
novel = "patient reports chronic xyzzopril pain since friday ."
ids, ext_ids, oov = encode_source(novel, vocab)
print("out-of-vocabulary words in source:", oov)
out = greedy_decode(params, ids, ext_ids, len(oov), config,
                    DecodeConfig(max_summary_len=16))
print("generated: %s" % decode(out, vocab, oov))
