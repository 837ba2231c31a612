"""Command-line entry point: train / summarize / evaluate / compare."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .data import load_dataset, require_tokens, split_by_index
from .decoder import DecodeConfig, beam_decode
from .model import ModelConfig, init_params, positions_needed
from .rouge import format_report_table, rouge_report
from .tokenizer import (Vocabulary, build_vocab, decode, encode_example,
                        encode_source)
from .trainer import TrainConfig, train

# section: ({key: default}, keys the command line sets itself); the
# constructors check each value
CONFIG_SECTIONS = {
    "model": ({f.name: f.default for f in dataclasses.fields(ModelConfig)},
              ("vocab_size", "seed", "baseline")),
    "train": ({f.name: f.default for f in dataclasses.fields(TrainConfig)},
              ("seed",)),
    "vocab": ({"max_size": 4000}, ()),
}


def _load_config_file(path):
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as f:
            cfg = json.load(f)
    except (OSError, ValueError, RecursionError) as e:
        raise ValueError("cannot read config %s: %s" % (path, e))
    if not isinstance(cfg, dict):
        raise ValueError("config file must hold a JSON object")
    for name in cfg:
        if name not in CONFIG_SECTIONS:
            raise ValueError("config section %r is not one of %s"
                             % (name, ", ".join(CONFIG_SECTIONS)))
    for name, (defaults, cli_keys) in CONFIG_SECTIONS.items():
        section = cfg.get(name, {})
        if not isinstance(section, dict):
            raise ValueError("config section %r must be a JSON object" % name)
        for key in section:
            if key in cli_keys:
                raise ValueError("config section %r: %r is set by the "
                                 "command line, not the config file"
                                 % (name, key))
            if key not in defaults:
                raise ValueError("config section %r: unknown key %r"
                                 % (name, key))
    return cfg


def _train_model(records, cfg, seed, baseline, out=None):
    """Train one model. Once every config is built, `out` is made and its
    older run's model.ckpt and vocab.txt go, as loss.log is rewritten: a
    failed run leaves its own log and nothing of another run."""
    train_cfg = TrainConfig(seed=seed, **cfg.get("train", {}))
    texts = [r.source for r in records] + [r.summary for r in records]
    vocab = build_vocab(texts, **{**CONFIG_SECTIONS["vocab"][0],
                                  **cfg.get("vocab", {})})
    model_cfg = ModelConfig(vocab_size=vocab.size, seed=seed,
                            baseline=baseline, **cfg.get("model", {}))
    examples = []
    for i, rec in enumerate(records):
        ex = encode_example(rec.source, rec.summary, vocab)
        need = positions_needed(len(ex.source_ids), len(ex.target_ext_ids))
        if need > model_cfg.max_seq_len:
            raise ValueError("record %d needs %d positions but max_seq_len "
                             "is %d" % (i, need, model_cfg.max_seq_len))
        examples.append(ex)
    params = init_params(model_cfg)
    loss_log = None
    if out is not None:
        os.makedirs(out, exist_ok=True)
        for name in ("model.ckpt", "vocab.txt"):
            with contextlib.suppress(FileNotFoundError):
                os.remove(os.path.join(out, name))
        loss_log = os.path.join(out, "loss.log")
    train(params, examples, train_cfg, model_cfg, loss_log_path=loss_log)
    return params, model_cfg, vocab


def cmd_train(args):
    records = load_dataset(args.data)
    cfg = _load_config_file(args.config)
    params, model_cfg, vocab = _train_model(records, cfg, args.seed,
                                            args.baseline, out=args.out)
    vocab.save(os.path.join(args.out, "vocab.txt"))
    save_checkpoint(params, model_cfg, os.path.join(args.out, "model.ckpt"))
    print("trained %d records; artifacts written to %s"
          % (len(records), args.out))


def _decode_text(params, model_cfg, vocab, text, dcfg):
    source_ids, source_ext_ids, oov = encode_source(text, vocab)
    hyp = beam_decode(params, source_ids, source_ext_ids, len(oov), model_cfg,
                      dcfg)
    return decode(hyp.ids, vocab, oov)  # decode drops EOS


def _score(params, model_cfg, vocab, records, dcfg):
    """The one path from a model to a ROUGE row: (label, report) of the
    records' decoded sources against their summaries."""
    candidates = [_decode_text(params, model_cfg, vocab, r.source, dcfg)
                  for r in records]
    label = "GPT-baseline" if model_cfg.baseline else "PointerGPT"
    return label, rouge_report(candidates, [r.summary for r in records])


def _load_model(directory):
    """The model `train --out directory` wrote; the smaller file first."""
    vocab = Vocabulary.load(os.path.join(directory, "vocab.txt"))
    params, model_cfg = load_checkpoint(os.path.join(directory, "model.ckpt"))
    if vocab.size != model_cfg.vocab_size:
        raise ValueError("vocabulary size %d does not match checkpoint "
                         "vocab_size %d" % (vocab.size, model_cfg.vocab_size))
    return params, model_cfg, vocab


def cmd_summarize(args):
    dcfg = DecodeConfig(max_summary_len=args.max_len, beam_width=args.beam)
    # - is fd 0, read as bytes like a file; a closed one fails with EBADF
    with open(0 if args.input == "-" else args.input, "rb",
              closefd=args.input != "-") as f:
        raw = f.read()
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ValueError("cannot read input %s: %s" % (args.input, e))
    require_tokens(text, "input %s" % args.input)
    params, model_cfg, vocab = _load_model(args.model)
    print(_decode_text(params, model_cfg, vocab, text, dcfg))


def cmd_evaluate(args):
    dcfg = DecodeConfig(max_summary_len=args.max_len, beam_width=args.beam)
    records = load_dataset(args.data)
    row = _score(*_load_model(args.model), records, dcfg)
    print(format_report_table([row]))


def run_compare(records, cfg, seed):
    """Train baseline and pointer variants identically; score held-out
    summaries decoded with DecodeConfig(), `evaluate`'s default."""
    train_recs, eval_recs = split_by_index(records)
    if not train_recs or not eval_recs:
        raise ValueError("dataset too small for an 80/20 split")
    return [_score(*_train_model(train_recs, cfg, seed, baseline), eval_recs,
                   DecodeConfig())
            for baseline in (True, False)]


def cmd_compare(args):
    records = load_dataset(args.data)
    rows = run_compare(records, _load_config_file(args.config), args.seed)
    print(format_report_table(rows))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pointer-gpt",
        description="Train and evaluate a pointer-augmented GPT summarizer.")
    sub = parser.add_subparsers(dest="command", required=True)

    data = argparse.ArgumentParser(add_help=False)  # shared flag groups
    data.add_argument("--data", required=True, help="JSONL dataset path")
    run = argparse.ArgumentParser(add_help=False)
    run.add_argument("--config", help="JSON config file")
    run.add_argument("--seed", type=int, default=0)
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True, help="train --out directory")
    model.add_argument("--beam", type=int, default=DecodeConfig.beam_width)
    model.add_argument("--max-len", type=int,
                       default=DecodeConfig.max_summary_len)

    p = sub.add_parser("train", parents=[data, run],
                       help="train a model and write artifacts")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--baseline", action="store_true",
                   help="GPT: vocabulary softmax only, no pointer")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("summarize", parents=[model],
                       help="summarize one document")
    p.add_argument("--input", required=True, help="text file or - for stdin")
    p.set_defaults(func=cmd_summarize)

    # model first: a usage error names the missing --model before --data
    p = sub.add_parser("evaluate", parents=[model, data],
                       help="ROUGE report over a dataset")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("compare", parents=[data, run],
                       help="baseline vs pointer on an 80/20 split")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # no numpy warnings: one error line
            args.func(args)
    except (ValueError, OSError) as e:
        print("error: %s" % e, file=sys.stderr)
        return 1
    except MemoryError as e:  # a model within MAX_PARAMS may still not fit
        print("error: out of memory: %s" % e, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
