"""Workload inputs, set-up, closed loops and output checks for bench/run.py.

Every input comes from ``data.synthetic_copy_task`` and a workload seed;
the program only ever sees the generated records. Each loop is closed: the
next training call or document starts when the previous one returns.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
import statistics
import time

import numpy as np

from pointer_gpt import (checkpoint, data, decoder, model, rouge, tokenizer,
                         trainer)
from pointer_gpt.tokenizer import EOS

# the acceptance-test model (criterion 7), trained with Adam at batch 8
MODEL = dict(d_model=64, n_heads=2, n_layers=2, d_ff=128, max_seq_len=64)
BATCH = 8

# In-vocab clauses made of the copy task's template words only: they
# lengthen a source without adding a word that copy_task_vocab_size()
# would have to keep out of the vocabulary.
FILLERS = ("exam shows stable vitals .", "plan follow up in clinic .",
           "patient reports stable vitals .",
           "exam shows follow up in clinic .")

# One train-copy call: 64 records of mixed length (T ~ 30-50) for 3
# epochs, 24 optimizer steps. Short calls give many latency samples.
TRAIN_RECORDS, TRAIN_EPOCHS = 64, 3
# The model the summarize workloads decode with: the same recipe on a seed
# of its own, trained long enough that greedy decoding copies every marker.
# Its seed is fixed, so how long beams run does not vary with the workload
# seed; only the documents do.
FIXTURE_RECORDS, FIXTURE_EPOCHS, FIXTURE_SEED = 160, 12, 1

WORKLOADS = {
    "train-copy": None,
    # short held-out documents (source ~22 tokens), `evaluate` defaults
    "summarize-greedy": dict(fillers=0, beam=1, max_len=32,
                             quality_docs=100),
    # long sources (~40 tokens) where beam search re-runs the most prefix
    "summarize-beam4-long": dict(fillers=3, beam=4, max_len=16,
                                 quality_docs=32),
}

ROUGE1_FLOOR = 0.9    # a model that never copies scores ~0.73 at best
SET_DOCS = 25         # documents per rouge_report call inside the loop
DOC_CHUNK = 250       # documents generated per synthetic_copy_task call

FIXTURE_TAG, DOCS_TAG, WARMUP_TAG, FILLER_TAG = 2, 3, 4, 5


def subseed(seed, *tags):
    """A reproducible seed for one purpose of one workload seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def copy_records(n, seed, fillers=None):
    """n copy-task records; fillers=None cycles 0-3 filler clauses."""
    rng = np.random.default_rng(subseed(seed, FILLER_TAG))
    records = []
    for i, rec in enumerate(data.synthetic_copy_task(n, seed=seed)):
        count = i % 4 if fillers is None else fillers
        clauses = [FILLERS[j] for j in rng.integers(len(FILLERS), size=count)]
        records.append(data.DatasetRecord(" ".join([rec.source] + clauses),
                                          rec.summary))
    return records


def doc_stream(seed, fillers):
    """Endless, distinct held-out documents for one workload seed."""
    for chunk in itertools.count():
        yield from copy_records(DOC_CHUNK, subseed(seed, DOCS_TAG, chunk),
                                fillers)


def params_sha256(params):
    h = hashlib.sha256()
    for name, tensor in params.items():
        h.update(name.encode("utf-8"))
        h.update(np.ascontiguousarray(tensor.data, dtype="<f4").tobytes())
    return h.hexdigest()


def text_sha256(texts):
    return hashlib.sha256("\n".join(texts).encode("utf-8")).hexdigest()


def new_result():
    return {"item_ms": [], "busy_s": 0.0, "tokens": 0, "attempted": 0,
            "failed": 0, "problems": []}


def _note(res, message):
    if len(res["problems"]) < 5:
        res["problems"].append(message)


# --- training ----------------------------------------------------------------

def build_training(seed, n_records):
    """What a training run pays before its first step: corpus, vocabulary
    and encoded examples."""
    records = copy_records(n_records, seed)
    texts = [r.source for r in records] + [r.summary for r in records]
    vocab = tokenizer.build_vocab(texts,
                                  max_size=data.copy_task_vocab_size())
    examples = [tokenizer.encode_example(r.source, r.summary, vocab)
                for r in records]
    mcfg = model.ModelConfig(vocab_size=vocab.size, seed=seed, **MODEL)
    return vocab, mcfg, examples


def train_config(seed, epochs):
    return trainer.TrainConfig(epochs=epochs, batch_size=BATCH, seed=seed)


def run_training(setup, seconds, tracer=None, between=None):
    """Fresh-init `trainer.train` calls until `seconds` have passed.

    Every call starts from the same seed, so all calls must agree exactly.
    `between()`, if given, runs after each call, outside its timing.
    """
    _vocab, mcfg, examples = setup
    tcfg = train_config(mcfg.seed, TRAIN_EPOCHS)
    steps = tcfg.epochs * math.ceil(len(examples) / BATCH)
    tokens = tcfg.epochs * sum(len(ex.source_ids) + len(ex.target_ext_ids)
                               for ex in examples)
    res = new_result()
    res.update(losses=None, params_sha256=None)
    start = time.perf_counter()
    while res["attempted"] == 0 or time.perf_counter() - start < seconds:
        params = model.init_params(mcfg)
        res["attempted"] += steps
        t0 = time.perf_counter()
        try:
            report = trainer.train(params, examples, tcfg, mcfg)
        except Exception as e:  # counted as failed steps; the loop goes on
            res["failed"] += steps
            _note(res, "train call failed: %r" % e)
            continue
        elapsed = time.perf_counter() - t0
        res["item_ms"].append(elapsed * 1e3 / steps)
        res["busy_s"] += elapsed
        res["tokens"] += tokens
        if between is not None:
            between()
        digest = params_sha256(params)
        if res["losses"] is None:
            res["losses"], res["params_sha256"] = list(report.losses), digest
        elif report.losses != res["losses"] or digest != res["params_sha256"]:
            _note(res, "train call %d differs from the first call"
                  % len(res["item_ms"]))
    if res["losses"] is not None:
        res["problems"] += loss_problems(res["losses"], steps, tcfg.epochs)
    return res


def loss_problems(losses, steps, epochs):
    """Every loss finite; the last epoch's mean below the first epoch's."""
    if len(losses) != steps:
        return ["%d losses for %d steps" % (len(losses), steps)]
    if not all(math.isfinite(x) for x in losses):
        return ["non-finite training loss"]
    per_epoch = steps // epochs
    first = statistics.fmean(losses[:per_epoch])
    final = statistics.fmean(losses[-per_epoch:])
    if not final < first:
        return ["final-epoch loss %.6f is not below first-epoch loss %.6f"
                % (final, first)]
    return []


def final_loss(losses, epochs):
    return statistics.fmean(losses[-(len(losses) // epochs):])


def warm_up_training(seed):
    """Two steps on throwaway data and parameters."""
    vocab, mcfg, examples = build_training(subseed(seed, WARMUP_TAG), 16)
    trainer.train(model.init_params(mcfg), examples,
                  train_config(mcfg.seed, 1), mcfg)


def vocab_problems(vocab):
    """The vocabulary holds every template word and no marker."""
    problems = []
    if vocab.size != data.copy_task_vocab_size():
        problems.append("vocabulary size %d, expected %d"
                        % (vocab.size, data.copy_task_vocab_size()))
    leaked = [m for m in data.marker_pool() if m in vocab]
    if leaked:
        problems.append("markers in vocabulary: %s" % leaked[:5])
    return problems


# --- summarization -------------------------------------------------------

def train_fixture():
    """(vocab, config, params, problems) of the model the summarize
    workloads decode with; problems lists its failed training checks."""
    fseed = subseed(FIXTURE_SEED, FIXTURE_TAG)
    vocab, mcfg, examples = build_training(fseed, FIXTURE_RECORDS)
    params = model.init_params(mcfg)
    report = trainer.train(params, examples,
                           train_config(fseed, FIXTURE_EPOCHS), mcfg)
    steps = FIXTURE_EPOCHS * math.ceil(FIXTURE_RECORDS / BATCH)
    problems = loss_problems(report.losses, steps, FIXTURE_EPOCHS)
    return vocab, mcfg, params, problems + vocab_problems(vocab)


def load_for_summarize(fixture, workdir, docs_path):
    """What `pointer-gpt train` + `evaluate` pay around the model before the
    first document: write and read back checkpoint, vocabulary, dataset."""
    vocab, mcfg, params, _problems = fixture
    ckpt = os.path.join(workdir, "model.ckpt")
    vocab_path = os.path.join(workdir, "vocab.txt")
    checkpoint.save_checkpoint(params, mcfg, ckpt)
    vocab.save(vocab_path)
    loaded, loaded_cfg = checkpoint.load_checkpoint(ckpt)
    return (loaded, loaded_cfg, tokenizer.Vocabulary.load(vocab_path),
            data.load_dataset(docs_path))


def summarize_one(setup, spec, source):
    """encode_source -> greedy/beam decode -> extended ids and text."""
    params, mcfg, vocab, _records = setup
    dcfg = decoder.DecodeConfig(max_summary_len=spec["max_len"],
                                beam_width=spec["beam"])
    ids, ext_ids, oov = tokenizer.encode_source(source, vocab)
    if spec["beam"] == 1:
        out = decoder.greedy_decode(params, ids, ext_ids, len(oov), mcfg,
                                    dcfg)
    else:
        out = decoder.beam_decode(params, ids, ext_ids, len(oov), mcfg,
                                  dcfg).ids
    return out, tokenizer.decode(out, vocab, oov), vocab.size + len(oov)


def run_summarize(setup, spec, docs, seconds, tracer=None, between=None):
    """One document at a time until `seconds` have passed and at least the
    quality set is done; rouge_report over every SET_DOCS documents.
    `between()`, if given, runs after each document, outside its timing."""
    res = new_result()
    res.update(summaries=[], references=[])
    cands, refs = [], []
    start = time.perf_counter()
    for index, rec in enumerate(docs):
        if (index >= spec["quality_docs"]
                and time.perf_counter() - start >= seconds):
            break
        if tracer is not None:
            tracer.item = index
        res["attempted"] += 1
        t0 = time.perf_counter()
        try:
            out, text, limit = summarize_one(setup, spec, rec.source)
        except Exception as e:  # counted as a failed document
            res["failed"] += 1
            res["summaries"].append(None)
            res["references"].append(rec.summary)
            _note(res, "document %d failed: %r" % (index, e))
            continue
        elapsed = time.perf_counter() - t0
        if between is not None:
            between()
        out = [i for i in out if i != EOS]
        if not all(0 <= i < limit for i in out):
            res["failed"] += 1
            _note(res, "document %d: id outside [0, %d)" % (index, limit))
        res["item_ms"].append(elapsed * 1e3)
        res["busy_s"] += elapsed
        res["tokens"] += len(out)
        res["summaries"].append(text)
        res["references"].append(rec.summary)
        cands.append(text)
        refs.append(rec.summary)
        if len(cands) == SET_DOCS:
            t0 = time.perf_counter()
            rouge.rouge_report(cands, refs)
            res["busy_s"] += time.perf_counter() - t0
            cands, refs = [], []
    return res


def quality(res, spec):
    """(rouge1_f, rouge2_f, summaries digest) over the fixed quality set."""
    q = spec["quality_docs"]
    cands, refs = res["summaries"][:q], res["references"][:q]
    if len(cands) < q or None in cands:
        return None, None, None
    report = rouge.rouge_report(cands, refs)
    return report[1].f_measure, report[2].f_measure, text_sha256(cands)


def warm_up_summarize(setup, spec, seed):
    """Three throwaway documents from a stream of their own."""
    docs = doc_stream(subseed(seed, WARMUP_TAG), spec["fillers"])
    for rec in itertools.islice(docs, 3):
        summarize_one(setup, spec, rec.source)
