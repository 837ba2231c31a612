"""Per-layer metrics derived from the spans of a traced run.

Loop metrics are given per item: per optimizer step on train-copy, per
document on the summarize workloads. Set-up metrics (build_vocab, save,
load, load_dataset) are given per call. A layer a workload never calls
reads 0.
"""

from __future__ import annotations

from spans import OPS


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(loop, setup, items):
    """{name: (value, unit)} from the loop and set-up tracers."""
    totals = loop.totals()
    setup_totals = setup.totals()

    def calls(name):
        return totals.get(name, (0, 0.0, 0.0))[0]

    def ms(name):
        return totals.get(name, (0, 0.0, 0.0))[1] * 1e3

    def self_ms(name):
        return totals.get(name, (0, 0.0, 0.0))[2] * 1e3

    def per_item(value):
        return _ratio(value, items)

    def setup_ms_per_call(name):
        n, total, _own = setup_totals.get(name, (0, 0.0, 0.0))
        return _ratio(total * 1e3, n)

    m = {}
    for kind in OPS:
        m["ops.%s.calls" % kind] = per_item(calls("ops.%s.fwd" % kind)), "count"
        m["ops.%s.fwd_ms" % kind] = per_item(ms("ops.%s.fwd" % kind)), "ms"
        m["ops.%s.bwd_ms" % kind] = per_item(ms("ops.%s.bwd" % kind)), "ms"

    examples = calls("model.sequence_loss")
    m["tensor.backward_ms"] = per_item(ms("tensor.backward")), "ms"
    m["tensor.backward_self_ms"] = per_item(self_ms("tensor.backward")), "ms"
    m["tensor.tape_records_per_example"] = (
        _ratio(loop.counts["tensor.tape_records"], examples), "count")

    forwards = calls("model.forward_hidden")
    m["model.sequence_loss_ms"] = per_item(ms("model.sequence_loss")), "ms"
    m["model.forward_hidden_ms"] = per_item(ms("model.forward_hidden")), "ms"
    m["model.forward_hidden_calls_per_doc"] = per_item(forwards), "count"
    m["model.rows_per_forward"] = (
        _ratio(loop.counts["model.rows"], forwards), "count")
    m["model.pointer_step_ms"] = per_item(ms("model.pointer_step")), "ms"

    m["optim.clip_grad_norm_ms"] = per_item(ms("optim.clip_grad_norm")), "ms"
    m["optim.adam_step_ms"] = per_item(ms("optim.adam_step")), "ms"
    m["trainer.self_ms"] = per_item(self_ms("trainer.train")), "ms"

    # one new position per decoder step; the rest re-runs the prefix
    steps = calls("decoder.step")
    m["decoder.step_calls_per_doc"] = per_item(steps), "count"
    m["decoder.step_ms"] = _ratio(ms("decoder.step"), steps), "ms"
    m["decoder.useful_row_ratio"] = (
        _ratio(steps, loop.counts["model.rows"]), "ratio")
    m["decoder.search_self_ms_per_doc"] = per_item(
        self_ms("decoder.greedy_decode") + self_ms("decoder.beam_decode")), "ms"

    m["tokenizer.encode_ms_per_doc"] = (
        per_item(ms("tokenizer.encode_source")), "ms")
    m["tokenizer.decode_ms_per_doc"] = per_item(ms("tokenizer.decode")), "ms"
    m["tokenizer.build_vocab_ms"] = (
        setup_ms_per_call("tokenizer.build_vocab"), "ms")
    m["rouge.rouge_report_ms"] = per_item(ms("rouge.rouge_report")), "ms"
    m["checkpoint.save_ms"] = (
        setup_ms_per_call("checkpoint.save_checkpoint"), "ms")
    m["checkpoint.load_ms"] = (
        setup_ms_per_call("checkpoint.load_checkpoint"), "ms")
    m["data.load_dataset_ms"] = setup_ms_per_call("data.load_dataset"), "ms"
    return m
