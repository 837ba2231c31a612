"""pointer-gpt benchmark: one workload, one seed, one closed-loop run.

    python3 bench/run.py --workload train-copy --seed 0 --seconds 25 --trace 0

--trace 0 measures unmodified code for --seconds and prints the end-to-end
metrics. --trace 1 measures half the time untraced, then half with span
wrappers installed (removed again afterwards), and prints the per-layer
metrics and the tracing overhead (traced minus untraced, per end-to-end
metric). Lines starting with "# bench" carry the environment, the named
report, the output digests and any failed check; the last line of stdout
is the JSON result. The exit code is 1 when an output check fails.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
TRACED_SETUP_REPS = 3
SETUP_INTERVAL_S = 1.0
P90_MIN_SAMPLES = 100  # ten samples beyond the 90th percentile


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   help="train-copy, summarize-greedy or summarize-beam4-long")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def git_commit():
    """HEAD of the checkout read from .git, or "unknown" outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_setup(prepare, reps):
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        state = prepare()
        times.append(time.perf_counter() - t0)
    return times, state


class SetupSampler:
    """Repeats the set-up about once a second between items of the loop.

    Machine speed drifts over seconds, so set-up timed only before the loop
    would see one machine state; sampled across the run, its median sees
    the same mix as the loop's.
    """

    def __init__(self, prepare, times):
        self.prepare = prepare
        self.times = times
        self.due = time.perf_counter() + SETUP_INTERVAL_S

    def __call__(self):
        if time.perf_counter() >= self.due:
            self.times += timed_setup(self.prepare, 1)[0]
            self.due = time.perf_counter() + SETUP_INTERVAL_S


def end_to_end(setup_times, res):
    """{name: (value, unit)} for the metrics every workload reports."""
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "tokens_per_s": (res["tokens"] / res["busy_s"] if res["busy_s"]
                         else 0.0, "tokens/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def named_report(wl, spec, setup_times, res, e2e):
    """The workload's named metrics, each with its unit and sample count."""
    def entry(value, unit, samples):
        return {"value": value, "unit": unit, "samples": samples}

    ms = res["item_ms"]
    p50 = statistics.median(ms) if ms else None
    p90 = (statistics.quantiles(ms, n=10)[-1]
           if len(ms) >= P90_MIN_SAMPLES else None)
    report = {
        "setup_s": entry(e2e["setup_s"][0], "s", len(setup_times)),
        "peak_rss_mb": entry(e2e["peak_rss_mb"][0], "MB", 1),
        "error_rate": entry(res["failed"] / res["attempted"], "ratio",
                            res["attempted"]),
    }
    tokens_per_s = e2e["tokens_per_s"][0]
    if spec is None:
        # one sample per trainer.train call: its mean optimizer-step time
        report["train_tokens_per_s"] = entry(tokens_per_s, "tokens/s",
                                             len(ms))
        report["train_step_ms_p50"] = entry(p50, "ms", len(ms))
        report["train_step_ms_p90"] = entry(p90, "ms", len(ms))
        losses = res["losses"] or [float("nan")]
        report["train_final_loss"] = entry(
            wl.final_loss(losses, wl.TRAIN_EPOCHS), "nats",
            len(losses) // wl.TRAIN_EPOCHS)
    else:
        rouge1, rouge2, _digest = wl.quality(res, spec)
        report["doc_ms_p50"] = entry(p50, "ms", len(ms))
        report["doc_ms_p90"] = entry(p90, "ms", len(ms))
        report["decode_tokens_per_s"] = entry(tokens_per_s, "tokens/s",
                                              len(ms))
        report["rouge1_f"] = entry(rouge1, "F", spec["quality_docs"])
        report["rouge2_f"] = entry(rouge2, "F", spec["quality_docs"])
    return report


def measure(args, wl, spans, layers, workdir):
    """Run the workload; returns (metrics, report, digests, counts, problems)."""
    from pointer_gpt import data

    spec = wl.WORKLOADS[args.workload]
    problems = []
    digests = {}
    if spec is None:
        def prepare():
            return wl.build_training(args.seed, wl.TRAIN_RECORDS)
        setup_times, state = timed_setup(prepare, 1)
        problems += wl.vocab_problems(state[0])
        wl.warm_up_training(args.seed)

        def loop(seconds, tracer=None, between=None):
            return wl.run_training(state, seconds, tracer, between)
    else:
        t0 = time.perf_counter()
        fixture = wl.train_fixture()
        fixture_s = time.perf_counter() - t0
        problems += ["summarize model: " + p for p in fixture[3]]
        quality_docs = list(itertools.islice(
            wl.doc_stream(args.seed, spec["fillers"]), spec["quality_docs"]))
        docs_path = os.path.join(workdir, "docs.jsonl")
        data.save_dataset(quality_docs, docs_path)

        def prepare():
            return wl.load_for_summarize(fixture, workdir, docs_path)
        setup_times, state = timed_setup(prepare, 1)
        if wl.params_sha256(state[0]) != wl.params_sha256(fixture[2]):
            problems.append("checkpoint round trip changed the parameters")
        if state[3] != quality_docs:
            problems.append("load_dataset did not return the saved records")
        wl.warm_up_summarize(state, spec, args.seed)

        def loop(seconds, tracer=None, between=None):
            docs = wl.doc_stream(args.seed, spec["fillers"])
            return wl.run_summarize(state, spec, docs, seconds, tracer,
                                    between)

    seconds = args.seconds / 2 if args.trace else args.seconds
    res = loop(seconds, between=SetupSampler(prepare, setup_times))
    e2e = end_to_end(setup_times, res)
    report = named_report(wl, spec, setup_times, res, e2e)
    if spec is not None:
        report["fixture_train_s"] = {"value": fixture_s, "unit": "s",
                                     "samples": 1}
    problems += res["problems"]
    if spec is None:
        digests["params_sha256"] = res["params_sha256"]
        digests["train_final_loss"] = report["train_final_loss"]["value"]
    else:
        digests["params_sha256"] = wl.params_sha256(state[0])
        rouge1, rouge2, digests["summaries_sha256"] = wl.quality(res, spec)
        digests["rouge1_f"], digests["rouge2_f"] = rouge1, rouge2
        if rouge1 is None:
            problems.append("the quality set was not fully summarized")
        elif rouge1 < wl.ROUGE1_FLOOR:
            problems.append("rouge1_f %.4f below the copy floor %.2f"
                            % (rouge1, wl.ROUGE1_FLOOR))
    counts = [res["attempted"], res["failed"]]
    if not args.trace:
        return e2e, report, digests, counts, problems

    setup_tracer, loop_tracer = spans.Tracer(), spans.Tracer()
    setup_tracer.install()
    try:
        traced_setup_times, _ = timed_setup(prepare, TRACED_SETUP_REPS)
    finally:
        setup_tracer.uninstall()
    loop_tracer.install()
    try:
        traced = loop(seconds, loop_tracer)
    finally:
        loop_tracer.uninstall()
    problems += ["traced: " + p for p in traced["problems"]]
    if spec is None:
        same = (traced["losses"] == res["losses"]
                and traced["params_sha256"] == res["params_sha256"])
    else:
        common = min(len(traced["summaries"]), len(res["summaries"]))
        same = traced["summaries"][:common] == res["summaries"][:common]
    if not same:
        problems.append("traced outputs differ from untraced outputs")
    counts = [counts[0] + traced["attempted"], counts[1] + traced["failed"]]

    metrics = layers.layer_metrics(loop_tracer, setup_tracer,
                                   traced["attempted"])
    traced_e2e = end_to_end(traced_setup_times, traced)
    for name, (value, unit) in e2e.items():
        metrics["trace.overhead." + name] = (traced_e2e[name][0] - value, unit)
    metrics["trace.items"] = (traced["attempted"], "count")
    spans_path = OUT / ("spans-%s.npz" % args.workload)
    loop_tracer.dump(spans_path)
    digests["spans"] = str(spans_path.relative_to(ROOT))
    return metrics, report, digests, counts, problems


def main(argv=None):
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the run's temporary directory
    # is removed too
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for var in THREAD_VARS:
        os.environ[var] = "1"  # before numpy loads its BLAS
    if not (SRC / "pointer_gpt" / "__init__.py").is_file():
        print("error: pointer_gpt sources not found at src/pointer_gpt "
              "beside bench/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import layers
    import pointer_gpt
    import spans
    import workloads as wl

    if Path(pointer_gpt.__file__).resolve().parent != SRC / "pointer_gpt":
        print("error: imported pointer_gpt from %s, not from this checkout"
              % pointer_gpt.__file__, file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print("error: unknown workload %r; choose from %s"
              % (args.workload, ", ".join(wl.WORKLOADS)), file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        metrics, report, digests, (attempted, failed), problems = measure(
            args, wl, spans, layers, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace,
           "python": platform.python_version(), "numpy": np.__version__,
           "blas_threads": {var: os.environ.get(var) for var in THREAD_VARS},
           "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
           "machine": platform.machine(), "git_commit": git_commit()}
    print("# bench env " + json.dumps(env))
    print("# bench report " + json.dumps(report))
    print("# bench digests " + json.dumps(digests))
    for problem in problems:
        print("# bench CHECK FAILED: " + problem)
        print("check failed: " + problem, file=sys.stderr)
    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
