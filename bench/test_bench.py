"""Tests of the benchmark itself: python3 -m pytest bench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import spans  # noqa: E402

WORKLOADS = ("train-copy", "summarize-greedy", "summarize-beam4-long")
_RUNS = {}


def bench(workload, trace, cwd=ROOT, seed=3):
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=300, check=False)


def smoke(workload, trace):
    """One tiny run per (workload, trace), shared by the tests below."""
    if (workload, trace) not in _RUNS:
        _RUNS[workload, trace] = bench(workload, trace)
    return _RUNS[workload, trace]


def tagged(stdout, tag):
    prefix = "# bench %s " % tag
    line = next(l for l in stdout.splitlines() if l.startswith(prefix))
    return json.loads(line[len(prefix):])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_named_metric(workload, trace):
    proc = smoke(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in declared["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    report = tagged(proc.stdout, "report")
    assert {"setup_s", "peak_rss_mb", "error_rate"} <= set(report)
    assert all({"value", "unit", "samples"} == set(v)
               for v in report.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_digests(workload):
    # the untraced and the traced run of one seed must agree exactly
    first = tagged(smoke(workload, 0).stdout, "digests")
    second = tagged(smoke(workload, 1).stdout, "digests")
    keys = ["params_sha256"] + (["train_final_loss"]
                                if workload == "train-copy"
                                else ["summaries_sha256", "rouge1_f",
                                      "rouge2_f"])
    for key in keys:
        assert first[key] is not None
        assert first[key] == second[key], key


def test_wrappers_are_installed_and_restored():
    import pointer_gpt
    from pointer_gpt import decoder, model, ops, tensor, trainer

    modules = [m for name, m in sys.modules.items()
               if name == "pointer_gpt" or name.startswith("pointer_gpt.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ops.matmul is not before["pointer_gpt.ops", "matmul"]
        assert ops.make_output is not before["pointer_gpt.ops", "make_output"]
        assert trainer.backward is not before["pointer_gpt.trainer",
                                              "backward"]
        assert decoder.forward_hidden is not before["pointer_gpt.decoder",
                                                    "forward_hidden"]
        assert decoder.make_step_fn is not before["pointer_gpt.decoder",
                                                  "make_step_fn"]
        assert pointer_gpt.train is not before["pointer_gpt", "train"]
        a = tensor.Tensor([[1.0, 2.0]], requires_grad=True)
        with tensor.Tape() as tape:
            loss = ops.mean_all(ops.matmul(a, ops.transpose(a)))
        tensor.backward(tape, loss)
        model.ModelConfig(vocab_size=10)
    finally:
        tracer.uninstall()
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    totals = tracer.totals()
    assert totals["ops.matmul.fwd"][0] == 1
    assert totals["ops.matmul.bwd"][0] == 1
    assert totals["tensor.backward"][0] == 1


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    totals = tracer.totals()
    calls, total, own = totals["outer"]
    assert calls == 1 and totals["inner"][0] == 3
    assert own == pytest.approx(total - totals["inner"][1], abs=1e-9)
    assert totals["inner"][1] == pytest.approx(totals["inner"][2])


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("train-copy", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
