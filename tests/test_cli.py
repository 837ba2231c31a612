"""Dataset I/O, checkpoint format, and command-line behavior."""

import argparse
import ast
import dataclasses
import hashlib
import json
import os
import re
import shutil
import stat
import struct
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from pointer_gpt import checkpoint, cli
from pointer_gpt.checkpoint import (MAGIC, VERSION, CheckpointError,
                                    load_checkpoint, save_checkpoint)
from pointer_gpt.cli import CONFIG_SECTIONS, main, run_compare
from pointer_gpt.data import (DatasetError, DatasetRecord, load_dataset,
                              marker_pool, save_dataset, split_by_index,
                              synthetic_copy_task)
from pointer_gpt.model import (ModelConfig, init_params, param_specs,
                               sequence_loss)
from pointer_gpt.tensor import Tensor
from pointer_gpt.decoder import DecodeConfig, beam_decode
from pointer_gpt.tokenizer import (Vocabulary, decode, encode_example,
                                   encode_source)

ROOT = Path(__file__).resolve().parents[1]

SMALL_CONFIG = {
    "vocab": {"max_size": 60},
    "model": {"d_model": 16, "n_heads": 2, "n_layers": 1, "d_ff": 32,
              "max_seq_len": 48},
    "train": {"epochs": 2, "batch_size": 2},
}

RECORDS = [
    DatasetRecord("patient reports mild cough and fever today .",
                  "mild cough and fever ."),
    DatasetRecord("exam shows stable vitals and clear lungs .",
                  "stable vitals ."),
    DatasetRecord("patient reports chronic back pain since friday .",
                  "chronic back pain ."),
    DatasetRecord("exam shows swelling of the left ankle .",
                  "left ankle swelling ."),
]


@pytest.fixture
def data_path(tmp_path):
    path = tmp_path / "data.jsonl"
    save_dataset(RECORDS, str(path))
    return str(path)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    return str(path)


class TestLoadDataset:
    def test_round_trip(self, data_path):
        records = load_dataset(data_path)
        assert records == RECORDS

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"source": "a b", "summary": "a"}\n\n\n')
        assert len(load_dataset(str(path))) == 1

    def test_invalid_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"source": "a", "summary": "b"}\n{oops\n')
        with pytest.raises(DatasetError, match="line 2"):
            load_dataset(str(path))

    def test_missing_field_named(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"source": "a b"}\n')
        with pytest.raises(DatasetError, match='"summary"'):
            load_dataset(str(path))

    def test_non_string_field(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"source": 3, "summary": "a"}\n')
        with pytest.raises(DatasetError, match='"source"'):
            load_dataset(str(path))

    def test_empty_after_tokenization(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"source": "   ", "summary": "a"}\n')
        with pytest.raises(DatasetError, match="empty"):
            load_dataset(str(path))


class TestSplit:
    def test_eighty_twenty(self):
        train, held = split_by_index(list(range(10)))
        assert train == list(range(8)) and held == [8, 9]


class TestCopyTask:
    def test_marker_pool_words_are_distinct(self):
        pool = marker_pool()
        assert len(pool) == 60 and len(set(pool)) == 60


def tiny_model():
    cfg = ModelConfig(vocab_size=12, d_model=16, n_heads=2, n_layers=1,
                      d_ff=32, max_seq_len=16, seed=5)
    return init_params(cfg), cfg


# one replacement per example: ints (10**9 among them), floats, booleans,
# strings, null, lists and objects
POOL = [0, 1, 8, -4, 10 ** 9, 0.5, 1.0, 8.0, float("nan"), True, False, "",
        "tok_emb", None, [], [8, 8], {}, {"name": "tok_emb"}]
CONFIG_KEYS = st.sampled_from([f.name
                               for f in dataclasses.fields(ModelConfig)])

# `train` inputs for the property test: a tiny model, edited by up to two
# config entries, on a good record and up to two more dataset lines
TINY_TRAIN = {"model": {"d_model": 8, "n_heads": 2, "n_layers": 1,
                        "d_ff": 8, "max_seq_len": 16},
              "train": {"epochs": 1}}
# wrong types, NaN and inf, out-of-range numbers; no dimension above 64
TRAIN_CONFIG_VALUES = [-1, 0, 1, 3, 64, -0.5, 0.5, 1.0, 1.5, 1e308,
                       float("nan"), float("inf"), float("-inf"), True, "",
                       "8", None, [], {}]
TRAIN_CONFIG_EDITS = st.lists(st.tuples(
    st.sampled_from([(name, key)  # key None replaces the whole section
                     for name, (defaults, _) in CONFIG_SECTIONS.items()
                     for key in [*defaults, "bogus", None]]
                    # unknown sections, among them the removed decode
                    + [("bogus", "d_model"), ("decode", "beam_width"),
                       ("decode", None)]),
    st.sampled_from(TRAIN_CONFIG_VALUES)), max_size=2)
GOOD_LINE = b'{"source": "a b c d", "summary": "b c"}'
DATA_LINES = st.one_of(  # half of the extra lines are good records
    st.sampled_from([GOOD_LINE, b'{"source": "c d e", "summary": "e"}']),
    st.sampled_from([
        b"", b"[1, 2]", b"3", b'"a b"', b"null", b"{",  # not an object
        b'{"source": 3, "summary": "a"}', b'{"source": "a"}',  # wrong fields
        b'{"source": "a", "summary": ["a"]}',
        b'{"source": "", "summary": "a"}', b'{"source": "a", "summary": " "}',
        b'{"source": "\xc3(", "summary": "a"}', b"\xff\xfe"]))  # bad UTF-8

class TestCheckpoint:
    def test_round_trip_bit_identical(self, tmp_path):
        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        loaded, loaded_cfg = load_checkpoint(path)
        assert loaded_cfg == cfg
        assert list(loaded) == list(params)
        for name in params:
            assert np.array_equal(loaded[name].data, params[name].data)

    def test_save_load_save_identical_bytes(self, tmp_path):
        params, cfg = tiny_model()
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(params, cfg, a)
        loaded, loaded_cfg = load_checkpoint(a)
        save_checkpoint(loaded, loaded_cfg, b)
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_loss_bitwise_identical_after_reload(self, tmp_path):
        params, cfg = tiny_model()
        ex = encode_example("a b c", "b c",
                            Vocabulary(["a", "b", "c", "d", "e", "f", "g"]))
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        loaded, _ = load_checkpoint(path)
        before = sequence_loss(params, [ex], cfg).data
        after = sequence_loss(loaded, [ex], cfg).data
        assert np.array_equal(before, after)

    @pytest.mark.parametrize("umask, mode", [
        (0o022, 0o644), (0o077, 0o600), (0o002, 0o664)],
        ids=["022", "077", "002"])
    def test_file_gets_the_mode_open_gives(self, tmp_path, umask, mode):
        # open() gives 0666 less the umask; a fixed 0600, as tempfile's
        # mkstemp gives, would pass only the 077 case
        params, cfg = tiny_model()
        old = os.umask(umask)
        try:
            save_checkpoint(params, cfg, str(tmp_path / "m.ckpt"))
            (tmp_path / "other").open("w").close()
        finally:
            os.umask(old)
        modes = [stat.S_IMODE(os.stat(tmp_path / name).st_mode)
                 for name in ("m.ckpt", "other")]
        assert modes == [mode, mode]

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        params, cfg = tiny_model()
        (tmp_path / "m.ckpt").mkdir()
        with pytest.raises(IsADirectoryError):
            save_checkpoint(params, cfg, str(tmp_path / "m.ckpt"))
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        assert not any((tmp_path / "m.ckpt").iterdir())

    def test_failed_write_keeps_the_old_checkpoint(self, tmp_path,
                                                   monkeypatch):
        params, cfg = tiny_model()
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, str(path))
        before = path.read_bytes()
        calls, real = [], np.ascontiguousarray

        def third_call_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            return real(*args, **kwargs)

        monkeypatch.setattr(np, "ascontiguousarray", third_call_fails)
        changed = {name: Tensor(t.data + 1.0) for name, t in params.items()}
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(changed, cfg, str(path))
        assert len(calls) == 3
        assert [p.name for p in tmp_path.iterdir()] == ["m.ckpt"]
        assert path.read_bytes() == before

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "m.ckpt"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        # the message, not the path: pytest names the directory after the test
        with pytest.raises(CheckpointError, match="is not a checkpoint"):
            load_checkpoint(str(path))

    def test_truncated_payload(self, tmp_path):
        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:-10])
        total = sum(4 * p.data.size for p in params.values())
        with pytest.raises(CheckpointError, match="payload has %d bytes, "
                           "expected %d" % (total - 10, total)):
            load_checkpoint(path)

    @pytest.mark.parametrize("mismatch", ["sorted-names", "other-vocab_size"])
    def test_save_rejects_params_that_do_not_match_the_config(
            self, tmp_path, mismatch):
        # either file used to save fine and then fail to load
        params, cfg = tiny_model()
        if mismatch == "sorted-names":
            params = dict(sorted(params.items()))
        else:
            params = init_params(dataclasses.replace(cfg, vocab_size=13))
        with pytest.raises(CheckpointError, match="params do not match the "
                           "config: entry 0 is "):
            save_checkpoint(params, cfg, str(tmp_path / "m.ckpt"))
        assert list(tmp_path.iterdir()) == []

    def test_unsupported_version(self, tmp_path):
        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = struct.pack("<I", VERSION + 1)
        open(path, "wb").write(bytes(blob))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def _rewrite(self, path, payload_suffix=b"", config=None):
        """Re-save the checkpoint at path with the config entries in
        `config` replaced and `payload_suffix` appended."""
        blob = open(path, "rb").read()
        (header_len,) = struct.unpack_from("<I", blob, 8)
        header = json.loads(blob[12:12 + header_len])
        header["config"].update(config or {})
        raw = json.dumps(header).encode("utf-8")
        open(path, "wb").write(blob[:8] + struct.pack("<I", len(raw)) + raw
                               + blob[12 + header_len:] + payload_suffix)

    def test_layer_count_is_bounded_by_the_header(self, tmp_path,
                                                  monkeypatch):
        # param_specs loops over n_layers: a header must not make it run
        def unbounded(config):
            raise AssertionError("param_specs ran for %d layers"
                                 % config.n_layers)

        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        self._rewrite(path, config={"n_layers": 10 ** 9})
        monkeypatch.setattr(checkpoint, "param_specs", unbounded)
        with pytest.raises(CheckpointError,
                           match="n_layers must be at most 64, "
                                 "got 1000000000"):
            load_checkpoint(path)

    def test_trailing_bytes(self, tmp_path):
        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        self._rewrite(path, payload_suffix=b"\x00" * 4)
        with pytest.raises(CheckpointError,
                           match="payload has 12744 bytes, expected 12740"):
            load_checkpoint(path)

    def _summarize(self, path, tmp_path, capsys):
        """Exit code and stderr of `summarize` with the checkpoint at path,
        moved into a model directory."""
        model = tmp_path / "model"
        model.mkdir(exist_ok=True)
        os.replace(path, model / "model.ckpt")
        Vocabulary(["a", "b", "c", "d", "e", "f", "g"]).save(
            str(model / "vocab.txt"))
        doc = tmp_path / "doc.txt"
        doc.write_text("a b c")
        code = main(["summarize", "--model", str(model), "--input", str(doc)])
        return code, capsys.readouterr().err

    def test_cli_reports_bad_checkpoint_in_one_line(self, tmp_path, capsys):
        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        self._rewrite(path, payload_suffix=b"\x00" * 4)
        code, err = self._summarize(path, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error: ")
        assert "payload has 12744 bytes, expected 12740" in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("config, message", [
        ({"n_heads": 2.0}, "n_heads must be an integer, got 2.0"),
        ({"vocab_size": 12.0}, "vocab_size must be an integer, got 12.0"),
        ({"baseline": "no"}, "baseline must be true or false, got 'no'"),
        ({"seed": -1}, "seed must be at least 0, got -1"),
    ], ids=["float-n_heads", "float-vocab_size", "string-baseline",
            "negative-seed"])
    def test_cli_reports_mistyped_header_config_in_one_line(
            self, tmp_path, capsys, config, message):
        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        self._rewrite(path, config=config)
        code, err = self._summarize(path, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert len(err.splitlines()) == 1

    def test_version_1_checkpoint_is_one_error_line(self, tmp_path, capsys):
        # version 1 headers held dropout_rate, which ModelConfig lacks now
        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        self._rewrite(path, config={"dropout_rate": 0.0})
        blob = bytearray(open(path, "rb").read())
        blob[4:8] = struct.pack("<I", 1)
        open(path, "wb").write(bytes(blob))
        code, err = self._summarize(path, tmp_path, capsys)
        assert code == 1
        assert err == ("error: checkpoint format version 1 is not supported "
                       "(expected %d)\n" % VERSION)

    @pytest.mark.parametrize("version", [2, 3])
    def test_version_2_or_3_checkpoint_is_one_error_line(self, tmp_path,
                                                         capsys, version):
        # version 2 headers held a manifest: each tensor's name, shape and
        # byte offset, all of which the config fixes. Version 3 headers held
        # the config alone, as now, but its payload held Q, K and V apart:
        # as many floats as w_qkv and b_qkv, in another order
        params, cfg = tiny_model()
        header = {"config": dataclasses.asdict(cfg)}
        if version == 2:
            header["manifest"], offset = [], 0
            for name, tensor in params.items():
                header["manifest"].append({"name": name, "offset": offset,
                                           "shape": list(tensor.shape)})
                offset += 4 * tensor.data.size
        header = json.dumps(header).encode("utf-8")
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", version, len(header))
                         + header
                         + b"".join(np.ascontiguousarray(t.data, dtype="<f4")
                                    .tobytes() for t in params.values()))
        code, err = self._summarize(str(path), tmp_path, capsys)
        assert code == 1
        assert err == ("error: checkpoint format version %d is not supported "
                       "(expected 4)\n" % version)

    def test_old_baseline_layout_is_one_error_line(self, tmp_path, capsys):
        # a baseline file from before ptr.w left the baseline holds the
        # pointer model's tensors but the gate: d_model ** 2 floats too many
        pointer, cfg = tiny_model()
        cfg = dataclasses.replace(cfg, baseline=True)
        tensors = [t for name, t in pointer.items()
                   if not name.startswith("gate.")]
        header = json.dumps({"config": dataclasses.asdict(cfg)}).encode()
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(header))
                         + header
                         + b"".join(np.ascontiguousarray(t.data, dtype="<f4")
                                    .tobytes() for t in tensors))
        code, err = self._summarize(str(path), tmp_path, capsys)
        total = 4 * sum(t.data.size for t in init_params(cfg).values())
        assert code == 1
        assert err == ("error: %s: payload has %d bytes, expected %d\n"
                       % (tmp_path / "model" / "model.ckpt",
                          total + 4 * cfg.d_model ** 2, total))

    # sha256 of the file save_checkpoint writes for LAYOUT_CFG's params
    LAYOUT_CFG = ModelConfig(vocab_size=6, d_model=4, n_heads=2, n_layers=1,
                             d_ff=8, max_seq_len=8)
    LAYOUT_SHA256 = {False: "18e462af82f827c019378fb720de6554"
                            "776bb271a255715caac89a2426915293",
                     True: "9588798d85db4e474562478dfa3bb00a"
                           "04b693cce45fdd9093bf8dda4148c22e"}

    @pytest.mark.parametrize("baseline", [False, True])
    def test_file_layout_is_pinned(self, tmp_path, baseline):
        # each tensor's values follow from its name alone, so a param_specs
        # change moves bytes even where every shape stays the same
        cfg = dataclasses.replace(self.LAYOUT_CFG, baseline=baseline)
        specs = param_specs(cfg)
        names = sorted(specs)
        params = {name: Tensor(1000 * names.index(name)
                               + np.arange(np.prod(shape)).reshape(shape),
                               dtype=np.float32)
                  for name, (shape, _) in specs.items()}
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, cfg, str(path))
        assert (hashlib.sha256(path.read_bytes()).hexdigest()
                == self.LAYOUT_SHA256[baseline]), (
            "the checkpoint bytes changed: files of the old layout would "
            "load wrongly, so bump checkpoint.VERSION and this digest "
            "together")
        loaded, loaded_cfg = load_checkpoint(str(path))
        assert loaded_cfg == cfg and list(loaded) == list(params)
        for name, tensor in params.items():
            assert loaded[name].data.tobytes() == tensor.data.tobytes()

    # the model both property tests run `summarize` on
    PROPERTY_CFG = ModelConfig(vocab_size=12, d_model=8, n_heads=2,
                               n_layers=1, d_ff=16, max_seq_len=16, seed=0)

    @settings(derandomize=True, deadline=None, max_examples=100,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(key=CONFIG_KEYS, value=st.sampled_from(POOL))
    @example(key="n_layers", value=10 ** 9)  # once ran away in param_specs
    def test_any_header_edit_works_or_fails_in_one_line(self, tmp_path,
                                                        capsys, key, value):
        cfg = self.PROPERTY_CFG
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(init_params(cfg), cfg, path)
        self._rewrite(path, config={key: value})
        code, err = self._summarize(path, tmp_path, capsys)
        assert code == 0 or (code == 1 and len(err.splitlines()) == 1
                             and err.startswith("error:")), err

    @settings(derandomize=True, deadline=None, max_examples=200,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(target=st.sampled_from(["ckpt", "vocab"]),
           # keep the first `at` bytes, or XOR the byte at `at` with `mask`;
           # `at` is taken modulo the file length
           at=st.integers(0, 2 ** 16), mask=st.integers(0, 255),
           beam=st.integers(1, 2), max_len=st.integers(1, 4))
    @example(target="ckpt", at=5, mask=0, beam=1, max_len=4)  # magic + 1
    @example(target="vocab", at=9, mask=0, beam=2, max_len=4)  # "<pad>\n<un"
    def test_any_truncated_or_flipped_file_works_or_fails_in_one_line(
            self, tmp_path, capsys, target, at, mask, beam, max_len):
        cfg = self.PROPERTY_CFG
        files = {"ckpt": tmp_path / "model.ckpt",
                 "vocab": tmp_path / "vocab.txt"}
        save_checkpoint(init_params(cfg), cfg, str(files["ckpt"]))
        Vocabulary(["a", "b", "c", "d", "e", "f", "g"]).save(
            str(files["vocab"]))
        blob = bytearray(files[target].read_bytes())
        at %= len(blob)
        if mask:
            blob[at] ^= mask
        else:
            del blob[at:]
        files[target].write_bytes(bytes(blob))
        doc = tmp_path / "doc.txt"
        doc.write_text("a b c")
        code = main(["summarize", "--model", str(tmp_path), "--input",
                     str(doc), "--beam", str(beam), "--max-len", str(max_len)])
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and len(err.splitlines()) == 1
                             and err.startswith("error:")), err

    def test_non_finite_weight(self, tmp_path, capsys):
        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        params["w_vocab"].data[3, 5] = np.nan
        save_checkpoint(params, cfg, path)
        with pytest.raises(CheckpointError, match="NaN or inf weight"):
            load_checkpoint(path)
        code, err = self._summarize(path, tmp_path, capsys)
        assert code == 1
        assert err.startswith("error: ") and "NaN or inf weight" in err
        assert len(err.splitlines()) == 1

    def test_vocab_size_below_the_special_tokens(self, tmp_path):
        # only ModelConfig stops it: param_specs would build shapes with -1
        # rows, which numpy takes as "the rest"
        _, cfg = tiny_model()
        header = json.dumps({"config": dict(dataclasses.asdict(cfg),
                                            vocab_size=-1)}).encode("utf-8")
        path = tmp_path / "m.ckpt"
        path.write_bytes(MAGIC + struct.pack("<II", VERSION, len(header))
                         + header)
        with pytest.raises(CheckpointError,
                           match="vocab_size must be at least 5, got -1"):
            load_checkpoint(str(path))

    def test_no_partial_file_on_success(self, tmp_path):
        params, cfg = tiny_model()
        path = str(tmp_path / "m.ckpt")
        save_checkpoint(params, cfg, path)
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
        assert open(path, "rb").read(4) == MAGIC


class TestCliTrain:
    def test_writes_artifacts(self, tmp_path, data_path, config_path):
        out = str(tmp_path / "run")
        code = main(["train", "--data", data_path, "--out", out,
                     "--config", config_path, "--seed", "0"])
        assert code == 0
        assert (tmp_path / "run" / "model.ckpt").exists()
        assert (tmp_path / "run" / "vocab.txt").exists()
        assert (tmp_path / "run" / "loss.log").exists()

    def test_baseline_flag_reaches_the_checkpoint_and_the_report(
            self, tmp_path, data_path, config_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", data_path, "--out", str(out),
                     "--config", config_path, "--baseline"]) == 0
        _, cfg = load_checkpoint(str(out / "model.ckpt"))
        assert cfg.baseline is True
        capsys.readouterr()
        assert main(["evaluate", "--model", str(out),
                     "--data", data_path]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[0] for row in rows] == ["GPT-baseline", "Rouge-2"]
        doc = tmp_path / "doc.txt"
        doc.write_text(RECORDS[0].source)
        assert main(["summarize", "--model", str(out),
                     "--input", str(doc)]) == 0

    def test_loss_log_holds_the_last_run_only(self, tmp_path, data_path,
                                              config_path):
        out = str(tmp_path / "run")
        for _ in range(2):
            assert main(["train", "--data", data_path, "--out", out,
                         "--config", config_path, "--seed", "0"]) == 0
        lines = (tmp_path / "run" / "loss.log").read_text().splitlines()
        # 4 records, batch 2, 2 epochs: 4 optimizer steps per run
        assert [int(line.split("\t")[0]) for line in lines] == [1, 2, 3, 4]

    def test_failed_run_leaves_no_artifacts_of_an_older_run(
            self, tmp_path, data_path, capsys):
        out = tmp_path / "run"
        config = tmp_path / "config.json"
        for lr, code in ((3e-4, 0), (1e39, 1)):
            config.write_text(json.dumps(
                dict(SMALL_CONFIG, train={"epochs": 1, "lr": lr})))
            assert main(["train", "--data", data_path, "--out", str(out),
                         "--config", str(config)]) == code
        assert capsys.readouterr().err.startswith("error: ")
        assert not (out / "model.ckpt").exists()
        assert not (out / "vocab.txt").exists()
        assert (out / "loss.log").exists()

    def test_same_seed_identical_checkpoints(self, tmp_path, data_path,
                                             config_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            main(["train", "--data", data_path, "--out", str(out),
                  "--config", config_path, "--seed", "7"])
            blobs.append((out / "model.ckpt").read_bytes())
        assert blobs[0] == blobs[1]

    def test_negative_seed_is_one_error_line(self, tmp_path, data_path,
                                             config_path, capsys):
        code = main(["train", "--data", data_path, "--out",
                     str(tmp_path / "o"), "--config", config_path,
                     "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: seed must be at least 0, got -1\n")

    def test_missing_required_arg_exits_2(self, data_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", data_path])
        assert exc.value.code == 2

    def test_missing_data_file_reports_error(self, tmp_path, capsys):
        code = main(["train", "--data", str(tmp_path / "nope.jsonl"),
                     "--out", str(tmp_path / "o")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("command, bad, message", [
        ("train", {"model": {"bogus": 1}},
         "config section 'model': unknown key 'bogus'"),
        ("train", {"model": [1]},
         "config section 'model' must be a JSON object"),
        # the constructors check each value: TrainConfig, ModelConfig
        ("train", {"train": {"epochs": "two"}},
         "epochs must be an integer, got 'two'"),
        ("train", {"model": {"n_layers": True}},
         "n_layers must be an integer, got True"),
        ("train", {"model": {"seed": 1}}, "config section 'model': 'seed' "
         "is set by the command line, not the config file"),
        ("train", {"modle": {"d_model": 8}},
         "config section 'modle' is not one of model, train, vocab"),
        ("train", {"model": {"dropout_rate": 0.0}},  # the model has none
         "config section 'model': unknown key 'dropout_rate'"),
        # constants now: optim.BETA1/BETA2/EPS, trainer.MAX_GRAD_NORM, and
        # build_vocab keeps every counted token
        ("train", {"train": {"beta1": 0.9}},
         "config section 'train': unknown key 'beta1'"),
        ("train", {"train": {"eps": 1e-8}},
         "config section 'train': unknown key 'eps'"),
        ("train", {"train": {"max_grad_norm": 1.0}},
         "config section 'train': unknown key 'max_grad_norm'"),
        ("train", {"vocab": {"min_freq": 1}},
         "config section 'vocab': unknown key 'min_freq'"),
        # compare decodes with DecodeConfig(), as evaluate does by default
        ("train", {"decode": {"beam_width": 4}},
         "config section 'decode' is not one of model, train, vocab"),
        ("compare", {"decode": {"beam_width": 4}},
         "config section 'decode' is not one of model, train, vocab"),
    ], ids=["unknown-key", "not-an-object", "wrong-type", "bool-for-int",
            "cli-owned-key", "unknown-section", "dropout_rate", "beta1",
            "eps", "max_grad_norm", "min_freq", "decode-train",
            "decode-compare"])
    def test_bad_config_is_one_error_line(self, tmp_path, data_path, capsys,
                                          command, bad, message):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(bad))
        out = tmp_path / "o"
        code = main([command, "--data", data_path, "--config", str(config)]
                    + (["--out", str(out)] if command == "train" else []))
        assert code == 1
        assert capsys.readouterr().err == "error: %s\n" % message
        assert not out.exists()

    @pytest.mark.parametrize("blob, reason", [
        (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0"),
        (b'{"train": {"epochs": %s}}' % (b"9" * 5000),
         "Exceeds the limit (4300 digits)"),
    ], ids=["not-utf-8", "5000-digit-int"])
    def test_unreadable_config_names_the_file(self, tmp_path, data_path,
                                              capsys, blob, reason):
        config = tmp_path / "bad.json"
        config.write_bytes(blob)
        out = tmp_path / "o"
        code = main(["train", "--data", data_path, "--out", str(out),
                     "--config", str(config)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read config %s: %s"
                              % (config, reason))
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("field, value", [
        ("n_heads", 0), ("n_layers", 0), ("d_ff", -3), ("d_model", 0)])
    def test_non_positive_dimension_is_one_error_line(
            self, tmp_path, data_path, capsys, field, value):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"model": {field: value}}))
        code = main(["train", "--data", data_path, "--out",
                     str(tmp_path / "o"), "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: %s must be at least 1" % field)
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("field, value, message", [
        ("epochs", 0, "epochs must be at least 1"),
        ("epochs", -1, "epochs must be at least 1"),
        ("lr", float("nan"), "lr must be positive and finite"),
        ("lr", float("inf"), "lr must be positive and finite"),
        # a JSON integer may stand for a float, but this one overflows it
        pytest.param("lr", 10 ** 400, "lr must be positive and finite, "
                     "got 1000", id="lr-401-digit-integer"),
    ])
    def test_bad_train_setting_is_one_error_line(
            self, tmp_path, data_path, capsys, monkeypatch, field, value,
            message):
        def no_vocab(*args, **kwargs):
            raise AssertionError("built the vocabulary before TrainConfig")

        monkeypatch.setattr(cli, "build_vocab", no_vocab)
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"train": {field: value}}))
        out = tmp_path / "o"
        code = main(["train", "--data", data_path, "--out", str(out),
                     "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: " + message)
        assert len(err.splitlines()) == 1
        assert not (out / "model.ckpt").exists()

    def test_overflowing_last_step_writes_no_checkpoint(self, tmp_path,
                                                        capsys):
        # the one Adam step overflows float32 and no later loss sees it
        data = tmp_path / "data.jsonl"
        save_dataset(RECORDS[:1], str(data))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"lr": 1e39, "epochs": 1}}))
        out = tmp_path / "o"
        code = main(["train", "--data", str(data), "--out", str(out),
                     "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: training left a NaN or inf weight after step 1\n")
        assert not (out / "model.ckpt").exists()

    @pytest.mark.parametrize("max_size", [5, 0, -3])
    def test_bad_vocab_setting_is_one_error_line(self, tmp_path, data_path,
                                                 capsys, max_size):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"vocab": {"max_size": max_size}}))
        code = main(["train", "--data", data_path, "--out",
                     str(tmp_path / "o"), "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: max_size must be at least 6, got %d\n" % max_size)

    def test_overflow_is_one_error_line_without_warnings(
            self, tmp_path, data_path, capsys, recwarn):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": {"lr": 1e308}}))
        code = main(["train", "--data", data_path, "--out",
                     str(tmp_path / "o"), "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: non-finite loss at step ")
        assert len(err.splitlines()) == 1
        assert [w for w in recwarn if issubclass(w.category, RuntimeWarning)
                ] == []

    @pytest.mark.parametrize("summary, code", [
        ("a b c d e", 0), ("a b c d e f", 1)], ids=["fits", "one-over"])
    def test_length_limit(self, tmp_path, capsys, summary, code):
        # 9 source words + EOS and 5 summary words + EOS take 10 + 6 = 16
        # positions: the source, SEP and the summary without its EOS
        data = tmp_path / "data.jsonl"
        save_dataset([DatasetRecord("a b c d e f g h i", summary)],
                     str(data))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {
            "d_model": 8, "n_heads": 2, "n_layers": 1, "d_ff": 8,
            "max_seq_len": 16}, "train": {"epochs": 1}}))
        out = tmp_path / "o"
        assert main(["train", "--data", str(data), "--out", str(out),
                     "--config", str(config)]) == code
        err = capsys.readouterr().err
        if code == 0:
            assert err == "" and (out / "model.ckpt").exists()
        else:
            assert err == ("error: record 0 needs 17 positions but "
                           "max_seq_len is 16\n")

    def test_out_of_memory_is_one_error_line(self, tmp_path, data_path,
                                             capsys, monkeypatch):
        # a (700000, 64) pos_emb is within MAX_PARAMS, but its float64
        # draw is 342 MB: fake a host on which that allocation fails
        def unallocatable(config, dtype=np.float32):
            raise MemoryError("Unable to allocate 342. MiB")

        monkeypatch.setattr(cli, "init_params", unallocatable)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": {"max_seq_len": 700000}}))
        code = main(["train", "--data", data_path, "--out",
                     str(tmp_path / "o"), "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: out of memory: Unable to allocate 342. MiB\n")

    @pytest.mark.parametrize("model, message", [
        ({"max_seq_len": 10 ** 9},
         "model has 64000075009 parameters, more than 50000000"),
        ({"n_layers": 65}, "n_layers must be at most 64, got 65"),
    ])
    def test_model_above_the_size_bound_is_one_error_line(
            self, tmp_path, data_path, capsys, monkeypatch, model, message):
        def no_allocation(config, dtype=np.float32):
            raise AssertionError("allocated a model above the bound")

        monkeypatch.setattr(cli, "init_params", no_allocation)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"model": model}))
        code = main(["train", "--data", data_path, "--out",
                     str(tmp_path / "o"), "--config", str(config)])
        assert code == 1
        assert capsys.readouterr().err == "error: %s\n" % message

    @settings(derandomize=True, deadline=None, max_examples=300,
              database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=TRAIN_CONFIG_EDITS, lines=st.lists(DATA_LINES, max_size=2))
    @example(edits=[(("train", "lr"), float("nan"))], lines=[])
    @example(edits=[], lines=[b'{"source": "\xff", "summary": "a"}'])
    @example(edits=[(("model", "d_model"), 64), (("model", "d_ff"), 64),
                    (("model", "max_seq_len"), 64)], lines=[])
    def test_any_train_input_works_or_fails_in_one_line(
            self, tmp_path, capsys, edits, lines):
        cfg = {name: dict(section) for name, section in TINY_TRAIN.items()}
        for (section, key), value in edits:
            if key is None:
                cfg[section] = value
            elif isinstance(cfg.setdefault(section, {}), dict):
                cfg[section][key] = value
        config = tmp_path / "config.json"
        config.write_text(json.dumps(cfg))
        data = tmp_path / "data.jsonl"
        data.write_bytes(b"\n".join([GOOD_LINE] + lines))
        code = main(["train", "--data", str(data), "--out",
                     str(tmp_path / "o"), "--config", str(config)])
        err = capsys.readouterr().err
        assert (code == 0 and err == "") or (
            code == 1 and len(err.splitlines()) == 1
            and err.startswith("error:")), (code, err)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One overfit run shared by the summarize/evaluate tests."""
    root = tmp_path_factory.mktemp("trained")
    data = root / "data.jsonl"
    save_dataset(RECORDS[:2], str(data))
    cfg = dict(SMALL_CONFIG)
    cfg["train"] = {"epochs": 150, "batch_size": 1}
    config = root / "config.json"
    config.write_text(json.dumps(cfg))
    out = root / "run"
    assert main(["train", "--data", str(data), "--out", str(out),
                 "--config", str(config), "--seed", "0"]) == 0
    return root, str(out), str(data)


@pytest.fixture
def no_model_loading(monkeypatch):
    """Fail the test if the command loads the model: a bad input that costs
    no checkpoint read must fail first."""
    def no_loading(directory):
        raise AssertionError("loaded the model before checking the input")

    monkeypatch.setattr(cli, "_load_model", no_loading)


class TestCliSummarize:
    def test_overfit_source_reproduced_verbatim(self, trained, tmp_path,
                                                capsys):
        root, run, _ = trained
        doc = tmp_path / "doc.txt"
        doc.write_text(RECORDS[0].source)
        code = main(["summarize", "--model", run, "--input", str(doc)])
        assert code == 0
        assert capsys.readouterr().out.strip() == RECORDS[0].summary

    def test_stdin_input(self, trained, capsys, monkeypatch):
        import io
        _, run, _ = trained
        monkeypatch.setattr("sys.stdin", io.StringIO(RECORDS[1].source))
        assert main(["summarize", "--model", run, "--input", "-"]) == 0
        assert capsys.readouterr().out.strip() == RECORDS[1].summary

    def test_max_len_one(self, trained, tmp_path, capsys):
        _, run, _ = trained
        doc = tmp_path / "doc.txt"
        doc.write_text(RECORDS[0].source)
        main(["summarize", "--model", run, "--input", str(doc),
              "--max-len", "1"])
        out = capsys.readouterr().out.strip()
        assert len(out.split()) <= 1

    def test_beam_1_matches_greedy(self, trained, tmp_path, capsys):
        # --beam 1 decodes greedily; beam search of width 1 gives the same
        _, run, _ = trained
        doc = tmp_path / "doc.txt"
        doc.write_text(RECORDS[0].source)
        main(["summarize", "--model", run, "--input", str(doc),
              "--beam", "1"])
        params, cfg = load_checkpoint(os.path.join(run, "model.ckpt"))
        vocab = Vocabulary.load(os.path.join(run, "vocab.txt"))
        ids, ext, oov = encode_source(RECORDS[0].source, vocab)
        hyp = beam_decode(params, ids, ext, len(oov), cfg,
                          DecodeConfig(beam_width=1))
        outs = [capsys.readouterr().out, decode(hyp.ids, vocab, oov) + "\n"]
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flags, message", [
        (["--beam", "0"], "beam_width must be at least 1, got 0"),
        (["--beam", "-3"], "beam_width must be at least 1, got -3"),
        (["--max-len", "0"],
         "max_summary_len must be at least 1, got 0"),
    ])
    def test_bad_decode_setting_is_one_error_line(self, trained, tmp_path,
                                                  capsys, flags, message):
        _, run, data = trained
        doc = tmp_path / "doc.txt"
        doc.write_text(RECORDS[0].source)
        for command in (["summarize", "--input", str(doc)],
                        ["evaluate", "--data", data]):
            code = main(command + ["--model", run] + flags)
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == "error: %s\n" % message
            assert captured.out == ""

    def test_beam_above_maximum_fails_before_loading(
            self, trained, tmp_path, capsys, no_model_loading):
        _, run, data = trained
        doc = tmp_path / "doc.txt"
        doc.write_text(RECORDS[0].source)
        DecodeConfig(beam_width=DecodeConfig.MAX_BEAM_WIDTH)
        beam = str(DecodeConfig.MAX_BEAM_WIDTH + 1)
        for command in (["summarize", "--input", str(doc)],
                        ["evaluate", "--data", data]):
            code = main(command + ["--model", run, "--beam", beam])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == "error: beam_width must be <= %d\n" % (
                DecodeConfig.MAX_BEAM_WIDTH)
            assert captured.out == ""

    @pytest.mark.parametrize("case, kept, named", [
        ("missing", None, "vocab.txt"),
        ("file", None, "vocab.txt"),
        ("no-ckpt", "vocab.txt", "model.ckpt"),
        ("no-vocab", "model.ckpt", "vocab.txt"),
    ])
    def test_incomplete_model_directory_is_one_error_line(
            self, trained, tmp_path, capsys, case, kept, named):
        _, run, data = trained
        model = tmp_path / "model"
        if case == "file":
            model.write_text("a file, not a directory")
        elif kept is not None:
            model.mkdir()
            shutil.copy(os.path.join(run, kept), model / kept)
        doc = tmp_path / "doc.txt"
        doc.write_text(RECORDS[0].source)
        for command in (["summarize", "--input", str(doc)],
                        ["evaluate", "--data", data]):
            code = main(command + ["--model", str(model)])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1
            assert repr(str(model / named)) in captured.err
            assert captured.out == ""

    def test_missing_input_fails_before_loading(self, trained, tmp_path,
                                                capsys, no_model_loading):
        _, run, _ = trained
        missing = tmp_path / "missing.txt"
        for command in (["summarize", "--input", str(missing)],
                        ["evaluate", "--data", str(missing)]):
            code = main(command + ["--model", run])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == (
                "error: [Errno 2] No such file or directory: %r\n"
                % str(missing))
            assert captured.out == ""

    @pytest.mark.parametrize("text", ["", " \n\t "], ids=["empty", "blank"])
    def test_empty_source_is_one_error_line(self, trained, tmp_path, capsys,
                                            text, no_model_loading):
        _, run, _ = trained
        doc = tmp_path / "doc.txt"
        doc.write_text(text)
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"source": text, "summary": "a"}) + "\n")
        for command, where in (
                (["summarize", "--input", str(doc)], "input %s" % doc),
                (["evaluate", "--data", str(data)], 'line 1: field "source"')):
            code = main(command + ["--model", run])
            captured = capsys.readouterr()
            assert code == 1
            assert captured.err == (
                "error: %s is empty after tokenization\n" % where)
            assert captured.out == ""

    def test_vocab_mismatch_rejected(self, trained, tmp_path, capsys):
        # the other vocabulary goes into a copy of the run directory
        _, run, _ = trained
        copy = tmp_path / "run"
        copy.mkdir()
        shutil.copy(os.path.join(run, "model.ckpt"), copy / "model.ckpt")
        Vocabulary(["only", "three", "words"]).save(str(copy / "vocab.txt"))
        doc = tmp_path / "doc.txt"
        doc.write_text("hello")
        assert main(["summarize", "--model", str(copy),
                     "--input", str(doc)]) == 1
        assert "does not match" in capsys.readouterr().err


class TestCliEvaluate:
    def test_overfit_model_scores_all_ones(self, trained, capsys):
        _, run, data = trained
        assert main(["evaluate", "--model", run, "--data", data]) == 0
        assert capsys.readouterr().out.count("1.0000") == 6

    def test_empty_dataset_rejected(self, trained, tmp_path, capsys,
                                    no_model_loading):
        # one rule in load_dataset serves every command that reads a dataset
        _, run, _ = trained
        data = tmp_path / "data.jsonl"
        for text in ("", "\n \n\t\n"):
            data.write_text(text)
            for command in (["train", "--out", str(tmp_path / "o")],
                            ["evaluate", "--model", run],
                            ["compare"]):
                code = main(command + ["--data", str(data)])
                captured = capsys.readouterr()
                assert code == 1, command
                assert captured.err == "error: dataset %s is empty\n" % data
                assert captured.out == ""

    def test_report_table_layout(self, trained, capsys):
        _, run, data = trained
        main(["evaluate", "--model", run, "--data", data])
        lines = capsys.readouterr().out.splitlines()
        header = lines[0]
        for col in ("Algorithm", "Evaluation metric", "Precision",
                    "Recall", "F measure"):
            assert col in header
        assert any("Rouge-1" in line for line in lines)
        assert any("Rouge-2" in line for line in lines)


class TestCompare:
    def test_run_compare_is_deterministic(self):
        records = synthetic_copy_task(30, seed=1)
        cfg = {"vocab": {"max_size": 40},
               "model": {"d_model": 16, "n_heads": 2, "n_layers": 1,
                         "d_ff": 32, "max_seq_len": 48},
               "train": {"epochs": 1, "batch_size": 4}}
        a = run_compare(records, cfg, seed=0)
        b = run_compare(records, cfg, seed=0)
        assert [label for label, _ in a] == ["GPT-baseline", "PointerGPT"]
        for (_, ra), (_, rb) in zip(a, b):
            assert ra == rb

    def test_cmd_compare_prints_both_rows(self, tmp_path, capsys):
        data = tmp_path / "copy.jsonl"
        save_dataset(synthetic_copy_task(20, seed=2), str(data))
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"vocab": {"max_size": 40},
             "model": {"d_model": 16, "n_heads": 2, "n_layers": 1,
                       "d_ff": 32, "max_seq_len": 48},
             "train": {"epochs": 1, "batch_size": 4}}))
        assert main(["compare", "--data", str(data),
                     "--config", str(config), "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "GPT-baseline" in out and "PointerGPT" in out
        assert out.count("Rouge-1") == 2 and out.count("Rouge-2") == 2

    def test_negative_seed_is_one_error_line(self, tmp_path, capsys):
        data = tmp_path / "copy.jsonl"
        save_dataset(synthetic_copy_task(20, seed=2), str(data))
        assert main(["compare", "--data", str(data), "--seed", "-2"]) == 1
        assert capsys.readouterr().err == (
            "error: seed must be at least 0, got -2\n")

    @pytest.mark.parametrize("train, message", [
        ({"epochs": 0}, "epochs must be at least 1, got 0"),
        ({"batch_size": 2.5}, "batch_size must be an integer, got 2.5"),
        ({"lr": "fast"}, "lr must be positive and finite, got 'fast'"),
    ])
    def test_bad_train_setting_fails_before_the_vocabulary_is_built(
            self, tmp_path, capsys, monkeypatch, train, message):
        data = tmp_path / "copy.jsonl"
        save_dataset(synthetic_copy_task(20, seed=2), str(data))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"train": train}))

        def no_vocab(*args, **kwargs):
            raise AssertionError("built the vocabulary before TrainConfig")

        monkeypatch.setattr(cli, "build_vocab", no_vocab)
        code = main(["compare", "--data", str(data), "--config",
                     str(config), "--seed", "0"])
        assert code == 1
        assert capsys.readouterr().err == "error: %s\n" % message


class TestDeeplyNestedJson:
    @pytest.mark.parametrize("target", ["config", "dataset", "checkpoint"])
    def test_one_error_line(self, tmp_path, capsys, data_path, config_path,
                            target):
        # json raises RecursionError on 100,000 nested arrays
        deep = tmp_path / "deep"
        deep.write_bytes(b"[" * 100000)
        if target == "checkpoint":
            model = tmp_path / "model"
            model.mkdir()
            (model / "model.ckpt").write_bytes(
                MAGIC + struct.pack("<II", VERSION, 100000) + b"[" * 100000)
            Vocabulary(["a"]).save(str(model / "vocab.txt"))
            argv = ["summarize", "--model", str(model), "--input", data_path]
        else:
            argv = ["train", "--out", str(tmp_path / "o"),
                    "--data", data_path if target == "config" else str(deep),
                    "--config", str(deep) if target == "config"
                    else config_path]
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error: ") and len(err.splitlines()) == 1, err


def test_readme_config_block_lists_the_config_file_defaults():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"`--config` JSON may set.*?```json\n(.*?)```", readme,
                      re.S).group(1)
    assert json.loads(block) == {
        name: {key: value for key, value in defaults.items()
               if key not in cli_keys}
        for name, (defaults, cli_keys) in CONFIG_SECTIONS.items()}


def test_no_module_reads_the_environment():
    # a setting comes from the command line or the config file, never from
    # a second way in that tests and docs would have to cover as well
    readers = []
    for path in sorted((ROOT / "src" / "pointer_gpt").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                names = [alias.name for alias in node.names]
            else:
                continue
            readers += ["%s:%d %s" % (path.name, node.lineno, name)
                        for name in names
                        if name in ("environ", "environb", "getenv",
                                    "getenvb")]
    assert readers == []


def readme_command_line_section():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.search(r"^## Command line\n(.*?)^## ", readme,
                     re.S | re.M).group(1)


def parser_flags():
    """(subcommand, flag) for every option but help."""
    subparsers, = [a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return [(command, flag)
            for command, parser in subparsers.choices.items()
            for action in parser._actions
            if not isinstance(action, argparse._HelpAction)
            for flag in action.option_strings]


def test_readme_documents_every_command_line_flag():
    section = readme_command_line_section()
    missing = ["%s %s" % (command, flag)
               for command, flag in parser_flags()
               if not re.search(r"(?<![\w-])%s(?![\w-])" % re.escape(flag),
                                section)]
    assert missing == []


def flags_no_subcommand_has(section):
    known = {flag for _, flag in parser_flags()}
    return sorted(set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
                  - known)


def test_readme_names_only_flags_the_parser_has():
    assert flags_no_subcommand_has(readme_command_line_section()) == []


def test_a_removed_flag_left_in_the_readme_is_caught():
    # mutation control: the README still showing the old checkpoint flag
    section = readme_command_line_section() + "--ckpt run/model.ckpt\n"
    assert flags_no_subcommand_has(section) == ["--ckpt"]
