"""Spans around calls into pointer_gpt's public functions, for the traced run.

`Tracer.install` swaps a timing wrapper into every ``pointer_gpt`` module
attribute bound to a traced function (so ``from .model import
forward_hidden`` bindings are covered too); `Tracer.uninstall` puts every
original back. The untraced run never installs anything, so its numbers
measure unmodified code.

A span is (name, start, end, parent span, item), where the item is the
training step or the document the span belongs to. A span's self time is
its duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

OPS = ("add", "mul", "affine", "add_const", "matmul", "transpose", "gelu",
       "sigmoid", "softmax_rows", "layer_norm", "take_rows", "slice_cols",
       "concat_cols", "pad_cols", "scatter_add_cols", "gather_cols",
       "clamped_log", "mean_all")

# (module, function): one span per call, named "<module>.<function>"
CALLS = (
    ("tensor", "backward"),
    ("model", "forward_hidden"),
    ("model", "pointer_step"),
    ("model", "sequence_loss"),
    ("optim", "clip_grad_norm"),
    ("optim", "adam_step"),
    ("trainer", "train"),
    ("decoder", "greedy_decode"),
    ("decoder", "beam_decode"),
    ("tokenizer", "build_vocab"),
    ("tokenizer", "encode_source"),
    ("tokenizer", "decode"),
    ("rouge", "rouge_report"),
    ("checkpoint", "save_checkpoint"),
    ("checkpoint", "load_checkpoint"),
    ("data", "load_dataset"),
)

PACKAGE = "pointer_gpt"


class Tracer:
    """In-memory span store plus the counters read at the same boundaries."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self._name = array("l")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("l")
        self._item = array("l")
        self._stack = []
        self._op = None        # op kind whose forward is running
        self._patches = []     # (module, attribute, original)
        self.item = 0
        self.counts = {"model.rows": 0, "tensor.tape_records": 0}

    # --- recording -------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self._start)
        self._name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._item.append(self.item)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self._end[idx] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """fn inside a span called `name`; before(args) runs first, after() last."""
        nid = self._name_id(name)

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                if after is not None:
                    after()

        traced.__wrapped__ = fn
        return traced

    # --- installation ----------------------------------------------------

    def _op_wrapper(self, kind, fn):
        nid = self._name_id("ops.%s.fwd" % kind)

        def traced(*args, **kwargs):
            outer, self._op = self._op, kind
            idx = self._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
                self._op = outer

        traced.__wrapped__ = fn
        return traced

    def _make_output_wrapper(self, fn):
        def traced(out_data, inputs, backward_fn):
            name = "ops.%s.bwd" % (self._op or "unknown")
            return fn(out_data, inputs, self.wrap(name, backward_fn))

        traced.__wrapped__ = fn
        return traced

    def _make_step_fn_wrapper(self, fn):
        def traced(*args, **kwargs):
            return self.wrap("decoder.step", fn(*args, **kwargs))

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, amount):
        self.counts[key] += amount

    def _wrappers(self):
        """{original function: wrapper} for everything this tracer traces."""
        mods = {name: sys.modules.get("%s.%s" % (PACKAGE, name))
                for name in ("ops", "tensor", "decoder")
                + tuple(m for m, _ in CALLS)}
        hooks = {
            "model.forward_hidden": dict(before=lambda a: self._count(
                "model.rows", len(a[1]))),
            "tensor.backward": dict(before=lambda a: self._count(
                "tensor.tape_records", len(a[0]))),
            # an optimizer step ends a training item
            "optim.adam_step": dict(after=self._next_item),
        }
        found = {}
        for kind in OPS:
            fn = getattr(mods["ops"], kind, None)
            if fn is not None:
                found[fn] = self._op_wrapper(kind, fn)
        for mod, attr in CALLS:
            fn = getattr(mods[mod], attr, None) if mods[mod] else None
            if fn is not None:
                name = "%s.%s" % (mod, attr)
                found[fn] = self.wrap(name, fn, **hooks.get(name, {}))
        make_output = getattr(mods["tensor"], "make_output", None)
        if make_output is not None:
            found[make_output] = self._make_output_wrapper(make_output)
        make_step_fn = getattr(mods["decoder"], "make_step_fn", None)
        if make_step_fn is not None:
            found[make_step_fn] = self._make_step_fn_wrapper(make_step_fn)
        return found

    def _next_item(self):
        self.item += 1

    def install(self):
        """Bind the wrappers wherever pointer_gpt binds the originals."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = self._wrappers()
        by_id = {id(fn): (fn, w) for fn, w in wrappers.items()}
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == PACKAGE
                                      or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = by_id.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))

    def uninstall(self):
        """Restore every attribute `install` replaced."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # --- aggregation -----------------------------------------------------

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent, item."""
        return (np.array(self._name, dtype=np.int64),
                np.array(self._start, dtype=np.float64),
                np.array(self._end, dtype=np.float64),
                np.array(self._parent, dtype=np.int64),
                np.array(self._item, dtype=np.int64))

    def totals(self):
        """{span name: (calls, total seconds, self seconds)}."""
        name, start, end, parent, _item = self.arrays()
        dur = end - start
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child],
                              minlength=len(dur))
        self_time = dur - covered
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        own = np.bincount(name, weights=self_time, minlength=len(self.names))
        return {n: (int(calls[i]), float(total[i]), float(own[i]))
                for i, n in enumerate(self.names)}

    def dump(self, path):
        """Write every span to a compressed .npz file."""
        name, start, end, parent, item = self.arrays()
        np.savez_compressed(path, names=np.asarray(self.names), name=name,
                            start=start, end=end, parent=parent, item=item)
