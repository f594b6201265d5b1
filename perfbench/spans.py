"""Per-layer spans recorded from outside restorekit.

``Tracer.install()`` swaps timing wrappers in for the package's public
functions and module ``__call__``s; ``uninstall()`` puts the originals back.
Nothing inside ``src/`` changes.  Every call site in the package reaches
these functions through a module attribute (``ops.conv2d``,
``type(module).__call__``, ``train.adam_step`` ...), so patching the
attribute is enough.

Two kinds of layer are recorded:

- per-operation layers (``ops.*``, module times, ``model.fwd``,
  ``train.*``, ``tensor.*``): accumulated only while ``per_op`` is set,
  i.e. during the traced phase, and reported per timed operation;
- per-call layers (checkpoint, PPM, metrics, patch generation): every call
  while installed, reported as the median per call.

Forward self time is a span minus the spans nested in it, computed
separately for op spans and module spans.  Backward time is charged by
wrapping each new tape node's ``_backward`` closure, to the innermost op
kind and module that were active when the node was created.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from restorekit import checkpoint, degrade, metrics, ops, ppm, tensor, train
from restorekit.attention import GatedChannelAttention, GatedFeedForward
from restorekit.fusion import GatedSkipFusion, PlainSkipFusion
from restorekit.layers import GroupNorm, LayerNorm
from restorekit.model import RestorationModel
from restorekit.prompts import PromptGenerator
from restorekit.spectral import DualDomainBottleneck

CONV_KINDS = ("conv2d.1x1", "conv2d.dw3", "conv2d.dwk", "conv2d.3x3")
OP_KINDS = CONV_KINDS + ("matmul", "linear", "fft", "activation", "elementwise",
                         "reduce", "shape", "shuffle")
_PRIMITIVES = {
    "elementwise": ("add", "sub", "mul", "div", "neg", "exp", "sqrt", "square", "absolute"),
    "reduce": ("tsum", "tmean", "gap", "mean_std"),
    "shape": ("reshape", "transpose", "concat", "narrow"),
    "matmul": ("matmul",),
    "linear": ("linear",),
    "activation": ("relu", "sigmoid", "gelu", "softmax"),
    "fft": ("fft2d", "ifft2d"),
    "shuffle": ("pixel_shuffle", "pixel_unshuffle"),
}
MODULES = {
    "attention": (GatedChannelAttention,),
    "ffn": (GatedFeedForward,),
    "prompts": (PromptGenerator,),
    "spectral": (DualDomainBottleneck,),
    "fusion": (GatedSkipFusion, PlainSkipFusion),
    "layers.norm": (LayerNorm, GroupNorm),
}
PER_CALL = {
    "checkpoint.save": ((checkpoint, "save_model"), (train, "save_model")),
    "checkpoint.load": ((checkpoint, "load_model"),),
    "ppm.read": ((ppm, "read_ppm"),),
    "ppm.write": ((ppm, "write_ppm"),),
    "metrics.psnr": ((metrics, "psnr"),),
    "metrics.ssim": ((metrics, "ssim"),),
    "degrade.patch_set": ((degrade, "make_patch_set"),),
}


def conv_kind(x_shape, w_shape, groups: int) -> str:
    """Name the conv kinds the network uses; anything else is an error."""
    cout, cpg, kh, kw = w_shape
    if kh == kw == 1 and groups == 1:
        return "conv2d.1x1"
    if cpg == 1 and groups == x_shape[1] == cout and kh == kw:
        return "conv2d.dw3" if kh == 3 else "conv2d.dwk"
    if kh == kw == 3 and groups == 1:
        return "conv2d.3x3"
    raise ValueError(f"conv2d outside the model's kinds: weight {w_shape}, groups {groups}")


def conv_cost(x_shape, w_shape, out_shape, itemsize: int) -> tuple[float, float, float, float]:
    """(fwd flop, fwd bytes, bwd flop, bwd bytes) of one conv from its shapes.

    Backward computes the input and the weight gradient, each as many
    multiply-adds as the forward.  Bytes count each operand read or
    written once.
    """
    n, cout, oh, ow = out_shape
    _, cpg, kh, kw = w_shape
    macs = n * cout * oh * ow * cpg * kh * kw
    x_b = float(np.prod(x_shape)) * itemsize
    w_b = float(np.prod(w_shape)) * itemsize
    o_b = float(np.prod(out_shape)) * itemsize
    return 2.0 * macs, x_b + w_b + o_b, 4.0 * macs, o_b + 2 * x_b + 2 * w_b


class Tracer:
    def __init__(self):
        self.per_op = False
        self._op_stack: list[list] = []    # [kind, nested seconds]
        self._mod_stack: list[list] = []   # [module, nested seconds]
        self._saved: list[tuple] = []
        self.fwd = defaultdict(float)      # "ops.<kind>" / module -> self seconds
        self.bwd = defaultdict(float)
        self.calls = defaultdict(int)
        self.gflop = defaultdict(float)
        self.mb_moved = defaultdict(float)
        self.nodes = 0
        self.closure_s = 0.0
        self.span_s = defaultdict(float)   # model.fwd, train.loss, train.bwd, train.optim
        self.per_call = defaultdict(list)  # per-call layer -> [seconds]
        self.checkpoint_mb: list[float] = []

    # -- patching ---------------------------------------------------------
    def _patch(self, owner, attr: str, new):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for kind, names in _PRIMITIVES.items():
            for name in names:
                self._patch(ops, name, self._op_span(getattr(ops, name), kind))
        self._patch(ops, "conv2d", self._conv_span(ops.conv2d))
        self._patch(ops, "make_node", self._node_hook(ops.make_node))
        for label, classes in MODULES.items():
            for cls in classes:
                self._patch(cls, "__call__", self._module_span(cls.__call__, label))
        self._patch(RestorationModel, "forward", self._span(RestorationModel.forward, "model.fwd"))
        self._patch(train, "l1_fourier_loss", self._span(train.l1_fourier_loss, "train.loss"))
        self._patch(train, "adam_step", self._span(train.adam_step, "train.optim"))
        self._patch(tensor.Tensor, "backward", self._span(tensor.Tensor.backward, "train.bwd"))
        for label, sites in PER_CALL.items():
            original = getattr(*sites[0])
            wrapped = self._call_span(original, label)
            for owner, attr in sites:
                self._patch(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers ---------------------------------------------------------
    def _run_op(self, kind: str, fn, args, kwargs):
        frame = [kind, 0.0]
        self._op_stack.append(frame)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t0
            self._op_stack.pop()
            if self._op_stack:
                self._op_stack[-1][1] += dt
            if self.per_op:
                self.fwd["ops." + kind] += dt - frame[1]
                self.calls[kind] += 1

    def _op_span(self, fn, kind: str):
        def wrapped(*args, **kwargs):
            return self._run_op(kind, fn, args, kwargs)

        return wrapped

    def _conv_span(self, fn):
        def wrapped(x, weight, bias=None, stride=1, padding=None, groups=1):
            kind = conv_kind(np.shape(x), np.shape(weight), groups)
            out = self._run_op(kind, fn, (x, weight, bias, stride, padding, groups), {})
            if self.per_op:
                f_flop, f_bytes, b_flop, b_bytes = conv_cost(np.shape(x), np.shape(weight),
                                                             out.shape, out.data.itemsize)
                if out._backward is None:
                    b_flop = b_bytes = 0.0
                self.gflop[kind] += (f_flop + b_flop) / 1e9
                self.mb_moved[kind] += (f_bytes + b_bytes) / 1e6
            return out

        return wrapped

    def _node_hook(self, make_node):
        def wrapped(data, parents, backward, op):
            out = make_node(data, parents, backward, op)
            if out._backward is None or not self.per_op:
                return out
            self.nodes += 1
            key = "ops." + (self._op_stack[-1][0] if self._op_stack else "other")
            module = self._mod_stack[-1][0] if self._mod_stack else None
            closure = out._backward

            def timed(g):
                t0 = time.perf_counter()
                closure(g)
                dt = time.perf_counter() - t0
                self.bwd[key] += dt
                if module is not None:
                    self.bwd[module] += dt
                self.closure_s += dt

            out._backward = timed
            return out

        return wrapped

    def _module_span(self, fn, label: str):
        def wrapped(*args, **kwargs):
            frame = [label, 0.0]
            self._mod_stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._mod_stack.pop()
                if self._mod_stack:
                    self._mod_stack[-1][1] += dt
                if self.per_op:
                    self.fwd[label] += dt - frame[1]

        return wrapped

    def _span(self, fn, label: str):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                if self.per_op:
                    self.span_s[label] += time.perf_counter() - t0

        return wrapped

    def _call_span(self, fn, label: str):
        def wrapped(*args, **kwargs):
            t0 = time.perf_counter()
            result = fn(*args, **kwargs)
            self.per_call[label].append(time.perf_counter() - t0)
            if label == "checkpoint.save":
                stem = Path(result)
                size = sum(stem.with_suffix(s).stat().st_size for s in (".json", ".bin"))
                self.checkpoint_mb.append(size / 1e6)
            return result

        return wrapped

    # -- report -----------------------------------------------------------
    def metrics(self, ops_done: int, training: bool) -> dict[str, float]:
        """Per-layer figures: per-operation layers divided by ``ops_done``."""
        per = 1000.0 / ops_done
        out = {}
        if training:
            out["train.fwd_ms"] = (self.span_s["model.fwd"] + self.span_s["train.loss"]) * per
            out["train.bwd_ms"] = self.span_s["train.bwd"] * per
            out["train.optim_ms"] = self.span_s["train.optim"] * per
        else:
            out["train.fwd_ms"] = out["train.bwd_ms"] = out["train.optim_ms"] = 0.0
        out["tensor.nodes"] = self.nodes / ops_done
        out["tensor.backward_self_ms"] = (self.span_s["train.bwd"] - self.closure_s) * per
        out["model.fwd_ms"] = self.span_s["model.fwd"] * per
        for label in MODULES:
            out[f"{label}.fwd_ms"] = self.fwd[label] * per
            out[f"{label}.bwd_ms"] = self.bwd[label] * per
        for kind in OP_KINDS:
            out[f"ops.{kind}.fwd_ms"] = self.fwd["ops." + kind] * per
            out[f"ops.{kind}.bwd_ms"] = self.bwd["ops." + kind] * per
            out[f"ops.{kind}.calls"] = self.calls[kind] / ops_done
        for kind in CONV_KINDS:
            out[f"ops.{kind}.gflop"] = self.gflop[kind] / ops_done
            out[f"ops.{kind}.mb_moved"] = self.mb_moved[kind] / ops_done
        for label in PER_CALL:
            times = self.per_call[label]
            out[f"{label}_ms"] = statistics.median(times) * 1000.0 if times else 0.0
        out["checkpoint.mb"] = statistics.median(self.checkpoint_mb) if self.checkpoint_mb else 0.0
        return out
