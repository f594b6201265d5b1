"""Training: combined RGB/Fourier L1 loss, Adam, cosine schedule.

The loop is deterministic for a given seed: batch sampling uses one
Generator whose state is checkpointed, so a resumed run consumes the
exact random sequence the uninterrupted run would have.  On a non-finite
loss the failing forward pass is re-run under finite tracing and the
resulting NumericsError names the first offending op.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import ops
from .checkpoint import _is_count, load_checkpoint, save_model, split_optim
from .errors import ConfigError, DataError, NumericsError, UsageError, require_finite
from .params import ParamStore
from .tensor import Tensor, finite_trace


@dataclass
class TrainConfig:
    steps: int = 500
    batch_size: int = 8
    lr0: float = 2e-4
    lr_min: float = 1e-6
    lambda_fourier: float = 0.1
    seed: int = 0
    checkpoint_every: int = 0   # 0: only the final checkpoint

    def validate(self):
        require_finite(self)
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be positive")
        if self.lr0 < 0 or self.lr_min < 0 or self.lr_min > max(self.lr0, 1e-12):
            raise ConfigError("need 0 <= lr_min <= lr0")
        if self.lambda_fourier < 0:
            raise ConfigError("lambda_fourier must be >= 0")
        if self.checkpoint_every < 0:
            raise ConfigError("checkpoint_every must be >= 0")


def l1_fourier_loss(pred: Tensor, target: Tensor, weight: float = 0.1,
                    parts: dict | None = None) -> Tensor:
    """mean|pred - target| + weight * (mean|dRe| + mean|dIm|) over the spectrum.

    The mean over fft2d's stacked [Re; Im] planes is half that sum, hence 2 * weight.
    A ``parts`` dict gets the values of the two terms, "pixel" and the
    weighted "fourier" (0.0 at weight 0).
    """
    pixel = ops.tmean(ops.absolute(ops.sub(pred, target)))
    fourier = None
    if weight != 0:
        spectral = ops.tmean(ops.absolute(ops.sub(ops.fft2d(pred), ops.fft2d(target))))
        fourier = ops.mul(spectral, 2 * weight)
    if parts is not None:
        parts["pixel"] = float(pixel.data)
        parts["fourier"] = 0.0 if fourier is None else float(fourier.data)
    return pixel if fourier is None else ops.add(pixel, fourier)


def cosine_lr(t: int, total: int, lr0: float, lr_min: float) -> float:
    """Half-cosine decay from lr0 (t=0) to lr_min (t=total); clamps past the end."""
    if total < 1:
        raise ConfigError("schedule length must be positive")
    t = min(max(t, 0), total)
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * t / total))


class OptimizerState:
    """Adam first/second moments per parameter plus the step counter.

    Each role (``m``, ``v``) is one zeroed buffer in the store's dtype, and
    each parameter's moment is a C-contiguous view of it, in store order.
    A buffer that size is a mapping of its own: its pages are only touched
    when Adam first writes them, and it goes back to the OS whole once the
    state is dropped, instead of staying in the heap as a thousand small
    arrays would.  ``load_arrays`` replaces the views with the loaded
    moments; the buffers were never written, so they cost no resident memory.
    """

    def __init__(self, store: ParamStore):
        self.t = 0
        self.m = _zero_views(store)
        self.v = _zero_views(store)

    def arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for name, arr in self.m.items():
            out[f"m.{name}"] = arr
        for name, arr in self.v.items():
            out[f"v.{name}"] = arr
        return out

    def load_arrays(self, arrays: dict[str, np.ndarray], t: int):
        """Take the stored moments as they are (Adam updates them in place).

        A moment that is not C-contiguous is copied: adam_step writes
        through flat views, and those must not be copies.

        Each ``m.<name>`` and ``v.<name>`` must be there with its
        parameter's shape and dtype, else DataError names the first that is not.
        """
        for key, zero in self.arrays().items():
            arr = arrays.get(key)
            if arr is None:
                raise DataError(f"checkpoint has no Adam moment '{key}'")
            if arr.shape != zero.shape or arr.dtype != zero.dtype:
                raise DataError(f"Adam moment '{key}' is {arr.dtype} {arr.shape}, "
                                f"its parameter {zero.dtype} {zero.shape}")
        self.t = t
        self.m = {name: np.ascontiguousarray(arrays[f"m.{name}"]) for name in self.m}
        self.v = {name: np.ascontiguousarray(arrays[f"v.{name}"]) for name in self.v}


def _zero_views(store: ParamStore) -> dict[str, np.ndarray]:
    """One zeroed view per parameter, shaped like it, carved in store order
    from one buffer in the store's dtype."""
    buffer = np.zeros(store.total_parameters(), store.dtype)
    views = {}
    lo = 0
    for name, p in store.items():
        views[name] = buffer[lo:lo + p.data.size].reshape(p.data.shape)
        lo += p.data.size
    return views


def _adam_update(g, m, v, x, a, b, lr, beta1, beta2, eps, bc1, bc2) -> float:
    """The update on flat runs g, m, v, x in place, through scratch a and b; returns g . g.

    g is read before b is first written, so b may be g's own storage.
    """
    m *= beta1
    np.multiply(g, 1.0 - beta1, a)
    m += a
    v *= beta2
    sq = float(np.dot(g, g))
    np.multiply(g, g, a)
    a *= 1.0 - beta2
    v += a
    np.divide(v, bc2, a)
    np.sqrt(a, a)
    a += eps
    np.divide(m, bc1, b)
    b /= a
    b *= lr
    x -= b
    return sq


def adam_step(store: ParamStore, state: OptimizerState, lr: float,
              beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> float:
    """One bias-corrected Adam update, in place on the store's parameters and moments.

    Per parameter, the textbook update: m = b1*m + (1-b1)*g, v = b2*v +
    (1-b2)*g*g, p -= lr * (m/bc1) / (sqrt(v/bc2) + eps).  A tensor of at
    least ops.CHUNK elements is walked in flat chunks of ops.CHUNK
    elements, updated in place.  Smaller tensors, in store order, are
    gathered into packs of at most ops.CHUNK elements: one
    concatenate per role (g, m, v, parameter) into reused chunk scratch,
    one update of the pack, then m, v and the parameter copied back per
    tensor, so that the update's numpy calls are paid per pack, not per
    tensor.  Scratch is reused across all tensors, so no full-size
    temporary is built and the working set stays in cache.  Every element
    runs the same operations in the same order as the whole-tensor form,
    so the result is bit-identical to it.  Every parameter must have a
    gradient, else UsageError names the first that has none and nothing
    (step count, parameters, moments) has changed.

    Returns the global L2 norm of the gradients: one dot product g . g
    per chunk or pack while it is in cache, their sums added in float64,
    so it costs no pass over the gradients of its own.
    """
    for name, p in store.items():
        if p.grad is None:
            raise UsageError(f"adam_step: parameter '{name}' has no gradient")
    state.t += 1
    coef = (lr, beta1, beta2, eps, 1.0 - beta1 ** state.t, 1.0 - beta2 ** state.t)
    # the update's scratch a, then a pack's g (also the update's scratch b), m, v and x
    scratch = [np.empty(ops.CHUNK, store.dtype) for _ in range(5)]
    sq = 0.0

    def flush(members, size):
        a, *runs = (buf[:size] for buf in scratch)
        for run, role in zip(runs, zip(*members)):
            np.concatenate(role, axis=None, out=run)
        g, m, v, x = runs
        total = _adam_update(g, m, v, x, a, g, *coef)
        lo = 0
        for _, dm, dv, dx in members:
            hi = lo + dx.size
            # flat views, as below
            dm.ravel()[:] = m[lo:hi]
            dv.ravel()[:] = v[lo:hi]
            dx.ravel()[:] = x[lo:hi]
            lo = hi
        return total

    # the open pack's (g, m, v, x) arrays and its element count
    pack, held = [], 0
    for name, p in store.items():
        size = p.data.size
        tensors = p.grad, state.m[name], state.v[name], p.data
        if size < ops.CHUNK:
            if held + size > ops.CHUNK:
                sq += flush(pack, held)
                pack, held = [], 0
            pack.append(tensors)
            held += size
            continue
        buf_a, buf_b = scratch[:2]
        # flat views: parameters (Tensor.data) and moments (OptimizerState)
        # are C-contiguous, so the in-place writes below land in them
        flat = [t.ravel() for t in tensors]
        for lo in range(0, size, ops.CHUNK):
            g, m, v, x = (f[lo:lo + ops.CHUNK] for f in flat)
            sq += _adam_update(g, m, v, x, buf_a[:g.size], buf_b[:g.size], *coef)
    if pack:
        sq += flush(pack, held)
    return math.sqrt(sq)


@dataclass
class TrainingReport:
    records: list = field(default_factory=list)
    checkpoints: list = field(default_factory=list)
    wall_time_s: float = 0.0

    @property
    def losses(self) -> list:
        return [r["loss"] for r in self.records]


def _stack_batch(pairs, idxs, dtype):
    xs = np.stack([pairs[i][0] for i in idxs]).astype(dtype, copy=False)
    ys = np.stack([pairs[i][1] for i in idxs]).astype(dtype, copy=False)
    return xs, ys


def _truncate_report(path: Path, start_step: int):
    """Keep the records of steps before ``start_step``.

    A run that died after its last checkpoint logged later steps, the last
    record possibly torn (every complete record ends in a newline).  A
    complete line that is not a JSON object with an integer ``step`` raises
    DataError naming its line number, and the file is left as it was.
    """
    *complete, _torn = path.read_text().split("\n")
    kept = []
    for number, line in enumerate(complete, start=1):
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        step = record.get("step") if isinstance(record, dict) else None
        if not _is_count(step):
            raise DataError(f"{path} line {number} is not a step record")
        if step < start_step:
            kept.append(line + "\n")
    path.write_text("".join(kept))


def train_loop(model, pairs, cfg: TrainConfig, out_dir=None, resume=None,
               log=None, data_recipe: dict | None = None) -> TrainingReport:
    """Run (or continue) a training run to cfg.steps total optimizer steps.

    pairs: list of (degraded, clean) CHW arrays.  data_recipe (optional):
    the JSON-able settings ``pairs`` were built from, recorded in every
    checkpoint.  out_dir (optional) gets report.jsonl plus ckpt_final and
    any periodic checkpoints.  resume: a checkpoint stem written by a
    previous run with the same TrainConfig (checkpoint_every aside),
    parameter dtype and data recipe, else ConfigError naming the first
    difference; or the (manifest, arrays) pair ``load_checkpoint`` read
    from one, when the caller built ``model`` from those arrays.  The
    report then keeps the records before the checkpoint's step, so each
    step appears once.

    Each record holds the loss and its ``pixel_loss`` and ``fourier_loss``
    parts, the gradients' global L2 norm ``grad_norm`` (before the update),
    and the step's ``wall_ms`` split into ``fwd_ms`` (releasing the
    previous step's gradients, the forward and the loss), ``bwd_ms`` and
    ``optim_ms``.  A step holds the parameters, the two moments and its
    tape at its peak: the previous gradients are released before the
    forward.  The last step's gradients stay on the parameters.
    """
    cfg.validate()
    if not pairs:
        raise ConfigError("training needs at least one (degraded, clean) pair")
    store = model.store
    state = OptimizerState(store)
    rng = np.random.default_rng(cfg.seed)
    start_step = 0

    if resume is not None:
        manifest, arrays = resume if isinstance(resume, tuple) else load_checkpoint(resume)
        where = "the resumed checkpoint" if isinstance(resume, tuple) else f"checkpoint {resume}"
        ts = manifest.get("train_state")
        if ts is not None and not isinstance(ts, dict):
            raise DataError(f"{where} has a train_state that is not an object: {ts!r}")
        if "step" not in (ts or {}):
            raise ConfigError(f"{where} has no training state to resume from")
        for key in ("train_config", "data_recipe"):
            if ts.get(key) is not None and not isinstance(ts[key], dict):
                raise DataError(f"{where} has a {key} that is not an object: {ts[key]!r}")
        params, optim = split_optim(arrays)
        saved = {"dtype": str(next(iter(params.values())).dtype), **(ts.get("train_config") or {}),
                 **(ts.get("data_recipe") or {})}
        for name, value in {"dtype": str(store.dtype), **asdict(cfg), **(data_recipe or {})}.items():
            # checkpoint_every only decides when snapshots are written
            if name != "checkpoint_every" and saved.get(name) != value:
                raise ConfigError(f"{where} has {name}={saved.get(name)!r}, "
                                  f"this run has {value!r}")
        start_step = ts["step"]
        if not _is_count(start_step) or start_step > cfg.steps:
            raise DataError(f"{where} has step={start_step!r}, "
                            f"not an integer from 0 to steps={cfg.steps}")
        rng_state = ts.get("rng_state")
        counter = rng_state.get("state") if isinstance(rng_state, dict) else None
        # the setter truncates a float or bool state or inc instead of refusing it
        if isinstance(counter, dict) and not all(_is_count(counter.get(k)) for k in ("state", "inc")):
            raise DataError(f"{where} has an rng_state whose state and inc are not both integers: {counter!r}")
        try:
            rng.bit_generator.state = rng_state
        except (TypeError, ValueError, KeyError, OverflowError) as e:
            raise DataError(f"{where} has an rng_state the generator cannot take: {e}") from None
        store.load_arrays(params)
        state.load_arrays(optim, start_step)

    out_dir = Path(out_dir) if out_dir is not None else None
    report_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        report_path = out_dir / "report.jsonl"
        if report_path.exists():
            _truncate_report(report_path, start_step)

    def snapshot(tag: str, step: int) -> Path:
        train_state = {"step": step, "rng_state": rng.bit_generator.state,
                       "train_config": asdict(cfg), "data_recipe": data_recipe}
        stem = save_model(model, out_dir / tag, train_state=train_state,
                          optim_arrays=state.arrays())
        report.checkpoints.append(str(stem))
        return stem

    report = TrainingReport()
    t_start = time.time()
    replace_draw = len(pairs) < cfg.batch_size
    for step in range(start_step, cfg.steps):
        idxs = rng.choice(len(pairs), size=cfg.batch_size, replace=replace_draw)
        xs, ys = _stack_batch(pairs, idxs, store.dtype)
        t0 = time.perf_counter()
        # the previous step's gradients go before the new tape grows
        store.zero_grads()
        pred = model.forward(xs)
        parts = {}
        loss = l1_fourier_loss(pred, Tensor(ys), cfg.lambda_fourier, parts)
        loss_val = float(loss.data)
        if not np.isfinite(loss_val):
            # localise the blow-up: re-run the same forward under tracing
            try:
                with finite_trace():
                    l2 = l1_fourier_loss(model.forward(xs), Tensor(ys), cfg.lambda_fourier)
                    float(l2.data)
            except NumericsError as e:
                raise NumericsError(f"training aborted at step {step}: {e}") from None
            raise NumericsError(f"training aborted at step {step}: non-finite loss")
        t1 = time.perf_counter()
        loss.backward()
        t2 = time.perf_counter()
        lr = cosine_lr(step, cfg.steps, cfg.lr0, cfg.lr_min)
        t3 = time.perf_counter()
        grad_norm = adam_step(store, state, lr)
        t4 = time.perf_counter()
        record = {"step": step, "lr": lr, "loss": loss_val, "pixel_loss": parts["pixel"],
                  "fourier_loss": parts["fourier"], "grad_norm": grad_norm, "wall_ms": (t4 - t0) * 1000.0,
                  "fwd_ms": (t1 - t0) * 1000.0, "bwd_ms": (t2 - t1) * 1000.0,
                  "optim_ms": (t4 - t3) * 1000.0}
        report.records.append(record)
        if report_path is not None:
            with report_path.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
        if log is not None:
            log(record)
        done = step + 1
        if out_dir is not None and cfg.checkpoint_every and done % cfg.checkpoint_every == 0 and done < cfg.steps:
            snapshot(f"ckpt_step{done:06d}", done)
    if out_dir is not None:
        snapshot("ckpt_final", cfg.steps)
    report.wall_time_s = time.time() - t_start
    return report
