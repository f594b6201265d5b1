"""What the benchmark under perfbench/ needs of the package's op surface.

``spans.Tracer`` wraps every op it names with ``getattr(ops, name)``, and
``checks.FirstConvCalls`` calls ``ops.conv2d(x, weight, bias, stride,
padding, groups)`` positionally; an op removed or a parameter dropped
crashes every benchmark run.  Both must also leave ``ops`` as they found it.
``checks.conv_checks`` recomputes the first call of each conv kind in a
model forward, with the padding ``Conv2d`` passed, and both gradients; a
change to either fails here, not only in a benchmark run.  So does
``checks.adam_check``, which runs ``adam_step`` on moments it builds as
standalone arrays.
"""

from pathlib import Path

import numpy as np

from restorekit import ops
from restorekit.model import RestorationModel, tiny_config
from restorekit.tensor import Tensor


def test_tracer_and_conv_capture_run_and_restore_ops(monkeypatch, rng):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import checks
    import spans

    before = dict(vars(ops))
    model = RestorationModel(tiny_config(seed=0))
    x = rng.uniform(0.1, 0.9, size=(1, 3, 16, 16)).astype(np.float32)
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.per_op = True
        ops.tmean(ops.square(model.forward(x))).backward()
    finally:
        tracer.uninstall()
    assert tracer.nodes > 0
    assert tracer.calls["conv2d.1x1"] > 0 and tracer.bwd["attention"] > 0

    calls = checks.FirstConvCalls()
    with calls.capture():
        w = Tensor(rng.normal(size=(4, 3, 3, 3)).astype(np.float32))
        ops.conv2d(Tensor(x), w)
    assert list(calls.calls) == ["conv2d.3x3"]

    # a model forward, captured as the benchmark does: each kind's first
    # call, as Conv2d makes it, passes the oracle with both gradients
    calls = checks.FirstConvCalls()
    with calls.capture():
        model.forward(x)
    results = checks.conv_checks(calls, seed=0)
    assert sorted(results) == sorted(f"conv_oracle.{kind}" for kind in spans.CONV_KINDS)
    assert all(ok for ok, _ in results.values()), results

    after = dict(vars(ops))
    assert after.keys() == before.keys()
    assert all(after[name] is before[name] for name in before)


def test_adam_check_passes_after_a_backward(monkeypatch, rng):
    # one adam_step on a tiny model's gradients against the formula, with
    # seeded moments that are not views of OptimizerState's buffers
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import checks

    model = RestorationModel(tiny_config(seed=0))
    x = rng.uniform(0.1, 0.9, size=(2, 3, 16, 16)).astype(np.float32)
    ops.tmean(ops.square(model.forward(x))).backward()
    ok, detail = checks.adam_check(model.store, seed=0)
    assert ok, detail
