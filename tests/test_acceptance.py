"""Top-level acceptance checks, one verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines
as they complete.  Criterion 7 trains a tiny model for 500 steps and takes
a few minutes; everything else finishes in seconds.
"""

import time

import numpy as np
import pytest

from restorekit import gradcheck, ops
from restorekit.attention import GatedChannelAttention, TransformerBlock
from restorekit.checkpoint import load_model, save_model
from restorekit.degrade import DegradationSpec, degrade, make_patch_set, procedural_image
from restorekit.fusion import GatedSkipFusion
from restorekit.metrics import _gaussian_window, psnr, ssim
from restorekit.model import (RestorationModel, ablation_variants, full_config,
                              small_config, tiny_config)
from restorekit.params import ParamStore
from restorekit.prompts import PromptConfig, PromptGenerator
from restorekit.spectral import DualDomainBottleneck
from restorekit.tensor import Tensor, no_grad
from restorekit.train import TrainConfig, train_loop


def _verdict(num: int, label: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[criterion {num:2d}] {label}: {status}")
    assert not failures, f"criterion {num} ({label}): {failures}"


def test_criterion_01_gradient_soundness():
    failures = []
    t0 = time.monotonic()
    for seed in range(5):
        for name, err in gradcheck.check_primitives(seed).items():
            if err > 1e-4:
                failures.append(f"primitive {name} seed {seed}: {err:.2e}")
        for name, err in gradcheck.check_modules(seed).items():
            if err > 1e-4:
                failures.append(f"module {name} seed {seed}: {err:.2e}")
    model_err = gradcheck.check_model(seed=0, samples=120)
    if model_err > 1e-3:
        failures.append(f"model end-to-end: {model_err:.2e}")
    elapsed = time.monotonic() - t0
    if elapsed > 300:
        failures.append(f"runtime {elapsed:.0f}s > 300s")
    _verdict(1, "gradient soundness (<=1e-4 modules, <=1e-3 model, 5 seeds)", failures)


def test_criterion_02_spectral_correctness():
    failures = []
    rng = np.random.default_rng(0)
    for h, w in ((6, 10), (7, 7)):
        x = rng.normal(size=(2, 3, h, w))
        back = ops.ifft2d(ops.fft2d(Tensor(x))).data
        rt = np.max(np.abs(back - x)) / max(np.max(np.abs(x)), 1e-12)
        if rt > 1e-6:
            failures.append(f"round trip {h}x{w}: {rt:.2e}")
        spec = ops.fft2d(Tensor(x))
        spatial = float((x ** 2).sum())
        spectral = float((spec.data ** 2).sum()) / (h * w)
        pv = abs(spatial - spectral) / max(spatial, 1e-12)
        if pv > 1e-6:
            failures.append(f"parseval {h}x{w}: {pv:.2e}")

    store = ParamStore(seed=1, dtype=np.float64)
    neck = DualDomainBottleneck(store, "n", channels=4, global_dim=6)
    p = Tensor(rng.normal(size=(1, 6)))
    a = rng.normal(size=(1, 4, 8, 8))
    b = rng.normal(size=(1, 4, 8, 8))
    fa = neck.frequency_branch(Tensor(a), p).data
    fb = neck.frequency_branch(Tensor(b), p).data
    for alpha in (2.0, -0.5):
        fs = neck.frequency_branch(Tensor(alpha * a), p).data
        hom = np.max(np.abs(fs - alpha * fa)) / max(np.max(np.abs(alpha * fa)), 1e-12)
        if hom > 1e-6:
            failures.append(f"homogeneity alpha={alpha}: {hom:.2e}")
    fab = neck.frequency_branch(Tensor(a + b), p).data
    add = np.max(np.abs(fab - fa - fb)) / max(np.max(np.abs(fab)), 1e-12)
    if add > 1e-6:
        failures.append(f"additivity: {add:.2e}")
    _verdict(2, "spectral round-trip/Parseval and frequency-path linearity (<=1e-6)", failures)


def test_criterion_03_gating_invariants():
    failures = []
    rng = np.random.default_rng(2)

    def check(label, gate, reference=None):
        if gate.size < 10_000:
            failures.append(f"{label}: only {gate.size} samples")
        if not (np.all(gate > 0.0) and np.all(gate < 1.0)):
            failures.append(f"{label}: gate leaves open interval (0,1)")
        if reference is not None:
            gated, base = reference
            if not np.all(np.abs(gated) <= np.abs(base) + 1e-12):
                failures.append(f"{label}: |x*g| > |x| somewhere")

    # prompt-generator spatial self-gate
    store = ParamStore(seed=0, dtype=np.float64)
    gen = PromptGenerator(store, "p", PromptConfig(channels=4, global_dim=8))
    x = Tensor(rng.normal(size=(32, 4, 18, 18)))
    fused = gen.fuse(ops.concat(gen.multi_scale(x), axis=1))
    g = ops.sigmoid(gen.gate_dw(fused)).data
    check("prompt self-gate", g, (fused.data * g, fused.data))

    # skip-fusion joint attention map
    store = ParamStore(seed=1, dtype=np.float64)
    fuse = GatedSkipFusion(store, "f", channels=4)
    enc = rng.normal(size=(18, 4, 12, 12))
    dec = rng.normal(size=(18, 4, 12, 12))
    a = fuse.attention(ops.concat([Tensor(enc), Tensor(dec)], axis=1)).data
    check("skip-fusion attention", a, (enc * a, enc))

    # attention output gate (per sample x channel)
    store = ParamStore(seed=2, dtype=np.float64)
    attn = GatedChannelAttention(store, "a", channels=8, heads=2, prompt_dim=6)
    prompts = Tensor(rng.normal(size=(1250, 6)))
    gates = ops.sigmoid(attn.gate(prompts)).data
    xa = Tensor(rng.normal(size=(1250, 8, 4, 4)))
    base = attn.attend(xa, prompts).data
    gated = base * gates[:, :, None, None]
    check("attention output gate", gates, (gated, base))

    # frequency-domain modulation mask
    store = ParamStore(seed=3, dtype=np.float64)
    neck = DualDomainBottleneck(store, "n", channels=4, global_dim=6)
    m = neck.frequency_gate(Tensor(rng.normal(size=(1250, 6)))).data
    z = rng.normal(size=(1250, 8))
    check("frequency gate", m, (z * m, z))

    _verdict(3, "sigmoid gates strictly in (0,1), attenuation on >=1e4 samples", failures)


def test_criterion_04_attention_contracts():
    failures = []
    rng = np.random.default_rng(3)

    store = ParamStore(seed=0, dtype=np.float64)
    attn = GatedChannelAttention(store, "a", channels=8, heads=2, prompt_dim=6)
    x = Tensor(rng.normal(size=(3, 8, 6, 6)))
    prompt = Tensor(rng.normal(size=(3, 6)))
    qkv = attn.qkv_dw(attn.qkv(x))
    tau = attn.temperatures(prompt)
    # the softmax map the network's channel_attention computes
    rows = ops._channel_attention_map(qkv.data, attn.heads, tau.data)[-1].sum(axis=-1)
    if np.max(np.abs(rows - 1.0)) > 1e-6:
        failures.append(f"row sums off by {np.max(np.abs(rows - 1.0)):.2e}")

    for trial in range(10):
        logit_set = np.random.default_rng(100 + trial).normal(scale=3.0, size=8)
        ents = []
        for t in (0.25, 0.5, 1.0, 2.0, 4.0):
            p = ops.softmax(Tensor(logit_set / t)).data
            ents.append(float(-(p * np.log(p + 1e-300)).sum()))
        if not np.all(np.diff(ents) >= -1e-9):
            failures.append(f"entropy not nondecreasing for logit set {trial}: {ents}")

    attn.theta_base.data[:] = 0.0
    attn.temp_map.weight.data[:] = 0.0
    attn.temp_map.bias.data[:] = 0.0
    tau = attn.temperatures(Tensor(rng.normal(size=(4, 6)))).data
    if not np.all(tau == 1.0):
        failures.append(f"temperature at zero params is {tau.ravel()[:4]}, not exactly 1")
    _verdict(4, "attention rows sum to 1, entropy monotone in tau, tau=1 exact at zero", failures)


def test_criterion_05_structural_fidelity():
    failures = []
    n_full = RestorationModel(full_config()).param_count()
    n_small = RestorationModel(small_config()).param_count()
    if abs(n_full - 30_860_000) / 30_860_000 > 0.20:
        failures.append(f"full model {n_full:,} outside 30.86M +-20%")
    if abs(n_small - 13_850_000) / 13_850_000 > 0.20:
        failures.append(f"small model {n_small:,} outside 13.85M +-20%")
    cfg_plain = full_config()
    cfg_plain.use_agf = False
    n_plain = RestorationModel(cfg_plain).param_count()
    overhead = (n_full - n_plain) / n_plain
    if not (0 < overhead <= 0.02):
        failures.append(f"skip-fusion overhead {overhead:.3%} outside (0, 2%]")
    cfg = full_config()
    if cfg.enc_blocks != (4, 6, 6, 8) or cfg.refinement_blocks != 4:
        failures.append("full config block layout drifted")
    _verdict(5, f"parameter budgets (full {n_full:,}, small {n_small:,}, "
                f"fusion overhead {overhead:.2%})", failures)


def test_criterion_06_ablation_matrix():
    failures = []
    t0 = time.monotonic()
    rng = np.random.default_rng(0)
    x = rng.uniform(0.1, 0.9, size=(1, 3, 32, 32)).astype(np.float32)
    counts = {}
    for label, cfg in ablation_variants(full_config()):
        model = RestorationModel(cfg)
        y = model.forward(x)
        if y.shape != (1, 3, 32, 32):
            failures.append(f"{label}: bad output shape {y.shape}")
        model.store.zero_grads()
        ops.tmean(ops.square(y)).backward()
        missing = [nm for nm, p in model.store.items() if p.grad is None]
        if missing:
            failures.append(f"{label}: no gradient for {missing[:2]}")
        counts[label] = model.param_count()
    if len(counts) != 11:
        failures.append(f"expected 11 variants, got {len(counts)}")
    # the eight module on/off combinations are structurally distinct
    combo_labels = ["plain baseline", "skip-fusion only", "dual-domain only",
                    "gated-attention only", "skip-fusion+dual-domain",
                    "dual-domain+gated-attn", "skip-fusion+gated-attn", "full"]
    combo_counts = [counts[l] for l in combo_labels]
    if len(set(combo_counts)) != 8:
        failures.append(f"module-combination counts collide: {sorted(combo_counts)}")
    if counts["temperature only"] == counts["output-gate only"]:
        failures.append("temperature-only and gate-only have equal counts")
    elapsed = time.monotonic() - t0
    if elapsed > 120:
        failures.append(f"runtime {elapsed:.0f}s > 120s")
    _verdict(6, f"11 ablation variants forward+backward in {elapsed:.0f}s", failures)


def test_criterion_07_tiny_learning_check(tmp_path):
    failures = []
    t0 = time.monotonic()
    pairs = make_patch_set(DegradationSpec(kind="gaussian_noise", sigma=25.0),
                           count=80, patch=32, seed=0)
    train_pairs, eval_pairs = pairs[:64], pairs[64:]
    model = RestorationModel(tiny_config(seed=0))
    cfg = TrainConfig(steps=500, batch_size=8, lr0=1e-3, seed=0)
    report = train_loop(model, train_pairs, cfg, out_dir=tmp_path)
    losses = report.losses
    first, last = float(np.mean(losses[:50])), float(np.mean(losses[-50:]))
    if last > 0.5 * first:
        failures.append(f"loss ratio {last / first:.3f} > 0.5 "
                        f"(first50 {first:.4f}, last50 {last:.4f})")
    deg_db, res_db = [], []
    with no_grad():
        for deg, clean in eval_pairs:
            pred = np.clip(model.forward(deg[None]).data[0], 0.0, 1.0)
            deg_db.append(psnr(deg, clean))
            res_db.append(psnr(pred, clean))
    gain = float(np.mean(res_db) - np.mean(deg_db))
    if gain < 1.5:
        failures.append(f"holdout gain {gain:.2f} dB < 1.5 dB")
    elapsed = time.monotonic() - t0
    if elapsed > 600:
        failures.append(f"runtime {elapsed:.0f}s > 600s")
    _verdict(7, f"500-step denoise run (loss x{last / max(first, 1e-12):.2f}, "
                f"{gain:+.2f} dB, {elapsed:.0f}s)", failures)


def test_criterion_08_metric_oracles():
    failures = []
    rng = np.random.default_rng(4)
    a = rng.uniform(0, 1, size=(13, 11, 3))
    b = np.clip(a + rng.normal(0, 0.06, size=a.shape), 0, 1)
    acc = 0.0
    for x, y in zip(a.reshape(-1), b.reshape(-1)):
        acc += (x - y) ** 2
    want_psnr = 10.0 * np.log10(1.0 / (acc / a.size))
    if abs(psnr(a, b) - want_psnr) > 1e-9:
        failures.append(f"psnr off oracle by {abs(psnr(a, b) - want_psnr):.2e}")

    g = rng.uniform(0, 1, size=(14, 13))
    h = np.clip(g + rng.normal(0, 0.08, size=g.shape), 0, 1)
    win = _gaussian_window()
    total, cnt = 0.0, 0
    c1, c2 = 0.01 ** 2, 0.03 ** 2
    for i in range(14 - 10):
        for j in range(13 - 10):
            pa, pb = g[i:i + 11, j:j + 11], h[i:i + 11, j:j + 11]
            mx, my = (pa * win).sum(), (pb * win).sum()
            vx = (pa * pa * win).sum() - mx * mx
            vy = (pb * pb * win).sum() - my * my
            cov = (pa * pb * win).sum() - mx * my
            total += ((2 * mx * my + c1) * (2 * cov + c2)) / \
                     ((mx * mx + my * my + c1) * (vx + vy + c2))
            cnt += 1
    if abs(ssim(g, h) - total / cnt) > 1e-4:
        failures.append(f"ssim off oracle by {abs(ssim(g, h) - total / cnt):.2e}")

    vals = []
    img_rng = np.random.default_rng(0)
    for i in range(24):
        clean = procedural_image(64, 64, img_rng)
        noisy = degrade(clean, DegradationSpec(sigma=25.0, seed=500 + i))
        vals.append(psnr(noisy, clean))
    mean_db = float(np.mean(vals))
    if abs(mean_db - 20.2) > 0.5:
        failures.append(f"sigma=25 noise measures {mean_db:.2f} dB, want 20.2 +- 0.5")
    _verdict(8, f"psnr/ssim oracles, sigma=25 at {mean_db:.2f} dB", failures)


def test_criterion_09_determinism_and_persistence(tmp_path):
    failures = []
    pairs = make_patch_set(DegradationSpec(sigma=25.0), count=8, patch=16, seed=0)

    def run(out):
        model = RestorationModel(tiny_config(seed=0), dtype=np.float64)
        cfg = TrainConfig(steps=6, batch_size=2, lr0=1e-3, seed=0, checkpoint_every=3)
        return model, train_loop(model, pairs, cfg, out_dir=out)

    _, r1 = run(tmp_path / "a")
    _, r2 = run(tmp_path / "b")
    if r1.losses != r2.losses:
        failures.append("loss curves not bit-identical across identical seeds")
    bin_a = (tmp_path / "a" / "ckpt_final.bin").read_bytes()
    bin_b = (tmp_path / "b" / "ckpt_final.bin").read_bytes()
    if bin_a != bin_b:
        failures.append("checkpoint payloads differ across identical seeds")

    model = RestorationModel(tiny_config(seed=3))
    x = Tensor(np.random.default_rng(1).uniform(0.1, 0.9, size=(1, 3, 16, 16))
               .astype(np.float32))
    before = model.forward(x).data.copy()
    save_model(model, tmp_path / "solo")
    loaded, _, _ = load_model(tmp_path / "solo")
    if not np.array_equal(loaded.forward(x).data, before):
        failures.append("save -> load -> forward not bit-identical")

    resumed = RestorationModel(tiny_config(seed=0), dtype=np.float64)
    cont = train_loop(resumed, pairs, TrainConfig(steps=6, batch_size=2, lr0=1e-3, seed=0),
                      resume=tmp_path / "a" / "ckpt_step000003")
    drift = np.max(np.abs(np.array(cont.losses) - np.array(r1.losses[3:])))
    if drift > 1e-6:
        failures.append(f"resume drifts by {drift:.2e} > 1e-6")
    _verdict(9, "bit-identical curves/checkpoints, exact reload, resume <=1e-6", failures)


def test_criterion_10_residual_identities():
    failures = []
    rng = np.random.default_rng(5)

    store = ParamStore(seed=0, dtype=np.float64)
    block = TransformerBlock(store, "b", channels=8, heads=2, prompt_dim=6)
    block.attn.proj.weight.data[:] = 0.0
    block.attn.proj.bias.data[:] = 0.0
    block.ffn.project_out.weight.data[:] = 0.0
    block.ffn.project_out.bias.data[:] = 0.0
    x = rng.normal(size=(2, 8, 6, 6))
    if not np.array_equal(block(Tensor(x), Tensor(rng.normal(size=(2, 6)))).data, x):
        failures.append("zeroed transformer block is not an exact identity")

    store = ParamStore(seed=1, dtype=np.float64)
    neck = DualDomainBottleneck(store, "n", channels=4, global_dim=6)
    neck.fuse.weight.data[:] = 0.0
    neck.fuse.bias.data[:] = 0.0
    xf = rng.normal(size=(1, 4, 8, 8))
    if not np.array_equal(neck(Tensor(xf), Tensor(rng.normal(size=(1, 6)))).data, xf):
        failures.append("zeroed bottleneck does not return its input exactly")

    model = RestorationModel(tiny_config(seed=2), dtype=np.float64)
    model.conv_out.weight.data[:] = 0.0
    model.conv_out.bias.data[:] = 0.0
    xi = rng.uniform(0.1, 0.9, size=(1, 3, 32, 32))
    if not np.array_equal(model.forward(Tensor(xi)).data, xi):
        failures.append("zeroed output projection does not give the identity model")
    _verdict(10, "zeroed projections give exact identities (block/bottleneck/model)", failures)
