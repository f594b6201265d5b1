"""Four-level U-shaped restoration backbone.

Encoder levels run at widths c, 2c, 4c, 8c (pixel-unshuffle downsampling),
the bottleneck optionally passes through the dual-domain module, and the
decoder mirrors the encoder with gated (or plain) skip fusion at levels
1-3.  A refinement stage at full resolution feeds a 3x3 projection whose
output is added to the input image, so the network always predicts a
residual.

:class:`ModelConfig` holds what a preset or an ablation varies, :data:`FIXED` the rest.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

import numpy as np

from . import ops
from .attention import TransformerBlock
from .errors import ConfigError, ShapeError
from .fusion import GatedSkipFusion, PlainSkipFusion
from .layers import Conv2d
from .params import ParamStore
from .prompts import DegradationContext, PromptConfig, PromptGenerator
from .spectral import DualDomainBottleneck
from .tensor import Tensor


# Values no preset or ablation varies; ffn_expansion and norm_eps are Restormer's.
FIXED = {"num_scales": 3, "global_dim": 256, "ffn_expansion": 2.66, "norm_eps": 1e-6,
         "gn_groups": 4, "se_reduction": 4}


@dataclass
class ModelConfig:
    base_channels: int = 48
    enc_blocks: tuple = (4, 6, 6, 8)      # levels 1-3 plus bottleneck; decoder mirrors 1-3
    refinement_blocks: int = 4
    heads: tuple = (1, 2, 4, 8)
    use_agf: bool = True                  # gated skip fusion (off: plain concat+1x1)
    use_cgdm: bool = True                 # dual-domain bottleneck
    use_adaptive_temp: bool = True        # prompt-driven attention temperature (off: 1)
    use_gated_output: bool = True         # prompt-driven attention output gate (off: none)
    seed: int = 0

    def level_widths(self) -> list[int]:
        return [self.base_channels * (2 ** i) for i in range(4)]

    def validate(self):
        if len(self.enc_blocks) != 4 or len(self.heads) != 4:
            raise ConfigError("enc_blocks and heads must have one entry per level (4)")
        groups = FIXED["gn_groups"]  # the skip fusion's GroupNorm splits base_channels into these
        if self.base_channels < 1 or self.base_channels % groups:
            raise ConfigError(f"base_channels={self.base_channels} is not a positive multiple of {groups}")
        if any(b < 1 for b in self.enc_blocks) or self.refinement_blocks < 0:
            raise ConfigError("block counts must be positive")
        for w, h in zip(self.level_widths(), self.heads):
            if h < 1 or w % h:  # h < 1 first: a 0 would escape as ZeroDivisionError
                raise ConfigError(f"heads={h} does not divide width {w}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


def full_config(seed: int = 0) -> ModelConfig:
    return ModelConfig(seed=seed)


def small_config(seed: int = 0) -> ModelConfig:
    return ModelConfig(base_channels=32, seed=seed)


def tiny_config(seed: int = 0) -> ModelConfig:
    """Desk-scale variant for tests and smoke training."""
    return ModelConfig(base_channels=8, enc_blocks=(1, 1, 1, 1), refinement_blocks=1,
                       heads=(1, 1, 2, 2), seed=seed)


PRESETS = {"tiny": tiny_config, "small": small_config, "full": full_config}


def config_by_name(name: str, seed: int = 0) -> ModelConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown model size '{name}' (expected {'/'.join(sorted(PRESETS))})")
    return PRESETS[name](seed)


class RestorationModel:
    """Image in, restored image out; all parameters live in ``self.store``.

    ``arrays`` (name -> array, e.g. from a checkpoint) supplies every
    parameter in place of a random draw; a missing, unexpected or misshaped
    name raises ShapeError.
    """

    DOWNSCALE = 8  # three pixel-unshuffle stages

    def __init__(self, config: ModelConfig, dtype=np.float32, arrays: dict | None = None):
        config.validate()
        self.config = config
        self.store = ParamStore(seed=config.seed, dtype=dtype, arrays=arrays)
        store = self.store
        c = config.base_channels
        widths = config.level_widths()
        temp, gate = config.use_adaptive_temp, config.use_gated_output

        def block(name: str, level: int) -> TransformerBlock:
            prompt_dim = widths[level] if (temp or gate) else None
            return TransformerBlock(store, name, widths[level], config.heads[level],
                                    prompt_dim, temp, gate,
                                    FIXED["ffn_expansion"], FIXED["norm_eps"])

        self.conv_in = Conv2d(store, "conv_in", 3, c, 3)
        self.prompts = None
        if config.use_cgdm or temp or gate:
            # level prompts only exist when some block consumes them; the
            # bottleneck alone just needs the global vector
            pc = PromptConfig(channels=c, num_scales=FIXED["num_scales"],
                              global_dim=FIXED["global_dim"],
                              num_levels=4 if (temp or gate) else 0)
            self.prompts = PromptGenerator(store, "prompts", pc)

        self.encoder = [
            [block(f"encoder{lvl + 1}.block{i}", lvl) for i in range(config.enc_blocks[lvl])]
            for lvl in range(3)
        ]
        self.down = [
            Conv2d(store, f"down{lvl + 1}", 4 * widths[lvl], widths[lvl + 1], 1, bias=False)
            for lvl in range(3)
        ]
        self.latent = [block(f"latent.block{i}", 3) for i in range(config.enc_blocks[3])]
        self.bottleneck = None
        if config.use_cgdm:
            self.bottleneck = DualDomainBottleneck(store, "bottleneck", widths[3], FIXED["global_dim"])

        self.up = [
            Conv2d(store, f"up{lvl + 1}", widths[lvl + 1], 4 * widths[lvl], 1, bias=False)
            for lvl in reversed(range(3))
        ]  # ordered deepest-first: up3 (8c->4c), up2, up1
        fusion_cls = GatedSkipFusion if config.use_agf else PlainSkipFusion
        self.fusion = [
            fusion_cls(store, f"fusion{lvl + 1}", widths[lvl],
                       gn_groups=FIXED["gn_groups"], se_reduction=FIXED["se_reduction"])
            for lvl in reversed(range(3))
        ]
        self.decoder = [
            [block(f"decoder{lvl + 1}.block{i}", lvl) for i in range(config.enc_blocks[lvl])]
            for lvl in reversed(range(3))
        ]
        self.refinement = [block(f"refinement.block{i}", 0) for i in range(config.refinement_blocks)]
        self.conv_out = Conv2d(store, "conv_out", c, 3, 3)
        store.check_stored()

    # -- plumbing ---------------------------------------------------------
    @property
    def dtype(self):
        return self.store.dtype

    def param_count(self) -> int:
        return self.store.total_parameters()

    def _downsample(self, x: Tensor, level: int) -> Tensor:
        return self.down[level](ops.pixel_unshuffle(x, 2))

    def _upsample(self, x: Tensor, idx: int) -> Tensor:
        return ops.pixel_shuffle(self.up[idx](x), 2)

    def _run(self, blocks, x: Tensor, prompt: Tensor | None) -> Tensor:
        for b in blocks:
            x = b(x, prompt)
        return x

    def context(self, shallow: Tensor) -> DegradationContext | None:
        return self.prompts(shallow) if self.prompts is not None else None

    def forward(self, x) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=self.store.dtype))
        if x.ndim != 4 or x.shape[1] != 3:
            raise ShapeError(f"expected (n, 3, h, w) input, got {x.shape}")
        n, _, h, w = x.shape
        if h < 1 or w < 1 or h % self.DOWNSCALE or w % self.DOWNSCALE:
            raise ShapeError(f"spatial dims must be positive multiples of {self.DOWNSCALE}, got {h}x{w}")
        if x.data.dtype != self.store.dtype:
            x = Tensor(x.data.astype(self.store.dtype), requires_grad=x.requires_grad)

        shallow = self.conv_in(x)
        ctx = self.context(shallow)

        def prompt(level: int):
            if ctx is None or not ctx.level_prompts:
                return None
            return ctx.prompt(level)

        skips = []
        feat = shallow
        for lvl in range(3):
            feat = self._run(self.encoder[lvl], feat, prompt(lvl + 1))
            skips.append(feat)
            feat = self._downsample(feat, lvl)
        feat = self._run(self.latent, feat, prompt(4))
        if self.bottleneck is not None:
            feat = self.bottleneck(feat, ctx.global_feature)

        for idx, lvl in enumerate(reversed(range(3))):  # lvl = 2, 1, 0
            feat = self._upsample(feat, idx)
            feat = self.fusion[idx](skips[lvl], feat)
            feat = self._run(self.decoder[idx], feat, prompt(lvl + 1))

        feat = self._run(self.refinement, feat, prompt(1))
        return ops.add(x, self.conv_out(feat))

    __call__ = forward


def ablation_variants(base: ModelConfig | None = None) -> list[tuple[str, ModelConfig]]:
    """Module on/off matrix: single/pair/full toggles plus modulation sub-toggles."""
    from dataclasses import replace

    base = base or full_config()
    rows = [  # label, use_agf, use_cgdm, use_adaptive_temp, use_gated_output
        ("skip-fusion only",        True,  False, False, False),
        ("dual-domain only",        False, True,  False, False),
        ("gated-attention only",    False, False, True,  True),
        ("skip-fusion+dual-domain", True,  True,  False, False),
        ("dual-domain+gated-attn",  False, True,  True,  True),
        ("skip-fusion+gated-attn",  True,  False, True,  True),
        ("full",                    True,  True,  True,  True),
        ("plain baseline",          False, False, False, False),
        ("temperature only",        False, False, True,  False),
        ("output-gate only",        False, False, False, True),
        ("temperature+gate",        False, False, True,  True),
    ]
    return [(label, replace(base, use_agf=agf, use_cgdm=cgdm, use_adaptive_temp=temp, use_gated_output=gate))
            for label, agf, cgdm, temp, gate in rows]


def config_to_dict(config: ModelConfig) -> dict:
    d = asdict(config)
    d["enc_blocks"] = list(config.enc_blocks)
    d["heads"] = list(config.heads)
    return d


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def config_from_dict(d: dict) -> ModelConfig:
    """The config a manifest records.  Older manifests also carry :data:`FIXED`'s keys and
    ``use_caga``, taken only at the values that build the same network (``use_caga`` true).
    A field of another type than its default's raises ConfigError naming it."""
    d = dict(d)
    for key, fixed in {**FIXED, "use_caga": True}.items():
        if key in d:
            value = d.pop(key)
            if type(value) is not type(fixed) or value != fixed:
                raise ConfigError(f"{key} is fixed at {fixed!r}, got {value!r}")
    known = {f.name for f in ModelConfig.__dataclass_fields__.values()}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown config fields: {sorted(unknown)}")
    # each field's type is its default's: per-level tuples, switches, ints
    for f in fields(ModelConfig):
        if f.name not in d:
            continue
        value = d[f.name]
        if isinstance(f.default, tuple):
            ok = isinstance(value, (list, tuple)) and len(value) == 4 and all(map(_is_int, value))
            kind = "a list of 4 integers"
        elif isinstance(f.default, bool):
            ok, kind = isinstance(value, bool), "true or false"
        else:
            ok, kind = _is_int(value), "an integer"
        if not ok:
            raise ConfigError(f"{f.name} must be {kind}, got {value!r}")
    for key in ("enc_blocks", "heads"):
        if key in d:
            d[key] = tuple(d[key])
    cfg = ModelConfig(**d)
    cfg.validate()
    return cfg
