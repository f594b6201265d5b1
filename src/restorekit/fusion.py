"""Skip-connection fusion between encoder and decoder features.

GatedSkipFusion filters the encoder feature with a joint attention map
built from a spatial branch (group-normed bottleneck convs) and a channel
branch (squeeze-excite), then merges with the decoder feature.  The
spatial 3x3 runs at c/4 width to keep the whole module's parameter
overhead around one percent of the backbone.

PlainSkipFusion is the drop-in unconditional baseline (concat + 1x1).
"""

from __future__ import annotations

from . import ops
from .layers import Conv2d, GroupNorm, Linear
from .params import ParamStore
from .tensor import Tensor


class GatedSkipFusion:
    """A GroupNorm of GN_GROUPS groups, so c must be a multiple of GN_GROUPS, and a
    squeeze-excite that narrows the 2c pooled channels by SE_REDUCTION."""

    GN_GROUPS = 4
    SE_REDUCTION = 4

    def __init__(self, store: ParamStore, name: str, channels: int):
        squeezed = (2 * channels) // self.SE_REDUCTION
        mid = max(channels // 4, 1)
        self.channels = channels
        self.reduce = Conv2d(store, f"{name}.reduce", 2 * channels, channels, 1)
        self.gn = GroupNorm(store, f"{name}.gn", channels, self.GN_GROUPS)
        self.spatial_dw = Conv2d(store, f"{name}.spatial_dw", channels, channels, 3, groups=channels)
        self.spatial_mid = Conv2d(store, f"{name}.spatial_mid", channels, mid, 3)
        self.spatial_out = Conv2d(store, f"{name}.spatial_out", mid, channels, 1)
        self.se_squeeze = Linear(store, f"{name}.se_squeeze", 2 * channels, squeezed)
        self.se_excite = Linear(store, f"{name}.se_excite", squeezed, channels)
        self.merge = Conv2d(store, f"{name}.merge", 2 * channels, channels, 1)

    def spatial_map(self, f_cat: Tensor) -> Tensor:
        """Per-position pre-sigmoid attention logits, (n, c, h, w)."""
        s = ops.relu(self.gn(self.reduce(f_cat)))
        return self.spatial_out(self.spatial_mid(self.spatial_dw(s)))

    def channel_vector(self, f_cat: Tensor) -> Tensor:
        """Per-channel pre-sigmoid attention logits from pooled statistics, (n, c)."""
        return self.se_excite(ops.relu(self.se_squeeze(ops.gap(f_cat))))

    def attention(self, f_cat: Tensor) -> Tensor:
        n = f_cat.shape[0]
        spatial = self.spatial_map(f_cat)
        channel = ops.reshape(self.channel_vector(f_cat), (n, self.channels, 1, 1))
        return ops.sigmoid(ops.add(spatial, channel))

    def __call__(self, f_enc: Tensor, f_dec: Tensor) -> Tensor:
        f_cat = ops.concat([f_enc, f_dec], axis=1)
        filtered = ops.mul(f_enc, self.attention(f_cat))
        return ops.gelu(self.merge(ops.concat([filtered, f_dec], axis=1)))


class PlainSkipFusion:
    """Unconditional skip: concat encoder/decoder features, 1x1 back to c."""

    def __init__(self, store: ParamStore, name: str, channels: int):
        self.merge = Conv2d(store, f"{name}.merge", 2 * channels, channels, 1)

    def __call__(self, f_enc: Tensor, f_dec: Tensor) -> Tensor:
        return self.merge(ops.concat([f_enc, f_dec], axis=1))
