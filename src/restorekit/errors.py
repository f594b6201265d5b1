"""Exception types shared across the package, and the finiteness check of its configs.

The CLI maps these onto exit codes (config 2, data 3, numerics 4), so
library code should raise the most specific one that applies.
"""

import math
from dataclasses import fields


class ShapeError(ValueError):
    """Operands have incompatible shapes for the requested operation."""


class ConfigError(ValueError):
    """Invalid configuration value (bad group count, unknown kind, ...)."""


class UsageError(RuntimeError):
    """API misuse: backward on a non-scalar, optimizer step without grads, ..."""


class NumericsError(RuntimeError):
    """A non-finite value appeared where the computation requires finite ones."""


class DataError(RuntimeError):
    """Malformed or missing input data (image files, dataset directories)."""


def require_finite(config):
    """Raise :class:`ConfigError` naming the first float field of the dataclass ``config`` that is nan or inf."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
