"""Small numeric helpers: seed derivation and float formatting."""

import numpy as np


def derive_seed(*parts):
    """Stable integer seed derived from a tuple of non-negative integers.

    Uses numpy's SeedSequence entropy-mixing, which is documented to be
    reproducible across platforms and numpy versions. Every part is taken
    whole (SeedSequence raises ValueError on a negative one), so seeds that
    differ by a multiple of 2**32 stay distinct.
    """
    ss = np.random.SeedSequence([int(p) for p in parts])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def rng_for(*parts):
    """Generator seeded from a stable hash of the given integer parts, taken
    whole as in ``derive_seed``."""
    return np.random.default_rng(np.random.SeedSequence([int(p) for p in parts]))


def as_count(value, name, error=ValueError, most=None):
    """``value`` as an int; ``error`` (a ValueError) naming ``name`` unless it is
    an integer (a bool or a float such as 2.5 or 2.0 is not) in [1, ``most``]."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < 1:
        raise error(f"{name} must be >= 1, got {value}")
    if most is not None and value > most:
        raise error(f"{name} must be <= {most}, got {value}")
    return int(value)


def fmt17(x):
    """Format a float with 17 significant digits (round-trip safe)."""
    return format(float(x), ".17g")


def dumps17(obj):
    """One-line JSON with floats rendered at 17 significant digits.

    Handles the flat-ish dicts/lists of scalars used for reports.
    """
    if isinstance(obj, dict):
        items = ", ".join(f"{dumps17(k)}: {dumps17(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        return "[" + ", ".join(dumps17(v) for v in seq) + "]"
    if isinstance(obj, bool) or obj is None:
        return "true" if obj is True else ("false" if obj is False else "null")
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt17(obj)
    return '"' + str(obj).replace("\\", "\\\\").replace('"', '\\"') + '"'

