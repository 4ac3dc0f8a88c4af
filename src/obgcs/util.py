"""Small numeric helpers: seed derivation and float formatting."""

import numpy as np


def derive_seed(*parts):
    """Stable integer seed derived from a tuple of non-negative integers.

    Uses numpy's SeedSequence entropy-mixing, which is documented to be
    reproducible across platforms and numpy versions.
    """
    ss = np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts])
    return int(ss.generate_state(1, dtype=np.uint32)[0])


def rng_for(*parts):
    """Generator seeded from a stable hash of the given integer parts."""
    return np.random.default_rng(np.random.SeedSequence([int(p) & 0xFFFFFFFF for p in parts]))


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

