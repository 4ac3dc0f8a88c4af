"""Container files for generators, ensembles, and observations.

Binary layout, shared by all three kinds:

    line 1: magic string, e.g. b"OBGCS-GEN v1\\n"
    line 2: one-line JSON metadata + b"\\n"
    then:   raw little-endian float64 blocks in the documented order

Generator payload: per layer, the weight matrix row-major then the bias.
Ensemble payload: the measurement matrix row-major.
Observation payload: y, x_star, eta, eps.

Each kind's layout function is its single declaration: the parsed metadata
fields and the ``(name, shape)`` of every block, in file order.
"""

import json
import math
import os
import shutil

import numpy as np

from .errors import DimensionMismatchError, MalformedFileError, NonFiniteError, ObgcsError
from .generator import GeneratorNetwork, dense_rows
from .measurement import BinaryObservation, CovarianceSpec, MeasurementEnsemble

GEN_MAGIC = b"OBGCS-GEN v1"
ENS_MAGIC = b"OBGCS-ENS v1"
OBS_MAGIC = b"OBGCS-OBS v1"

_F8 = np.dtype("<f8")
_NUMBER = (int, float)


def _header(magic, meta):
    """The magic line and the metadata line."""
    return magic + b"\n" + json.dumps(meta, separators=(",", ":")).encode("utf-8") + b"\n"


def _write(path, magic, meta, blocks):
    """The header, then each array of ``blocks`` in turn as raw little-endian
    float64."""
    with open(path, "wb") as fh:
        fh.write(_header(magic, meta))
        for arr in blocks:
            fh.write(np.ascontiguousarray(arr, dtype=_F8).tobytes())


def _read(path, magic, layout):
    """The fields and checked blocks of a container declared by ``layout``."""
    with open(path, "rb") as fh:
        got = _read_line(fh, "magic")
        if got != magic:  # shown cut short: a one-line text file is all magic line
            raise MalformedFileError(f"bad magic {got[:32]!r}{'...' * (len(got) > 32)}, "
                                     f"expected {magic!r}")
        try:
            meta = json.loads(_read_line(fh, "metadata"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedFileError(f"unparseable JSON: {exc}") from exc
        if not isinstance(meta, dict):
            raise MalformedFileError("metadata line is not a JSON object")
        try:
            fields, shapes = layout(meta)
        except ObgcsError:
            raise
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise MalformedFileError(f"bad {magic.decode()} metadata: {exc!r}") from exc
        blocks = []
        for name, shape in shapes:
            arr = _read_raw(fh, name, shape)
            if not np.all(np.isfinite(arr)):
                raise NonFiniteError(f"non-finite entries in {name}")
            blocks.append(arr)
        if fh.read(1):
            raise MalformedFileError("trailing bytes after declared payload")
    return fields, blocks


def _read_line(fh, what, cap=1 << 20):
    line = fh.readline(cap)
    if not line.endswith(b"\n"):
        raise MalformedFileError(f"missing or overlong {what} line")
    return line[:-1]


def _read_raw(fh, name, shape):
    """The next block, read only once the file is known to hold it, so a
    declared size is never allocated first."""
    count = math.prod(shape)
    if count * 8 > os.fstat(fh.fileno()).st_size - fh.tell():
        raise MalformedFileError(f"truncated file: {name} expects {count} float64s")
    return np.frombuffer(fh.read(count * 8), dtype=_F8).astype(np.float64).reshape(shape)


def _exact(meta, key, types, default=None):
    """``meta[key]`` (``default`` if given and the key is absent), which must
    be of one of ``types`` exactly: JSON's true is not an int, 7.9 not a size."""
    value = meta[key] if default is None else meta.get(key, default)
    if type(value) not in types:
        names = " or ".join(t.__name__ for t in types)
        raise MalformedFileError(f"metadata {key!r} must be {names}, got {value!r}")
    return value


def _m_n(meta):
    m, n = _exact(meta, "m", (int,)), _exact(meta, "n", (int,))
    if m < 1 or n < 1:
        raise MalformedFileError(f"metadata sizes must be >= 1, got m={m}, n={n}")
    return m, n


# ---------------------------------------------------------------- generators

def save_generator(net, path):
    """Write a generator container, whatever the path's suffix; block-diagonal
    layers as their dense rows (``dense_rows``), so the file is the dense net's.
    ``normalize_output`` is always false: the v1 format keeps the field.

    Raises OSError, before the path is opened, when the file is larger than
    the free space of the disk it would be written to.
    """
    dims = list(net.layer_dims)
    meta = {"layer_dims": dims, "activation": net.final_activation, "normalize_output": False}
    size = len(_header(GEN_MAGIC, meta)) + _F8.itemsize * sum(
        dout * (din + 1) for din, dout in zip(dims[:-1], dims[1:]))
    free = shutil.disk_usage(os.path.dirname(os.path.abspath(path))).free
    if size > free:
        raise OSError(f"{path}: the generator file takes {size} bytes, "
                      f"but its disk has {free} bytes free")
    _write(path, GEN_MAGIC, meta, _generator_blocks(net))


def _generator_blocks(net):
    for w, b in zip(net.weights, net.biases):
        yield from dense_rows(w)
        yield b


def _generator_layout(meta):
    dims = _exact(meta, "layer_dims", (list,))
    if any(type(d) is not int for d in dims):
        raise MalformedFileError(f"metadata 'layer_dims' must hold ints, got {dims!r}")
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise DimensionMismatchError(f"invalid layer_dims {dims}")
    if _exact(meta, "normalize_output", (bool,), False):
        raise MalformedFileError("metadata 'normalize_output' is true: unit-sphere "
                                 "output is not supported")
    fields = (dims, _exact(meta, "activation", (str,), "identity"))
    shapes = []
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        shapes += [(f"layer {i} weights", (dout, din)), (f"layer {i} bias", (dout,))]
    return fields, shapes


def load_generator(path):
    (dims, act), blocks = _read(path, GEN_MAGIC, _generator_layout)
    return GeneratorNetwork(dims, blocks[0::2], blocks[1::2], final_activation=act)


# ----------------------------------------------------------------- ensembles

def save_ensemble(ens, path):
    cov = ens.cov
    cov_meta = ({"kind": "toeplitz", "n": cov.n, "nu": cov.nu} if cov.nu != 0.0
                else {"kind": "identity", "n": cov.n})
    meta = {"m": ens.m, "n": ens.n, "sigma": ens.sigma, "q": ens.q,
            "seed": ens.seed, "cov": cov_meta}
    _write(path, ENS_MAGIC, meta, [ens.A])


def _ensemble_layout(meta):
    m, n = _m_n(meta)
    cov_meta = meta["cov"]
    kind, cov_n = cov_meta["kind"], _exact(cov_meta, "n", (int,))
    if cov_n != n:
        raise DimensionMismatchError(f"covariance size cov.n={cov_n} != n={n}")
    if kind == "identity":
        cov = CovarianceSpec.identity(n)
    elif kind == "toeplitz":
        cov = CovarianceSpec.toeplitz(n, float(_exact(cov_meta, "nu", _NUMBER)))
    else:
        raise MalformedFileError(f"unknown covariance kind {kind!r}")
    return (cov, float(_exact(meta, "sigma", _NUMBER)), float(_exact(meta, "q", _NUMBER)),
            _exact(meta, "seed", (int,))), [("measurement matrix", (m, n))]


def load_ensemble(path):
    (cov, sigma, q, seed), (A,) = _read(path, ENS_MAGIC, _ensemble_layout)
    return MeasurementEnsemble(A=A, cov=cov, sigma=sigma, q=q, seed=seed)


# -------------------------------------------------------------- observations

def save_observation(obs, path):
    meta = {"m": obs.y.shape[0], "n": obs.x_star.shape[0]}
    _write(path, OBS_MAGIC, meta, [obs.y, obs.x_star, obs.eta, obs.eps])


def _observation_layout(meta):
    m, n = _m_n(meta)
    return None, [("signs", (m,)), ("ground truth", (n,)), ("flip pattern", (m,)),
                  ("noise", (m,))]


def load_observation(path):
    _, blocks = _read(path, OBS_MAGIC, _observation_layout)
    return BinaryObservation(*blocks)
