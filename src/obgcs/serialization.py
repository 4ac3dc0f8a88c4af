"""Container files for generators, ensembles, and observations.

Binary layout, shared by all three kinds:

    line 1: magic string, e.g. b"OBGCS-GEN v1\\n"
    line 2: one-line JSON metadata + b"\\n"
    then:   raw little-endian float64 blocks in the documented order

Generator payload: per layer, the weight matrix row-major then the bias.
Ensemble payload: the measurement matrix row-major (plus the explicit
covariance matrix when the covariance kind is "explicit").
Observation payload: y, x_star, eta, eps.

Generators additionally round-trip through an equivalent JSON text form
(handy for small nets); the loader sniffs the first byte.
"""

import json

import numpy as np

from .errors import DimensionMismatchError, MalformedFileError, NonFiniteError

GEN_MAGIC = b"OBGCS-GEN v1"
ENS_MAGIC = b"OBGCS-ENS v1"
OBS_MAGIC = b"OBGCS-OBS v1"

_F8 = np.dtype("<f8")


def _read_line(fh, what, cap=1 << 20):
    line = fh.readline(cap)
    if not line.endswith(b"\n"):
        raise MalformedFileError(f"missing or overlong {what} line")
    return line[:-1]


def _read_block(fh, count, what):
    raw = fh.read(count * 8)
    if len(raw) != count * 8:
        raise MalformedFileError(f"truncated file: {what} expects {count} float64s")
    arr = np.frombuffer(raw, dtype=_F8).astype(np.float64)
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"non-finite entries in {what}")
    return arr


def _read_meta(fh, magic):
    got = _read_line(fh, "magic")
    if got != magic:
        raise MalformedFileError(f"bad magic {got!r}, expected {magic!r}")
    try:
        meta = json.loads(_read_line(fh, "metadata").decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFileError(f"unparseable metadata line: {exc}") from exc
    if not isinstance(meta, dict):
        raise MalformedFileError("metadata line is not a JSON object")
    return meta


def _write_header(fh, magic, meta):
    fh.write(magic + b"\n")
    fh.write(json.dumps(meta, separators=(",", ":")).encode("utf-8") + b"\n")


# ---------------------------------------------------------------- generators

def save_generator(net, path):
    """Write a generator; JSON text form if the path ends .json, else binary.

    Block-diagonal (3-D) layers are written as their dense matrices, one
    block row at a time, so the file is the same as for the dense net.
    """
    meta = {
        "layer_dims": list(net.layer_dims),
        "activation": net.final_activation,
        "normalize_output": bool(net.normalize_output),
    }
    if str(path).endswith(".json"):
        # json.dump's layout for {"format": ..., **meta, "layers": [...]},
        # written row by row
        head = json.dumps({"format": GEN_MAGIC.decode(), **meta})
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head[:-1] + ', "layers": [')
            for i, (w, b) in enumerate(zip(net.weights, net.biases)):
                fh.write(', {"weights": ' if i else '{"weights": ')
                sep = "["
                for chunk in _dense_row_chunks(w):
                    for row in chunk.tolist():
                        fh.write(sep + json.dumps(row))
                        sep = ", "
                fh.write('], "bias": ' + json.dumps(b.tolist()) + "}")
            fh.write("]}\n")
        return
    with open(path, "wb") as fh:
        _write_header(fh, GEN_MAGIC, meta)
        for w, b in zip(net.weights, net.biases):
            for chunk in _dense_row_chunks(w):
                fh.write(np.ascontiguousarray(chunk, dtype=_F8).tobytes())
            fh.write(np.ascontiguousarray(b, dtype=_F8).tobytes())


def _dense_row_chunks(w):
    """The rows of a weight's dense matrix, one block row per chunk for a
    (blocks, rows, cols) block-diagonal weight."""
    if w.ndim == 2:
        yield w
        return
    blocks, rows, cols = w.shape
    chunk = np.zeros((rows, blocks * cols))
    for i in range(blocks):
        chunk[:, i * cols:(i + 1) * cols] = w[i]
        yield chunk
        chunk[:, i * cols:(i + 1) * cols] = 0.0


def load_generator(path):
    from .generator import GeneratorNetwork

    with open(path, "rb") as fh:
        first = fh.read(1)
        fh.seek(0)
        if first == b"{":
            return _load_generator_text(fh)
        meta = _read_meta(fh, GEN_MAGIC)
        dims, act, norm = _gen_meta_fields(meta)
        weights, biases = [], []
        for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
            weights.append(_read_block(fh, din * dout, f"layer {i} weights").reshape(dout, din))
            biases.append(_read_block(fh, dout, f"layer {i} bias"))
        if fh.read(1):
            raise MalformedFileError("trailing bytes after declared payload")
    return GeneratorNetwork(dims, weights, biases, final_activation=act,
                            normalize_output=norm)


def _gen_meta_fields(meta):
    try:
        dims = [int(d) for d in meta["layer_dims"]]
        act = str(meta.get("activation", "identity"))
        norm = bool(meta.get("normalize_output", False))
    except (KeyError, TypeError, ValueError) as exc:
        raise MalformedFileError(f"bad generator metadata: {exc}") from exc
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise DimensionMismatchError(f"invalid layer_dims {dims}")
    return dims, act, norm


def _load_generator_text(fh):
    from .generator import GeneratorNetwork

    try:
        doc = json.load(fh)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedFileError(f"unparseable JSON generator: {exc}") from exc
    if doc.get("format") != GEN_MAGIC.decode():
        raise MalformedFileError(f"bad format tag {doc.get('format')!r}")
    dims, act, norm = _gen_meta_fields(doc)
    layers = doc.get("layers")
    if not isinstance(layers, list) or len(layers) != len(dims) - 1:
        raise DimensionMismatchError(
            f"{len(dims) - 1} layers declared, {0 if not isinstance(layers, list) else len(layers)} provided")
    weights, biases = [], []
    for i, layer in enumerate(layers):
        if not isinstance(layer, dict):
            raise MalformedFileError(f"layer {i} is not a JSON object")
        try:
            w = np.asarray(layer.get("weights"), dtype=np.float64)
            b = np.asarray(layer.get("bias"), dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise MalformedFileError(
                f"layer {i}: weights and bias must be numeric arrays") from exc
        if w.ndim != 2 or w.shape != (dims[i + 1], dims[i]):
            raise DimensionMismatchError(
                f"layer {i}: weights shape {w.shape} != {(dims[i + 1], dims[i])}")
        if b.shape != (dims[i + 1],):
            raise DimensionMismatchError(f"layer {i}: bias shape {b.shape}")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
            raise NonFiniteError(f"layer {i}: non-finite entries")
        weights.append(w)
        biases.append(b)
    return GeneratorNetwork(dims, weights, biases, final_activation=act,
                            normalize_output=norm)


# ----------------------------------------------------------------- ensembles

def save_ensemble(ens, path):
    cov = ens.cov
    cov_meta = {"kind": cov.kind, "n": cov.n}
    if cov.kind == "toeplitz":
        cov_meta["nu"] = cov.nu
    meta = {"m": ens.m, "n": ens.n, "sigma": ens.sigma, "q": ens.q,
            "seed": ens.seed, "cov": cov_meta}
    with open(path, "wb") as fh:
        _write_header(fh, ENS_MAGIC, meta)
        fh.write(np.ascontiguousarray(ens.A, dtype=_F8).tobytes())
        if cov.kind == "explicit":
            fh.write(np.ascontiguousarray(cov.matrix, dtype=_F8).tobytes())


def load_ensemble(path):
    from .measurement import CovarianceSpec, MeasurementEnsemble

    with open(path, "rb") as fh:
        meta = _read_meta(fh, ENS_MAGIC)
        try:
            m, n = int(meta["m"]), int(meta["n"])
            sigma, q = float(meta["sigma"]), float(meta["q"])
            seed = int(meta["seed"])
            cov_meta = meta["cov"]
            kind = cov_meta["kind"]
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFileError(f"bad ensemble metadata: {exc}") from exc
        A = _read_block(fh, m * n, "measurement matrix").reshape(m, n)
        if kind == "identity":
            cov = CovarianceSpec.identity(n)
        elif kind == "toeplitz":
            cov = CovarianceSpec.toeplitz(n, float(cov_meta["nu"]))
        elif kind == "explicit":
            sig = _read_block(fh, n * n, "covariance matrix").reshape(n, n)
            cov = CovarianceSpec.explicit(sig)
        else:
            raise MalformedFileError(f"unknown covariance kind {kind!r}")
        if fh.read(1):
            raise MalformedFileError("trailing bytes after declared payload")
    return MeasurementEnsemble(A=A, cov=cov, sigma=sigma, q=q, seed=seed)


# -------------------------------------------------------------- observations

def save_observation(obs, path):
    m = obs.y.shape[0]
    n = obs.x_star.shape[0]
    meta = {"m": m, "n": n}
    with open(path, "wb") as fh:
        _write_header(fh, OBS_MAGIC, meta)
        for arr in (obs.y, obs.x_star, obs.eta, obs.eps):
            fh.write(np.ascontiguousarray(arr, dtype=_F8).tobytes())


def load_observation(path):
    from .measurement import BinaryObservation

    with open(path, "rb") as fh:
        meta = _read_meta(fh, OBS_MAGIC)
        try:
            m, n = int(meta["m"]), int(meta["n"])
        except (KeyError, TypeError, ValueError) as exc:
            raise MalformedFileError(f"bad observation metadata: {exc}") from exc
        y = _read_block(fh, m, "signs")
        x_star = _read_block(fh, n, "ground truth")
        eta = _read_block(fh, m, "flip pattern")
        eps = _read_block(fh, m, "noise")
        if fh.read(1):
            raise MalformedFileError("trailing bytes after declared payload")
    return BinaryObservation(y=y, x_star=x_star, eta=eta, eps=eps)
