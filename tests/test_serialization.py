"""Container files of every kind: malformed input, metadata checks, and
save -> load -> save byte identity."""

import json
import shutil
from types import SimpleNamespace

import numpy as np
import pytest

from obgcs import (CovarianceSpec, DimensionMismatchError, GeneratorNetwork, MalformedFileError,
                   NonFiniteError, ShapeError, load_ensemble, load_generator, load_observation, observe,
                   sample_ensemble, save_ensemble, save_generator, save_observation,
                   synth_generator)


def dense_net():
    return synth_generator(k=3, n=8, hidden_dims=[5, 6], seed=2)


def block_net():
    """A net whose hidden weight is a (3, 4, 2) block-diagonal stack."""
    rng = np.random.default_rng(5)
    return GeneratorNetwork(
        [2, 6, 12, 3],
        [rng.standard_normal((6, 2)), rng.standard_normal((3, 4, 2)),
         rng.standard_normal((3, 12))],
        [rng.standard_normal(6), rng.standard_normal(12), rng.standard_normal(3)],
        final_activation="relu")


def ensemble(cov):
    return sample_ensemble(7, cov, 0.1, 0.97, seed=3)


def observation():
    ens = ensemble(CovarianceSpec.identity(4))
    return observe(ens, np.random.default_rng(3).standard_normal(4), seed=4)


KINDS = {
    "generator": (save_generator, load_generator, dense_net),
    "ensemble": (save_ensemble, load_ensemble,
                 lambda: ensemble(CovarianceSpec.toeplitz(3, -0.5))),
    "observation": (save_observation, load_observation, observation),
}


def saved(tmp_path, kind):
    save, _, make = KINDS[kind]
    path = tmp_path / f"{kind}.bin"
    save(make(), path)
    return path


def edit_meta(path, change):
    """Rewrite a container's metadata line through ``change(meta)``."""
    magic, meta, payload = path.read_bytes().split(b"\n", 2)
    meta = json.loads(meta)
    change(meta)
    path.write_bytes(b"\n".join([magic, json.dumps(meta).encode(), payload]))


class TestMalformed:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("fault, corrupt", [
        ("truncated file", lambda data: data[:-8]),
        ("trailing bytes", lambda data: data + b"\0"),
        ("bad magic", lambda data: b"OBGCS-XYZ v1" + data[data.index(b"\n"):]),
        ("metadata line is not a JSON object",
         lambda data: data.replace(data.split(b"\n")[1], b"[1, 2]", 1)),
    ], ids=["truncated", "trailing", "magic", "meta-not-object"])
    def test_rejected_with_named_fault(self, tmp_path, kind, fault, corrupt):
        path = saved(tmp_path, kind)
        path.write_bytes(corrupt(path.read_bytes()))
        with pytest.raises(MalformedFileError, match=fault):
            KINDS[kind][1](path)

    @pytest.mark.parametrize("kind", KINDS)
    def test_non_finite_block_is_named(self, tmp_path, kind):
        path = saved(tmp_path, kind)
        data = bytearray(path.read_bytes())
        data[-8:] = np.array([np.nan]).tobytes()
        path.write_bytes(bytes(data))
        with pytest.raises(NonFiniteError, match="non-finite entries in"):
            KINDS[kind][1](path)

    def test_toeplitz_without_nu(self, tmp_path):
        path = tmp_path / "e.bin"
        save_ensemble(ensemble(CovarianceSpec.toeplitz(4, 0.3)), path)
        edit_meta(path, lambda meta: meta["cov"].pop("nu"))
        with pytest.raises(MalformedFileError, match="'nu'"):
            load_ensemble(path)

    @pytest.mark.parametrize("kind", ["ensemble", "observation"])
    @pytest.mark.parametrize("field", ["m", "n"])
    @pytest.mark.parametrize("size", [0, -1])
    def test_size_below_one(self, tmp_path, kind, field, size):
        path = saved(tmp_path, kind)
        edit_meta(path, lambda meta: meta.update({field: size}))
        with pytest.raises(MalformedFileError, match=f"{field}={size}"):
            KINDS[kind][1](path)

    @pytest.mark.parametrize("kind, change", [
        ("generator", lambda meta: meta.update(layer_dims=[10 ** 6, 10 ** 6])),
        ("ensemble", lambda meta: meta.update(m=10 ** 12)),
        ("observation", lambda meta: meta.update(m=10 ** 12)),
    ], ids=["generator", "ensemble", "observation"])
    def test_declared_payload_larger_than_file(self, tmp_path, kind, change):
        # the declared bytes used to be read first: 8 TB ended in a MemoryError
        path = saved(tmp_path, kind)
        edit_meta(path, change)
        with pytest.raises(MalformedFileError, match="truncated file: .* expects"):
            KINDS[kind][1](path)

    @pytest.mark.parametrize("kind, change, field", [
        ("generator", lambda meta: meta.update(normalize_output="false"), "normalize_output"),
        ("generator", lambda meta: meta.update(normalize_output=0), "normalize_output"),
        ("generator", lambda meta: meta.update(activation=3), "activation"),
        ("generator", lambda meta: meta.update(layer_dims="38"), "layer_dims"),
        ("generator", lambda meta: meta["layer_dims"].__setitem__(1, 5.0), "layer_dims"),
        ("generator", lambda meta: meta["layer_dims"].__setitem__(0, True), "layer_dims"),
        ("ensemble", lambda meta: meta.update(m=7.9), "m"),
        ("ensemble", lambda meta: meta.update(n=True), "n"),
        ("ensemble", lambda meta: meta.update(seed=3.7), "seed"),
        ("ensemble", lambda meta: meta.update(sigma="0.1"), "sigma"),
        ("ensemble", lambda meta: meta.update(q=True), "q"),
        ("ensemble", lambda meta: meta["cov"].update(n=2.0), "n"),
        ("ensemble", lambda meta: meta["cov"].update(kind="toeplitz", nu="0.3"), "nu"),
        ("ensemble", lambda meta: meta["cov"].update(kind="toeplitz", nu=False), "nu"),
        ("observation", lambda meta: meta.update(m=7.0), "m"),
        ("observation", lambda meta: meta.update(n="4"), "n"),
    ], ids=["normalize-str", "normalize-int", "activation-int", "dims-str", "dims-float",
            "dims-bool", "ens-m-float", "ens-n-bool", "seed-float", "sigma-str", "q-bool",
            "cov-n-float", "nu-str", "nu-bool", "obs-m-float", "obs-n-str"])
    def test_metadata_takes_exact_json_types(self, tmp_path, kind, change, field):
        # these were coerced: bool("false") is True, int(7.9) is 7, float("0.1") loads
        path = saved(tmp_path, kind)
        edit_meta(path, change)
        with pytest.raises(MalformedFileError, match=f"metadata '{field}' must"):
            KINDS[kind][1](path)

    def test_number_too_large_for_a_float(self, tmp_path):
        path = saved(tmp_path, "ensemble")
        edit_meta(path, lambda meta: meta.update(sigma=10 ** 400))
        with pytest.raises(MalformedFileError, match="OverflowError"):
            load_ensemble(path)

    def test_unit_sphere_generator_is_refused(self, tmp_path):
        # such a file declares a unit-sphere output: loading it as the plain
        # map would give a different generator
        path = saved(tmp_path, "generator")
        edit_meta(path, lambda meta: meta.update(normalize_output=True))
        with pytest.raises(MalformedFileError, match="'normalize_output' is true"):
            load_generator(path)

    def test_explicit_covariance_kind_is_unknown(self, tmp_path):
        # ensembles are sampled from identity or toeplitz covariances only
        path = tmp_path / "e.bin"
        save_ensemble(ensemble(CovarianceSpec.identity(2)), path)
        edit_meta(path, lambda meta: meta["cov"].update(kind="explicit"))
        path.write_bytes(path.read_bytes() + np.eye(2).tobytes())
        with pytest.raises(MalformedFileError, match="unknown covariance kind 'explicit'"):
            load_ensemble(path)

    def test_sigmoid_activation_is_unknown(self, tmp_path):
        path = saved(tmp_path, "generator")
        edit_meta(path, lambda meta: meta.update(activation="sigmoid"))
        with pytest.raises(ShapeError, match="unknown final activation 'sigmoid'"):
            load_generator(path)

    def test_covariance_size_must_match_n(self, tmp_path):
        path = tmp_path / "e.bin"
        save_ensemble(ensemble(CovarianceSpec.identity(4)), path)
        edit_meta(path, lambda meta: meta["cov"].update(n=3))
        with pytest.raises(DimensionMismatchError, match=r"cov\.n=3 != n=4"):
            load_ensemble(path)


class TestByteIdentity:
    @pytest.mark.parametrize("kind, make", [
        ("generator", dense_net), ("generator", block_net),
        ("ensemble", lambda: ensemble(CovarianceSpec.identity(4))),
        ("ensemble", lambda: ensemble(CovarianceSpec.toeplitz(4, 0.3))),
        ("observation", observation),
    ], ids=["dense-bin", "block-bin", "identity", "toeplitz", "observation"])
    def test_save_load_save(self, tmp_path, kind, make):
        save, load, _ = KINDS[kind]
        first, second = tmp_path / "a.bin", tmp_path / "b.bin"
        save(make(), first)
        save(load(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_json_suffix_writes_the_binary_container(self, tmp_path):
        save_generator(dense_net(), tmp_path / "g.json")
        save_generator(dense_net(), tmp_path / "g.bin")
        data = (tmp_path / "g.json").read_bytes()
        assert data.startswith(b"OBGCS-GEN v1\n")
        assert b'"normalize_output":false' in data.split(b"\n")[1]
        assert data == (tmp_path / "g.bin").read_bytes()


class TestDiskSpace:
    """A generator file is written only when its disk has room for it."""

    @staticmethod
    def free_bytes(monkeypatch, free):
        """Make every disk report ``free`` bytes free; the list of paths asked."""
        seen = []

        def usage(path):
            seen.append(path)
            return SimpleNamespace(total=free, used=0, free=free)

        monkeypatch.setattr(shutil, "disk_usage", usage)
        return seen

    def test_file_that_does_not_fit_is_not_opened(self, tmp_path, monkeypatch):
        net = block_net()
        save_generator(net, tmp_path / "fits.bin")
        size = (tmp_path / "fits.bin").stat().st_size
        seen = self.free_bytes(monkeypatch, size)
        save_generator(net, tmp_path / "exact.bin")
        assert (tmp_path / "exact.bin").stat().st_size == size
        assert seen == [str(tmp_path)]
        self.free_bytes(monkeypatch, size - 1)
        with pytest.raises(OSError, match=rf"takes {size} bytes, .* has {size - 1} bytes free"):
            save_generator(net, tmp_path / "big.bin")
        assert not (tmp_path / "big.bin").exists()
