import math
import tracemalloc
import warnings

import numpy as np
import pytest

from obgcs import (CapacityError, GeneratorNetwork, ObgcsError, ShapeError,
                   architecture_summary, build_indexed_memorizer, build_theorem_generator,
                   forward, forward_batch, load_generator, recall_bit, save_generator)
from obgcs import memorizer
from conftest import dense_weight


class TestIndexedMemorizer:
    def test_full_recall_sixteen_anchors(self):
        rng = np.random.default_rng(7)
        anchors = rng.standard_normal((16, 2))  # W=2, ell=4: capacity 16
        bits = rng.integers(0, 2, (16, 4))
        mem = build_indexed_memorizer(list(zip(anchors, bits)), 2, 4)
        for z, row in zip(anchors, bits):
            for j in range(1, 5):
                assert recall_bit(mem, z, j) == float(row[j - 1])

    def test_declared_size_formulas(self):
        rng = np.random.default_rng(8)
        anchors = rng.standard_normal((16, 2))
        bits = rng.integers(0, 2, (16, 4))
        mem = build_indexed_memorizer(list(zip(anchors, bits)), 2, 4)
        assert mem.width == 4 * 2 + 6 and mem.depth == 3 * 4 + 1
        arch = architecture_summary(mem.net)
        assert arch["max_width"] == mem.width
        assert arch["affine_layers"] == mem.depth

    def test_single_anchor_all_zero_bits(self):
        mem = build_indexed_memorizer([(np.array([0.3]), [0, 0, 0])], 1, 3)
        for j in (1, 2, 3):
            assert recall_bit(mem, [0.3], j) == 0.0

    def test_capacity_error(self):
        rng = np.random.default_rng(10)
        samples = [(rng.standard_normal(2), [0, 1]) for _ in range(9)]
        with pytest.raises(CapacityError):
            build_indexed_memorizer(samples, 1, 2)  # capacity W^2*ell = 2

    def test_capacity_limit(self):
        # one anchor past W^2*ell = 12, well inside the 4W(2 ell - 2) = 32 stage ramps
        rng = np.random.default_rng(2)
        too_many = [(rng.standard_normal(2), [0, 1, 0]) for _ in range(13)]
        with pytest.raises(CapacityError, match="exceed capacity W\\^2\\*ell = 12"):
            build_indexed_memorizer(too_many, 2, 3)

    def test_duplicate_anchors_rejected(self):
        z = np.array([1.0, 2.0])
        with pytest.raises(ValueError, match="duplicate anchors"):
            build_indexed_memorizer([(z, [0, 1]), (z, [1, 1])], 2, 2)

    def test_anchors_equal_in_value_are_duplicates(self):
        with pytest.raises(ValueError, match="duplicate anchors"):
            build_indexed_memorizer([([0.0], [0, 1]), ([-0.0], [1, 1])], 1, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anchor_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="anchors must be finite"):
                build_indexed_memorizer([([bad], [0, 1]), ([1.0], [1, 1])], 1, 2)

    @pytest.mark.parametrize("row", [[1.5, 0.9], [1.0, 0.5], [2, 0], [0, 1, 1]])
    def test_bits_must_be_exactly_zero_or_one(self, row):
        # [1.5, 0.9] may not be read as [1, 0]
        with pytest.raises(ValueError, match="2 bits valued 0/1"):
            build_indexed_memorizer([([0.0], row), ([1.0], [0, 1])], 1, 2)

    @pytest.mark.parametrize("cap_w,ell", [(3, 5), (4, 8), (6, 12)])
    def test_full_capacity_on_gaussian_anchors(self, cap_w, ell):
        # W^2 ell generic anchors: the build's exact-recall certificate holds
        # for every seed, and the exported weights agree with it
        count = cap_w * cap_w * ell
        queries_j = np.tile(np.arange(1.0, ell + 1), count)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            anchors = rng.standard_normal((count, 3))
            bits = rng.integers(0, 2, (count, ell))
            mem = build_indexed_memorizer(list(zip(anchors, bits)), cap_w, ell)
            queries = np.vstack([np.repeat(anchors.T, ell, axis=1), queries_j])
            assert np.array_equal(forward_batch(mem.net, queries)[0], bits.ravel())


class TestTheoremGenerator:
    def test_bit_depth_formula(self):
        # n=4, tau=0.5 -> ell = ceil(log2(16)) + 1 = 5
        targets = np.random.default_rng(11).random((2, 4))
        mem = build_theorem_generator(targets, 0.5)
        assert mem.ell == 5
        assert mem.depth == 3 * 5 + 2

    def test_three_targets_within_tolerance(self):
        rng = np.random.default_rng(3)
        targets = rng.random((3, 4))
        mem = build_theorem_generator(targets, 0.25)
        for anchor, target, trunc in zip(mem.anchors, targets, mem.targets_truncated):
            out = mem.evaluate(anchor)
            assert float(np.max(np.abs(out - trunc))) == 0.0
            assert float(np.linalg.norm(out - target)) <= 0.25

    def test_width_formula(self):
        rng = np.random.default_rng(12)
        s, n, tau = 3, 4, 0.25
        targets = rng.random((s, n))
        mem = build_theorem_generator(targets, tau)
        w = math.ceil(math.sqrt(s * n / mem.ell))
        assert mem.width == (4 * w + 6) * n
        arch = architecture_summary(mem.net)
        assert arch["max_width"] == mem.width
        assert arch["affine_layers"] == mem.depth

    def test_spike_anchor_family(self):
        targets = np.random.default_rng(13).random((3, 4))
        mem = build_theorem_generator(targets, 0.25, latent_dim=2)
        np.testing.assert_allclose(mem.anchors[:, 0],
                                   [1.0 / 4.0, 1.0 / 8.0, 1.0 / 12.0])
        assert np.all(mem.anchors[:, 1] == 0.0)

    def test_truncation_at_the_unit_interval_ends(self):
        # 1.0 keeps ell ones (1 - 2^-ell), -0.0 comes out as +0.0
        mem = build_theorem_generator(np.array([[1.0, -0.0, 0.3]]), 0.5)
        want = np.array([1.0 - 2.0 ** -mem.ell, 0.0, math.floor(0.3 * 2 ** mem.ell) / 2 ** mem.ell])
        for got in (mem.targets_truncated[0], mem.evaluate(mem.anchors[0])):
            assert got.tobytes() == want.tobytes()

    def test_tau_out_of_range(self):
        with pytest.raises(ValueError):
            build_theorem_generator(np.random.default_rng(14).random((2, 3)), 1.5)

    def test_targets_must_be_in_unit_cube(self):
        with pytest.raises(ValueError):
            build_theorem_generator(np.array([[0.5, 1.5]]), 0.25)

    @pytest.mark.parametrize("shape", [(0, 3), (2, 0)])
    def test_empty_targets_are_a_shape_error(self, shape):
        with pytest.raises(ShapeError, match=rf"not shape \({shape[0]}, {shape[1]}\)"):
            build_theorem_generator(np.zeros(shape), 0.5)

    def test_nan_target_is_outside_the_unit_cube(self):
        with pytest.raises(ValueError, match="targets must lie in the unit cube"):
            build_theorem_generator(np.array([[0.5, np.nan]]), 0.25)

    def test_exports_through_generator_format(self, tmp_path):
        from obgcs import load_generator, save_generator
        targets = np.random.default_rng(15).random((2, 3))
        mem = build_theorem_generator(targets, 0.5)
        path = tmp_path / "mem.bin"
        save_generator(mem.net, path)
        loaded = load_generator(path)
        out_a = mem.evaluate(mem.anchors[0])
        out_b = forward(loaded, mem.anchors[0])
        np.testing.assert_array_equal(out_a, out_b)

    def test_block_layers_export_as_dense_reference(self, tmp_path):
        mem = build_theorem_generator(np.random.default_rng(17).random((3, 4)), 0.25)
        assert any(w.ndim == 3 for w in mem.net.weights)
        dense = GeneratorNetwork(mem.net.layer_dims,
                                 [dense_weight(w) for w in mem.net.weights], mem.net.biases)
        save_generator(mem.net, tmp_path / "block.bin")
        save_generator(dense, tmp_path / "dense.bin")
        assert (tmp_path / "block.bin").read_bytes() == (tmp_path / "dense.bin").read_bytes()
        loaded = load_generator(tmp_path / "block.bin")
        for anchor, trunc in zip(mem.anchors, mem.targets_truncated):
            np.testing.assert_array_equal(forward(loaded, anchor), trunc)

    def test_peak_memory_at_benchmark_size(self):
        # dense block-diagonal layers took 387 MB here; the block stacks 13 MB
        targets = np.random.default_rng(18).random((20, 32))
        tracemalloc.start()
        try:
            build_theorem_generator(targets, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    def test_peak_memory_at_n64(self):
        # one pass over the blocks holds each layer once: 49 MB, where n
        # separate block builds copied into one stack peaked at 97 MB
        targets = np.random.default_rng(19).random((20, 64))
        tracemalloc.start()
        try:
            build_theorem_generator(targets, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2 ** 20

    @pytest.mark.parametrize("s,n,tau", [(200, 16, 0.1), (3, 4, 0.25)])
    def test_each_block_is_the_single_coordinate_build(self, s, n, tau):
        mem = build_theorem_generator(np.random.default_rng(s + n).random((s, n)), tau)
        block = mem.width // n
        depth = len(mem.net.weights)
        for c in range(n):
            stack = memorizer._Stack(1, block)
            x_row = memorizer._fitter_part(stack, mem.anchors, mem.targets_truncated[:, c:c + 1],
                                           max_chunk=4 * mem.cap_w, num_layers=mem.ell)
            single = stack.finish(memorizer._reassembly_part(stack, mem.ell, x_row))
            rows = slice(c * block, (c + 1) * block)
            assert mem.net.weights[0][rows].tobytes() == single.weights[0].tobytes()
            for i in range(1, depth):
                assert mem.net.weights[i][c].tobytes() == single.weights[i].tobytes()
            for i in range(depth - 1):
                assert mem.net.biases[i][rows].tobytes() == single.biases[i].tobytes()
            assert mem.net.biases[-1][c] == single.biases[-1][0]

    def test_single_coordinate_has_plain_matrices(self):
        mem = build_theorem_generator(np.random.default_rng(20).random((4, 1)), 0.25)
        assert all(w.ndim == 2 for w in mem.net.weights)
        for anchor, trunc in zip(mem.anchors, mem.targets_truncated):
            np.testing.assert_array_equal(mem.evaluate(anchor), trunc)


def _perturb_one_output(monkeypatch, index):
    """Make the memorizer module's batched forward add 1 to one output entry."""
    real = memorizer.forward_batch

    def perturbed(net, zs):
        out = real(net, zs).copy()
        out.flat[index] += 1.0
        return out

    monkeypatch.setattr(memorizer, "forward_batch", perturbed)


class TestCertificationCatchesAWrongOutput:
    def test_indexed_memorizer(self, monkeypatch):
        rng = np.random.default_rng(19)
        anchors = rng.standard_normal((4, 2))
        bits = rng.integers(0, 2, (4, 3))
        _perturb_one_output(monkeypatch, 7)  # anchor 2, j = 2
        want = int(bits[2, 1])
        with pytest.raises(ObgcsError, match=rf"at j=2: {want + 1.0} != {want}$"):
            build_indexed_memorizer(list(zip(anchors, bits)), 2, 3)

    def test_theorem_generator(self, monkeypatch):
        _perturb_one_output(monkeypatch, 5)
        with pytest.raises(ObgcsError, match="not exact"):
            build_theorem_generator(np.random.default_rng(20).random((2, 3)), 0.5)


class TestMaxBits:
    """Builds accept up to MAX_BITS = 25 bits, which one batched pass certifies."""

    def test_theorem_generator_at_max_bits_is_exact(self):
        targets = np.array([[0.3], [0.7]])
        mem = build_theorem_generator(targets, 2.0 ** -23)
        assert mem.ell == memorizer.MAX_BITS == 25
        for anchor, trunc in zip(mem.anchors, mem.targets_truncated):
            np.testing.assert_array_equal(mem.evaluate(anchor), trunc)

    def test_theorem_generator_beyond_max_bits_raises(self):
        with pytest.raises(CapacityError, match="26 bits"):
            build_theorem_generator(np.array([[0.3]]), 2.0 ** -24)

    def test_builders_taking_ell_reject_26(self):
        with pytest.raises(ValueError, match="ell must be <= 25, got 26"):
            build_indexed_memorizer([(np.array([0.1]), [1] * 26)], 1, 26)

    def test_count_arguments_name_their_field(self):
        # cap_w, ell and latent_dim were truncated by int(): 2.5 built as 2
        one = [(np.array([0.1]), [1, 0])]
        cases = [
            (lambda: build_indexed_memorizer(one, 2.5, 2), "cap_w must be an integer, got 2.5"),
            (lambda: build_indexed_memorizer(one, 1, 2.5), "ell must be an integer, got 2.5"),
            (lambda: build_indexed_memorizer(one, 1, 0), "ell must be >= 1, got 0"),
            (lambda: build_indexed_memorizer(one, 1.5, 2),
             "cap_w must be an integer, got 1.5"),
            (lambda: build_indexed_memorizer([(np.array([0.1]), [1])], 1, 1),
             "need ell >= 2, got 1"),
            (lambda: build_theorem_generator(np.array([[0.3]]), 0.25, latent_dim=1.5),
             "latent_dim must be an integer, got 1.5"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=message):
                build()

    def test_indexed_memorizer_at_max_bits(self):
        # full capacity W^2 ell = 25 at W = 1: every bit of every row, one query at a time
        ell = memorizer.MAX_BITS
        rng = np.random.default_rng(21)
        anchors = rng.standard_normal((ell, 3))
        bits = rng.integers(0, 2, (ell, ell))
        mem = build_indexed_memorizer(list(zip(anchors, bits)), 1, ell)
        for z, row in zip(anchors, bits):
            assert [recall_bit(mem, z, j) for j in range(1, ell + 1)] == row.tolist()


class TestExhaustiveRecallBudget:
    def test_bulk_recall_many_queries(self):
        # a larger table: W=3, ell=6 at full capacity, all 54*6 queries exact
        rng = np.random.default_rng(16)
        anchors = rng.standard_normal((54, 3))
        bits = rng.integers(0, 2, (54, 6))
        mem = build_indexed_memorizer(list(zip(anchors, bits)), 3, 6)
        wrong = sum(recall_bit(mem, z, j) != float(row[j - 1])
                    for z, row in zip(anchors, bits) for j in range(1, 7))
        assert wrong == 0


def _distinct_anchors(count):
    return np.column_stack([np.arange(count, dtype=np.float64), np.zeros(count)])


@pytest.mark.parametrize("build", [
    # W^2 ell = 128 >= 65, but 4W(2 ell - 2) = 64
    lambda: build_indexed_memorizer([(z, [0, 1]) for z in _distinct_anchors(65)], 8, 2),
    # W^2 ell = 108 >= 97, but 4W(2 ell - 2) = 96
    lambda: build_indexed_memorizer([(z, [0, 1, 1]) for z in _distinct_anchors(97)], 6, 3),
    # ell = 3, W = ceil(sqrt(200 / 3)) = 9: 200 > 4 W ell = 108
    lambda: build_theorem_generator(np.full((200, 1), 0.5), 0.5),
], ids=["composed", "composed-ell3", "generator"])
def test_stage_budget_is_a_capacity_error(build):
    with pytest.raises(CapacityError, match="interpolation stages"):
        build()
