import math
import tracemalloc
import warnings

import numpy as np
import pytest

from obgcs import (CapacityError, GeneratorNetwork, ObgcsError, ShapeError,
                   architecture_summary, bits_to_value, build_bit_extractor, build_fitter,
                   build_indexed_memorizer, build_theorem_generator, extract_bit,
                   forward, load_generator, recall_bit, save_generator,
                   truncate_to_bits, value_to_bits)
from obgcs import memorizer
from conftest import dense_weight


class TestBitCoding:
    def test_round_trip(self):
        for ell in (1, 3, 8, 20):
            rng = np.random.default_rng(ell)
            bits = rng.integers(0, 2, ell).tolist()
            assert value_to_bits(bits_to_value(bits), ell) == bits

    def test_known_value(self):
        assert bits_to_value([1, 0, 1, 1]) == 0.6875  # 0.1011 in binary

    def test_truncation(self):
        assert bits_to_value(truncate_to_bits(1.0, 4)) == 1.0 - 2.0 ** -4
        assert bits_to_value(truncate_to_bits(0.6875, 4)) == 0.6875
        assert bits_to_value(truncate_to_bits(0.7, 2)) == 0.5


class TestFitter:
    def test_single_sample(self):
        mem = build_fitter([(np.array([0.5]), 0.75)], 1, 2)
        assert float(mem.evaluate([0.5])[0]) == pytest.approx(0.75, abs=1e-12)
        assert mem.width == 8 and mem.depth == 4  # 4W+4, ell+2

    def test_full_capacity_exact_interpolation(self):
        rng = np.random.default_rng(42)
        anchors = rng.standard_normal((12, 3))  # W=2, ell=3: W^2*ell = 12
        values = [bits_to_value(rng.integers(0, 2, 3).tolist()) for _ in range(12)]
        mem = build_fitter(list(zip(anchors, values)), 2, 3)
        for z, v in zip(anchors, values):
            assert abs(float(mem.evaluate(z)[0]) - v) <= 1e-12

    def test_declared_size_formulas(self):
        rng = np.random.default_rng(1)
        anchors = rng.standard_normal((6, 2))
        values = [bits_to_value(rng.integers(0, 2, 3).tolist()) for _ in range(6)]
        mem = build_fitter(list(zip(anchors, values)), 2, 3)
        assert mem.width == 4 * 2 + 4
        assert mem.depth == 3 + 2
        arch = architecture_summary(mem.net)
        assert arch["affine_layers"] == mem.depth
        assert arch["max_width"] == mem.width

    def test_duplicate_anchors_rejected(self):
        z = np.array([1.0, 2.0])
        with pytest.raises(ValueError):
            build_fitter([(z, 0.5), (z, 0.25)], 2, 2)

    def test_anchors_equal_in_value_are_duplicates(self):
        # -0.0 == 0.0 although their bytes differ
        with pytest.raises(ValueError, match="duplicate anchors"):
            build_fitter([([0.0, 1.0], 0.5), ([-0.0, 1.0], 0.25)], 2, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_anchor_rejected(self, bad):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="anchors must be finite"):
                build_fitter([([bad], 0.5), ([1.0], 0.25)], 2, 2)

    def test_capacity_limit(self):
        rng = np.random.default_rng(2)
        too_many = [(rng.standard_normal(2), 0.5) for _ in range(13)]
        with pytest.raises(CapacityError):
            build_fitter(too_many, 2, 3)

    def test_non_dyadic_value_rejected(self):
        with pytest.raises(ValueError):
            build_fitter([(np.array([0.1]), 1 / 3)], 1, 2)

    @pytest.mark.parametrize("value", [1.0, np.nan, np.inf, 1e308])
    def test_value_outside_the_unit_interval_rejected(self, value):
        with pytest.raises(ValueError, match="is not an exact 2-bit dyadic"):
            build_fitter([(np.array([0.1]), value)], 1, 2)


class TestBitExtractor:
    def test_known_bits(self):
        mem = build_bit_extractor(4)
        assert extract_bit(mem, 0.6875, 2) == 0.0  # 0.1011, second digit
        assert extract_bit(mem, 0.6875, 4) == 1.0

    def test_exhaustive_six_bits(self):
        mem = build_bit_extractor(6)
        for word in range(64):
            x = math.ldexp(word, -6)
            for j in range(1, 7):
                assert extract_bit(mem, x, j) == float((word >> (6 - j)) & 1)

    @pytest.mark.parametrize("ell", [1, 2, 3, 5, 8, 12])
    def test_declared_size_formulas(self, ell):
        mem = build_bit_extractor(ell)
        arch = architecture_summary(mem.net)
        assert mem.width == 8 and arch["max_width"] == 8
        assert mem.depth == 2 * ell and arch["affine_layers"] == 2 * ell

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            build_bit_extractor(0)
        with pytest.raises(ValueError):
            build_bit_extractor(51)


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

    def test_composition_consistency(self):
        # evaluating the fused net equals extracting bits from the fitted value
        rng = np.random.default_rng(9)
        anchors = rng.standard_normal((8, 2))
        bits = rng.integers(0, 2, (8, 4))
        mem = build_indexed_memorizer(list(zip(anchors, bits)), 2, 4)
        fit = build_fitter([(z, bits_to_value(row.tolist()))
                            for z, row in zip(anchors, bits)], 2, 4)
        ext = build_bit_extractor(4)
        for z, row in zip(anchors, bits):
            y = float(fit.evaluate(z)[0])
            y_exact = bits_to_value(row.tolist())
            assert abs(y - y_exact) < 1e-12
            for j in range(1, 5):
                assert recall_bit(mem, z, j) == extract_bit(ext, y_exact, j)

    def test_capacity_error(self):
        rng = np.random.default_rng(10)
        samples = [(rng.standard_normal(2), [0, 1]) for _ in range(9)]
        with pytest.raises(CapacityError):
            build_indexed_memorizer(samples, 1, 2)  # capacity W^2*ell = 2

    def test_anchors_equal_in_value_are_duplicates(self):
        with pytest.raises(ValueError, match="duplicate anchors"):
            build_indexed_memorizer([([0.0], [0, 1]), ([-0.0], [1, 1])], 1, 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
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
    def test_extractor(self, monkeypatch):
        # column 7 of the ell=3 check is word 2 (x = 0.25), j = 2, whose bit is 1
        _perturb_one_output(monkeypatch, 7)
        with pytest.raises(ObgcsError, match=r"x=0\.25, j=2: 2\.0 != 1\.0"):
            build_bit_extractor(3)

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

    def test_fitter(self, monkeypatch):
        _perturb_one_output(monkeypatch, 1)
        samples = [(np.array([0.1 * i]), i / 8) for i in range(3)]
        with pytest.raises(ObgcsError, match="interpolation residual 1.00e"):
            build_fitter(samples, 1, 3)


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
        with pytest.raises(ValueError):
            build_bit_extractor(26)
        with pytest.raises(ValueError):
            build_fitter([(np.array([0.1]), 0.5)], 1, 26)
        with pytest.raises(ValueError):
            build_indexed_memorizer([(np.array([0.1]), [1] * 26)], 1, 26)

    def test_count_arguments_name_their_field(self):
        # cap_w, ell and latent_dim were truncated by int(): 2.5 built as 2
        one = [(np.array([0.1]), 0.5)]
        cases = [
            (lambda: build_fitter(one, 2.5, 2), "cap_w must be an integer, got 2.5"),
            (lambda: build_fitter(one, 1, 2.5), "ell must be an integer, got 2.5"),
            (lambda: build_fitter(one, 1, 26), "ell must be <= 25, got 26"),
            (lambda: build_bit_extractor(2.5), "ell must be an integer, got 2.5"),
            (lambda: build_bit_extractor(0), "ell must be >= 1, got 0"),
            (lambda: build_indexed_memorizer([(np.array([0.1]), [1, 0])], 1.5, 2),
             "cap_w must be an integer, got 1.5"),
            (lambda: build_indexed_memorizer([(np.array([0.1]), [1])], 1, 1),
             "need ell >= 2, got 1"),
            (lambda: build_theorem_generator(np.array([[0.3]]), 0.25, latent_dim=1.5),
             "latent_dim must be an integer, got 1.5"),
        ]
        for build, message in cases:
            with pytest.raises(ValueError, match=message):
                build()

    def test_extractor_at_max_bits(self):
        mem = build_bit_extractor(memorizer.MAX_BITS)
        ell = mem.ell
        rng = np.random.default_rng(21)
        for word in rng.integers(0, 1 << ell, size=200):
            j = int(rng.integers(1, ell + 1))
            assert extract_bit(mem, math.ldexp(int(word), -ell), j) == \
                float((int(word) >> (ell - j)) & 1)


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
    # W^2 ell = 128 >= 97, but 4W(ell+1) = 96 stages' ramps
    lambda: build_fitter([(z, 0.25) for z in _distinct_anchors(97)], 8, 2),
    # W^2 ell = 128 >= 65, but 4W(2 ell - 2) = 64
    lambda: build_indexed_memorizer([(z, [0, 1]) for z in _distinct_anchors(65)], 8, 2),
    # ell = 3, W = ceil(sqrt(200 / 3)) = 9: 200 > 4 W ell = 108
    lambda: build_theorem_generator(np.full((200, 1), 0.5), 0.5),
], ids=["fitter", "composed", "generator"])
def test_stage_budget_is_a_capacity_error(build):
    with pytest.raises(CapacityError, match="interpolation stages"):
        build()
