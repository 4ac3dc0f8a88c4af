import numpy as np
import pytest

from obgcs import (GeneratorNetwork, MalformedFileError, ShapeError,
                   architecture_summary, forward, forward_batch, latent_vjp,
                   latent_vjp_batch, lipschitz_upper_bound, load_generator,
                   save_generator, synth_generator)
from obgcs.generator import split_output_layer
from conftest import dense_weight, preacts_away_from_kinks


def identity_net(n, relu=False):
    return GeneratorNetwork([n, n], [np.eye(n)], [np.zeros(n)],
                            final_activation="relu" if relu else "identity")


class TestForward:
    def test_identity_network(self):
        net = identity_net(2)
        out = forward(net, np.array([0.3, -0.5]))
        np.testing.assert_array_equal(out, [0.3, -0.5])

    def test_relu_kills_negatives(self):
        net = identity_net(2, relu=True)
        out = forward(net, np.array([0.3, -0.5]))
        np.testing.assert_array_equal(out, [0.3, 0.0])

    def test_matches_hand_rolled_evaluation(self):
        # independent straight-line evaluation of a 2-layer net
        rng = np.random.default_rng(3)
        W1 = rng.standard_normal((7, 4))
        b1 = rng.standard_normal(7)
        W2 = rng.standard_normal((5, 7))
        b2 = rng.standard_normal(5)
        net = GeneratorNetwork([4, 7, 5], [W1, W2], [b1, b2])
        z = rng.standard_normal(4)
        h = W1 @ z + b1
        h = np.where(h > 0, h, 0.0)
        expected = W2 @ h + b2
        np.testing.assert_allclose(forward(net, z), expected, atol=1e-12)

    def test_shape_error(self, small_net):
        with pytest.raises(ShapeError):
            forward(small_net, np.zeros(small_net.latent_dim + 1))

    def test_single_vector_only(self, small_net):
        # a single latent is (k,); a batch goes through forward_batch
        k = small_net.latent_dim
        for z in (np.zeros((k, 1)), np.zeros((1, k)), np.float64(0.5)):
            with pytest.raises(ShapeError):
                forward(small_net, z)
            with pytest.raises(ShapeError):
                latent_vjp(small_net, z, np.zeros(small_net.signal_dim))

    def test_batch_matches_single(self, small_net):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((small_net.latent_dim, 6))
        batch = forward_batch(small_net, Z)
        for i in range(6):
            np.testing.assert_allclose(batch[:, i], forward(small_net, Z[:, i]),
                                       rtol=0, atol=1e-12)

    def test_deterministic(self, small_net):
        z = np.random.default_rng(1).standard_normal(small_net.latent_dim)
        np.testing.assert_array_equal(forward(small_net, z), forward(small_net, z))


class TestLatentVjp:
    def test_identity_network(self):
        net = identity_net(3)
        v = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(latent_vjp(net, np.zeros(3), v), v)

    def test_positive_preactivations_reduce_to_linear(self):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((6, 4))
        net = GeneratorNetwork([4, 6], [W], [np.full(6, 10.0)],
                               final_activation="relu")
        z = 0.01 * rng.standard_normal(4)  # keeps pre-activations > 0
        v = rng.standard_normal(6)
        np.testing.assert_allclose(latent_vjp(net, z, v), W.T @ v, atol=1e-12)

    def test_matches_finite_differences(self):
        # identity and ReLU outputs in turn
        rng = np.random.default_rng(0)
        checked = 0
        trials = 0
        while checked < 25 and trials < 500:
            trials += 1
            net = synth_generator(k=4, n=12, hidden_dims=[10, 8], seed=trials,
                                  final_activation=("identity", "relu")[trials % 2])
            z = rng.standard_normal(4)
            if not preacts_away_from_kinks(net, z):
                continue
            checked += 1
            v = rng.standard_normal(12)
            g = latent_vjp(net, z, v)
            fd = np.zeros(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = 1e-5
                fd[j] = (forward(net, z + e) @ v - forward(net, z - e) @ v) / 2e-5
            rel = np.max(np.abs(g - fd)) / max(np.max(np.abs(fd)), 1e-12)
            assert rel < 1e-4
        assert checked == 25

    def test_batch_matches_single(self, small_net):
        rng = np.random.default_rng(2)
        Z = rng.standard_normal((4, 5))
        V = rng.standard_normal((12, 5))
        batch = latent_vjp_batch(small_net, Z, V)
        for i in range(5):
            np.testing.assert_allclose(batch[:, i],
                                       latent_vjp(small_net, Z[:, i], V[:, i]),
                                       atol=1e-12)


def block_net_and_dense_twin(seed, final_activation="identity"):
    """A net with block-diagonal (3-D) hidden and output layers, and the same
    net with every weight dense."""
    rng = np.random.default_rng(seed)
    weights = [rng.standard_normal((12, 3)) / np.sqrt(3),
               rng.standard_normal((4, 3, 3)) / np.sqrt(3),   # 12 -> 12
               rng.standard_normal((4, 2, 3)) / np.sqrt(3)]   # 12 -> 8
    biases = [0.1 * rng.standard_normal(d) for d in (12, 12, 8)]
    return (GeneratorNetwork([3, 12, 12, 8], weights, biases, final_activation),
            GeneratorNetwork([3, 12, 12, 8], [dense_weight(w) for w in weights], biases,
                             final_activation))


class TestBlockDiagonalWeights:
    @pytest.mark.parametrize("act", ["identity", "relu"])
    def test_matches_dense_twin(self, act):
        net, dense = block_net_and_dense_twin(4, act)
        rng = np.random.default_rng(5)
        Z = rng.standard_normal((3, 6))
        V = rng.standard_normal((8, 6))
        np.testing.assert_allclose(forward_batch(net, Z), forward_batch(dense, Z),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(latent_vjp_batch(net, Z, V), latent_vjp_batch(dense, Z, V),
                                   rtol=0, atol=1e-12)
        for i in range(6):
            np.testing.assert_allclose(forward(net, Z[:, i]), forward(dense, Z[:, i]),
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(latent_vjp(net, Z[:, i], V[:, i]),
                                       latent_vjp(dense, Z[:, i], V[:, i]), rtol=0, atol=1e-12)

    def test_lipschitz_bound_equals_dense_product(self):
        net, dense = block_net_and_dense_twin(6)
        exact = np.prod([np.linalg.norm(w, 2) for w in dense.weights])
        assert lipschitz_upper_bound(net) == pytest.approx(exact, rel=1e-12, abs=0)

    @pytest.mark.parametrize("shape", [(4, 3, 3), (3, 4, 4), (4, 3, 2)])
    def test_blocks_must_tile_the_layer(self, shape):
        # layer 1 maps 12 -> 10: no (blocks, rows, cols) above tiles (10, 12)
        with pytest.raises(ShapeError):
            GeneratorNetwork([3, 12, 10], [np.ones((12, 3)), np.ones(shape)],
                             [np.zeros(12), np.zeros(10)])


class TestSplitOutputLayer:
    def test_body_and_dense_output_layer_rebuild_the_net(self):
        # 3 -> 8 -> 8 -> 12, block-diagonal hidden and output weights, d = 8 < n = 12
        rng = np.random.default_rng(7)
        weights = [rng.standard_normal((8, 3)), rng.standard_normal((2, 4, 4)),
                   rng.standard_normal((4, 3, 2))]
        biases = [0.1 * rng.standard_normal(d) for d in (8, 8, 12)]
        net = GeneratorNetwork([3, 8, 8, 12], weights, biases)
        body, W, b = split_output_layer(net)
        assert body.layer_dims == [3, 8, 8] and body.final_activation == "relu"
        np.testing.assert_array_equal(W, dense_weight(weights[2]))
        np.testing.assert_array_equal(b, biases[2])
        Z, V = rng.standard_normal((3, 5)), rng.standard_normal((12, 5))
        np.testing.assert_allclose(W @ forward_batch(body, Z) + b[:, None],
                                   forward_batch(net, Z), rtol=0, atol=1e-12)
        np.testing.assert_allclose(latent_vjp_batch(body, Z, W.T @ V),
                                   latent_vjp_batch(net, Z, V), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("net", [
        synth_generator(k=3, n=12, hidden_dims=[8], final_activation="relu"),
        synth_generator(k=3, n=12),                     # no hidden layer
        synth_generator(k=3, n=12, hidden_dims=[12]),   # d = n
        synth_generator(k=3, n=12, hidden_dims=[4, 20]),  # d > n
    ])
    def test_other_nets_are_not_split(self, net):
        assert split_output_layer(net) is None


class TestLipschitzBound:
    def test_scaled_identity(self):
        net = GeneratorNetwork([3, 3], [2.0 * np.eye(3)], [np.zeros(3)])
        assert lipschitz_upper_bound(net) == pytest.approx(2.0, abs=1e-7)

    def test_product_of_layers(self):
        net = GeneratorNetwork([3, 3, 3], [3.0 * np.eye(3), 2.0 * np.eye(3)],
                               [np.zeros(3), np.zeros(3)])
        assert lipschitz_upper_bound(net) == pytest.approx(6.0, abs=1e-6)

    def test_sampled_ratios_never_exceed_bound(self):
        net = synth_generator(k=5, n=30, hidden_dims=[20], seed=3)
        bound = lipschitz_upper_bound(net)
        rng = np.random.default_rng(1)
        Z1 = rng.standard_normal((5, 10_000))
        Z2 = rng.standard_normal((5, 10_000))
        num = np.linalg.norm(forward_batch(net, Z1) - forward_batch(net, Z2), axis=0)
        den = np.linalg.norm(Z1 - Z2, axis=0)
        assert np.max(num / den) <= bound * (1 + 1e-12)

    def test_not_below_exact_product_of_layer_norms(self):
        # an estimate that converges from below (power iteration) fails this
        for seed in range(40):
            net = synth_generator(k=5, n=100, hidden_dims=[64], seed=seed)
            exact = np.prod([np.linalg.svd(w, compute_uv=False)[0] for w in net.weights])
            assert lipschitz_upper_bound(net) >= exact * (1 - 1e-12)

    def test_caches_value(self, small_net):
        val = lipschitz_upper_bound(small_net)
        assert small_net.lipschitz_bound == val


class TestSaveLoad:
    def test_binary_round_trip(self, tmp_path, small_net):
        path = tmp_path / "net.bin"
        save_generator(small_net, path)
        loaded = load_generator(path)
        assert loaded.layer_dims == small_net.layer_dims
        for a, b in zip(loaded.weights, small_net.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, small_net.biases):
            np.testing.assert_array_equal(a, b)

    def test_truncated_file(self, tmp_path, small_net):
        path = tmp_path / "net.bin"
        save_generator(small_net, path)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(MalformedFileError):
            load_generator(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "net.bin"
        path.write_bytes(b"NOT-A-NET v9\n{}\n")
        with pytest.raises(MalformedFileError):
            load_generator(path)

    def test_preserves_activation(self, tmp_path):
        net = synth_generator(k=3, n=8, hidden_dims=[6], seed=0, final_activation="relu")
        path = tmp_path / "n.bin"
        save_generator(net, path)
        assert load_generator(path).final_activation == "relu"


class TestSynthGenerator:
    def test_deterministic_in_seed(self):
        a = synth_generator(k=3, n=10, hidden_dims=[5], seed=9)
        b = synth_generator(k=3, n=10, hidden_dims=[5], seed=9)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)

    def test_mnist_style_dims(self):
        net = synth_generator(k=20, n=784, hidden_dims=[500, 500], seed=0)
        assert net.layer_dims == [20, 500, 500, 784]

    def test_positive_homogeneity(self):
        # zero biases make the map a cone: G(a z) = a G(z) for a > 0
        net = synth_generator(k=3, n=15, hidden_dims=[9], seed=4)
        z = np.random.default_rng(5).standard_normal(3)
        np.testing.assert_allclose(forward(net, 2.5 * z), 2.5 * forward(net, z),
                                   rtol=1e-12)

    def test_invalid_dims(self):
        with pytest.raises(ShapeError):
            synth_generator(k=0, n=5)

    @pytest.mark.parametrize("kwargs,message", [
        ({"k": 2.9, "n": 5}, "k must be an integer, got 2.9"),
        ({"k": 2, "n": 5.5}, "n must be an integer, got 5.5"),
        ({"k": 2, "n": 5, "hidden_dims": [3.5]}, "hidden_dims entry must be an integer, got 3.5"),
        ({"k": 2, "n": 5, "hidden_dims": [0]}, "hidden_dims entry must be >= 1, got 0")])
    def test_non_count_dims_rejected(self, kwargs, message):
        # int() used to turn k=2.9, n=5.5 into a [2, 5] net
        with pytest.raises(ShapeError, match=message):
            synth_generator(**kwargs)


class TestLayerDims:
    @pytest.mark.parametrize("dims,message", [
        ([2.5, 3], "layer_dims entry must be an integer, got 2.5"),  # int() built [2, 3]
        ([True, 3], "layer_dims entry must be an integer, got True"),
        ([0, 3], "layer_dims entry must be >= 1, got 0"),
    ])
    def test_non_count_entry_rejected(self, dims, message):
        with pytest.raises(ShapeError, match=message):
            GeneratorNetwork(dims, [np.ones((3, 2))], [np.zeros(3)])

    def test_single_entry_rejected(self):
        with pytest.raises(ShapeError, match="layer_dims must hold >= 2 positive sizes"):
            GeneratorNetwork([3], [], [])


class TestArchitectureSummary:
    def test_counts(self, small_net):
        arch = architecture_summary(small_net)
        assert arch["affine_layers"] == 3
        assert arch["hidden_layers"] == 2
        assert arch["max_width"] == 10
