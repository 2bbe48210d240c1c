"""Tests for layers, the model zoo, synthetic weights, workloads and the trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.sparsity import sparsity_report
from repro.nn.layers import (
    Conv2d,
    Flatten,
    GELU,
    LayerNorm,
    Linear,
    MaxPool2d,
    ReLU,
    Sequential,
)
from repro.nn.model_zoo import (
    MODEL_BUILDERS,
    benchmark_models,
    bert_base,
    get_model,
    llama3_8b,
    resnet34,
    resnet50,
    vgg16,
    vit_base,
    vit_small,
)
from repro.nn.synthetic import (
    synthesize_activations,
    synthesize_layer,
    synthesize_model,
)
from repro.nn.trainer import (
    MLPClassifier,
    accuracy_under_compression,
    make_classification_dataset,
)
from repro.nn.workloads import layer_workload, model_workloads


class TestLayers:
    def test_linear_forward_and_weight_roundtrip(self, fresh_rng):
        layer = Linear(8, 4, rng=fresh_rng)
        inputs = fresh_rng.normal(size=(3, 8))
        out = layer(inputs)
        assert out.shape == (3, 4)
        matrix = layer.weight_matrix()
        layer.set_weight_matrix(matrix * 2)
        assert np.allclose(layer(inputs), 2 * out)

    def test_conv_weight_matrix_layout(self, fresh_rng):
        layer = Conv2d(3, 8, 3, padding=1, rng=fresh_rng)
        matrix = layer.weight_matrix()
        assert matrix.shape == (8, 27)
        layer.set_weight_matrix(np.zeros_like(matrix))
        out = layer(fresh_rng.normal(size=(1, 3, 6, 6)))
        assert np.allclose(out, 0.0)

    def test_set_weight_matrix_shape_check(self, fresh_rng):
        layer = Linear(8, 4, rng=fresh_rng)
        with pytest.raises(ValueError):
            layer.set_weight_matrix(np.zeros((3, 3)))

    def test_activation_layers_have_no_weights(self):
        for layer in (ReLU(), GELU(), Flatten(), MaxPool2d(2)):
            assert layer.weight_matrix() is None
            with pytest.raises(NotImplementedError):
                layer.set_weight_matrix(np.zeros((1, 1)))

    def test_sequential_pipeline(self, fresh_rng):
        network = Sequential(
            Conv2d(1, 4, 3, padding=1, rng=fresh_rng),
            ReLU(),
            MaxPool2d(2),
            Flatten(),
            Linear(4 * 4 * 4, 10, rng=fresh_rng),
        )
        out = network(fresh_rng.normal(size=(2, 1, 8, 8)))
        assert out.shape == (2, 10)
        assert len(network.weight_layers()) == 2

    def test_layernorm_layer(self, fresh_rng):
        layer = LayerNorm(16)
        out = layer(fresh_rng.normal(size=(4, 16)))
        assert np.allclose(out.mean(axis=-1), 0.0, atol=1e-6)


class TestModelZoo:
    def test_all_builders_construct(self):
        for name in MODEL_BUILDERS:
            model = get_model(name)
            assert model.total_weights > 0
            assert model.total_macs > 0

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model("AlexNet")

    def test_benchmark_list_matches_table1(self):
        names = [model.name for model in benchmark_models()]
        assert names == [
            "VGG-16",
            "ResNet-34",
            "ResNet-50",
            "ViT-Small",
            "ViT-Base",
            "BERT-MRPC",
            "BERT-SST2",
        ]

    def test_published_parameter_counts(self):
        # Within a few percent of the well-known parameter counts.
        assert vgg16().total_weights == pytest.approx(138e6, rel=0.02)
        assert resnet50().total_weights == pytest.approx(25.5e6, rel=0.03)
        assert resnet34().total_weights == pytest.approx(21.8e6, rel=0.03)
        assert vit_base().total_weights == pytest.approx(86e6, rel=0.03)
        assert vit_small().total_weights == pytest.approx(22e6, rel=0.03)
        assert bert_base().total_weights == pytest.approx(85e6, rel=0.03)
        assert llama3_8b().total_weights == pytest.approx(7.5e9, rel=0.05)

    def test_published_mac_counts(self):
        assert vgg16().total_macs == pytest.approx(15.5e9, rel=0.05)
        assert resnet50().total_macs == pytest.approx(4.1e9, rel=0.05)
        assert resnet34().total_macs == pytest.approx(3.6e9, rel=0.05)

    def test_resnet50_layer_shapes(self):
        model = resnet50()
        by_name = {layer.name: layer for layer in model.layers}
        assert by_name["conv1"].gemm_k == 3 * 7 * 7
        assert by_name["layer4.conv3"].gemm_n == 2048
        assert by_name["fc"].gemm_k == 2048

    def test_bert_task_accuracies(self):
        assert bert_base("MRPC").fp32_accuracy == 90.7
        assert bert_base("SST2").int8_accuracy == 91.63
        with pytest.raises(ValueError):
            bert_base("QQP")

    def test_transformer_models_have_no_relu_sparsity(self):
        assert vit_base().activation_value_sparsity < 0.1
        assert vgg16().activation_value_sparsity > 0.3


class TestWorkloads:
    def test_conv_workload_dimensions(self):
        model = resnet50()
        conv1 = layer_workload(model.layers[0])
        assert conv1.m == 112 * 112
        assert conv1.k == 147
        assert conv1.n == 64
        assert conv1.macs == 112 * 112 * 147 * 64

    def test_linear_workload_dimensions(self):
        fc = layer_workload(vit_base().layers[1])
        assert fc.m == 197
        assert fc.k == 768
        assert fc.n == 3 * 768

    def test_model_workload_macs_match_spec(self):
        model = resnet34()
        workloads = model_workloads(model)
        assert sum(w.total_macs for w in workloads) == model.total_macs

    def test_byte_accounting(self):
        workload = layer_workload(vit_small().layers[1])
        assert workload.weight_bytes == workload.k * workload.n
        assert workload.activation_bytes == workload.m * workload.k


class TestSyntheticWeights:
    def test_layer_synthesis_shapes_and_range(self, fresh_rng):
        spec = resnet50().layers[5]
        layer = synthesize_layer(spec, fresh_rng)
        assert layer.int_weights.shape[0] <= spec.gemm_n
        assert layer.int_weights.min() >= -128
        assert layer.int_weights.max() <= 127

    def test_statistics_match_figure3(self, small_resnet_weights):
        # Aggregate sparsity of the synthetic INT8 weights reproduces the
        # Figure 3 pattern: tiny value sparsity, ~50 % two's-complement bit
        # sparsity, higher sign-magnitude sparsity, BBS >= 50 %.
        layer = small_resnet_weights["layer3.conv2"]
        report = sparsity_report(layer.int_weights)
        assert report.value < 0.10
        assert 0.45 < report.bit_twos_complement < 0.58
        assert report.bit_sign_magnitude > 0.55
        assert report.bbs >= 0.55

    def test_determinism(self):
        model = get_model("ViT-Small")
        a = synthesize_model(model, seed=3, max_channels=32, max_reduction=128)
        b = synthesize_model(model, seed=3, max_channels=32, max_reduction=128)
        for name in a:
            assert np.array_equal(a[name].int_weights, b[name].int_weights)

    def test_different_seeds_differ(self):
        model = get_model("ViT-Small")
        a = synthesize_model(model, seed=1, max_channels=32, max_reduction=128)
        b = synthesize_model(model, seed=2, max_channels=32, max_reduction=128)
        assert not np.array_equal(a["attn.qkv"].int_weights, b["attn.qkv"].int_weights)

    def test_sample_fraction_recorded(self):
        weights = synthesize_model(llama3_8b(), seed=0, max_channels=64, max_reduction=512)
        head = weights["lm_head"]
        assert head.sample_fraction < 0.01
        assert head.full_weight_count == 4096 * 128256

    def test_channel_scores_reflect_outliers(self, small_resnet_weights):
        layer = small_resnet_weights["layer2.conv2"]
        scores = layer.channel_scores
        assert scores.max() / np.median(scores) > 1.5

    def test_activation_generators(self, fresh_rng):
        spec = resnet50().layers[5]
        cnn_acts = synthesize_activations(spec, fresh_rng, family="cnn")
        assert cnn_acts.min() >= 0
        assert (cnn_acts == 0).mean() > 0.3
        transformer_acts = synthesize_activations(spec, fresh_rng, family="transformer")
        assert transformer_acts.min() < 0
        assert (transformer_acts == 0).mean() < 0.3


class TestTrainer:
    @pytest.fixture(scope="class")
    def trained(self):
        dataset = make_classification_dataset(num_samples=1500, num_features=32,
                                              num_classes=6, seed=0)
        model = MLPClassifier(dataset.num_features, dataset.num_classes, (64, 48), seed=0)
        accuracy = model.train(dataset, epochs=12, seed=0)
        return dataset, model, accuracy

    def test_training_reaches_high_accuracy(self, trained):
        _, _, accuracy = trained
        assert accuracy > 85.0

    def test_int8_quantization_is_nearly_lossless(self, trained):
        dataset, model, accuracy = trained
        int8 = accuracy_under_compression(model, dataset, lambda n, w, s: w)
        assert abs(int8 - accuracy) < 2.0

    def test_heavy_truncation_hurts_more_than_bbs(self, trained):
        from repro.core.binary_pruning import prune_tensor
        from repro.core.encoding import PruningStrategy

        dataset, model, _ = trained

        def crush(name, values, scales):
            return (values // 64) * 64  # keep only 2 effective bits

        def bbs(name, values, scales):
            return prune_tensor(values, 4, PruningStrategy.ZERO_POINT_SHIFT,
                                keep_original=False).values

        crushed = accuracy_under_compression(model, dataset, crush)
        pruned = accuracy_under_compression(model, dataset, bbs)
        assert pruned >= crushed

    def test_weight_matrix_roundtrip(self, trained):
        _, model, _ = trained
        matrices = model.weight_matrices()
        clone = model.with_weight_matrices(matrices)
        assert np.allclose(clone.weights[0], model.weights[0])

    def test_with_weight_matrices_rejects_bad_shape(self, trained):
        _, model, _ = trained
        with pytest.raises(ValueError):
            model.with_weight_matrices({"fc0": np.zeros((1, 1))})

    def test_verbose_prints_each_epoch(self, capsys):
        dataset = make_classification_dataset(num_samples=300, num_features=8,
                                              num_classes=3, seed=0)
        model = MLPClassifier(dataset.num_features, dataset.num_classes, (16,), seed=0)
        accuracy = model.train(dataset, epochs=2, verbose=True)
        out = capsys.readouterr().out
        assert "epoch   1: test accuracy" in out
        assert "epoch   2: test accuracy" in out
        assert accuracy == model.evaluate(dataset.test_x, dataset.test_y)

    def test_dataset_properties(self):
        dataset = make_classification_dataset(num_samples=400, num_features=16,
                                              num_classes=4, seed=1)
        assert dataset.num_features == 16
        assert dataset.num_classes == 4
        assert len(dataset.train_x) + len(dataset.test_x) <= 400
        assert set(np.unique(dataset.train_y)) <= set(range(4))
