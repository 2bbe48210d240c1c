"""Benchmark model zoo: layer shapes of the paper's seven DNNs plus Llama-3-8B.

The paper evaluates VGG-16, ResNet-34, ResNet-50 (ImageNet), ViT-Small,
ViT-Base (ImageNet), BERT-base (MRPC and SST-2) and, for the LLM study,
Llama-3-8B.  We cannot ship the pre-trained weights, but every result in the
evaluation depends only on

* the *shapes* of the weight layers (they determine compute, memory traffic
  and parallel-mapping behaviour), and
* the per-channel weight *statistics* (they determine bit sparsity, pruning
  error and load balance),

so this module records the exact layer shapes of the published architectures,
and :mod:`repro.nn.synthetic` attaches statistically realistic weights to
them.  Repeated transformer blocks and residual stages are described once with
a multiplicity so very large models (Llama-3-8B) stay cheap to analyse.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

from ..core.hashing import stable_digest

__all__ = [
    "Conv2dSpec",
    "LinearSpec",
    "LayerSpec",
    "ModelSpec",
    "vgg16",
    "resnet34",
    "resnet50",
    "vit_small",
    "vit_base",
    "bert_base",
    "llama3_8b",
    "benchmark_models",
    "get_model",
    "MODEL_BUILDERS",
]


@dataclass(frozen=True)
class Conv2dSpec:
    """A convolution layer described by its GEMM-relevant dimensions."""

    name: str
    in_channels: int
    out_channels: int
    kernel: int
    stride: int
    input_size: int
    padding: int = 0
    repeat: int = 1

    @property
    def output_size(self) -> int:
        return (self.input_size + 2 * self.padding - self.kernel) // self.stride + 1

    @property
    def gemm_m(self) -> int:
        """Output pixels (rows of the im2col GEMM) for batch size 1."""
        return self.output_size * self.output_size

    @property
    def gemm_k(self) -> int:
        """Reduction dimension of the im2col GEMM."""
        return self.in_channels * self.kernel * self.kernel

    @property
    def gemm_n(self) -> int:
        """Output channels (columns of the im2col GEMM)."""
        return self.out_channels

    @property
    def weight_count(self) -> int:
        return self.out_channels * self.in_channels * self.kernel * self.kernel

    @property
    def macs(self) -> int:
        return self.gemm_m * self.gemm_k * self.gemm_n


@dataclass(frozen=True)
class LinearSpec:
    """A linear (fully-connected / projection) layer."""

    name: str
    in_features: int
    out_features: int
    tokens: int = 1
    repeat: int = 1

    @property
    def gemm_m(self) -> int:
        return self.tokens

    @property
    def gemm_k(self) -> int:
        return self.in_features

    @property
    def gemm_n(self) -> int:
        return self.out_features

    @property
    def weight_count(self) -> int:
        return self.out_features * self.in_features

    @property
    def macs(self) -> int:
        return self.gemm_m * self.gemm_k * self.gemm_n


LayerSpec = Conv2dSpec | LinearSpec


@dataclass(frozen=True)
class ModelSpec:
    """A benchmark model: its layers plus the published accuracy reference points."""

    name: str
    family: str
    dataset: str
    layers: tuple[LayerSpec, ...]
    fp32_accuracy: float
    int8_accuracy: float
    activation_value_sparsity: float = 0.0
    notes: str = ""

    @cached_property
    def digest(self) -> str:
        """Content digest of the whole spec, computed once (the spec is frozen)."""
        return stable_digest("ModelSpec", self)

    @property
    def total_weights(self) -> int:
        return sum(layer.weight_count * layer.repeat for layer in self.layers)

    @property
    def total_macs(self) -> int:
        return sum(layer.macs * layer.repeat for layer in self.layers)

    def describe(self) -> str:
        return (
            f"{self.name} ({self.family}, {self.dataset}): "
            f"{len(self.layers)} unique weight layers, "
            f"{self.total_weights / 1e6:.1f}M weights, "
            f"{self.total_macs / 1e9:.2f} GMACs"
        )


def vgg16() -> ModelSpec:
    """VGG-16 for 224x224 ImageNet inference (13 conv + 3 FC layers)."""
    cfg = [
        # (in, out, input_size)
        (3, 64, 224), (64, 64, 224),
        (64, 128, 112), (128, 128, 112),
        (128, 256, 56), (256, 256, 56), (256, 256, 56),
        (256, 512, 28), (512, 512, 28), (512, 512, 28),
        (512, 512, 14), (512, 512, 14), (512, 512, 14),
    ]
    layers: list[LayerSpec] = [
        Conv2dSpec(
            name=f"conv{i + 1}",
            in_channels=in_c,
            out_channels=out_c,
            kernel=3,
            stride=1,
            padding=1,
            input_size=size,
        )
        for i, (in_c, out_c, size) in enumerate(cfg)
    ]
    layers += [
        LinearSpec("fc6", 512 * 7 * 7, 4096),
        LinearSpec("fc7", 4096, 4096),
        LinearSpec("fc8", 4096, 1000),
    ]
    return ModelSpec(
        name="VGG-16",
        family="cnn",
        dataset="ImageNet",
        layers=tuple(layers),
        fp32_accuracy=73.36,
        int8_accuracy=73.35,
        activation_value_sparsity=0.45,
        notes="13 conv layers with 3x3 kernels plus 3 fully-connected layers.",
    )


def _basic_block(name: str, channels: int, size: int, downsample_from: int | None,
                 repeat: int) -> list[LayerSpec]:
    """ResNet basic block (two 3x3 convolutions) with optional downsampling entry."""
    layers: list[LayerSpec] = []
    if downsample_from is not None:
        layers += [
            Conv2dSpec(f"{name}.0.conv1", downsample_from, channels, 3, 2, size * 2, padding=1),
            Conv2dSpec(f"{name}.0.conv2", channels, channels, 3, 1, size, padding=1),
            Conv2dSpec(f"{name}.0.downsample", downsample_from, channels, 1, 2, size * 2),
        ]
        repeat -= 1
    if repeat > 0:
        layers += [
            Conv2dSpec(f"{name}.conv1", channels, channels, 3, 1, size, padding=1, repeat=repeat),
            Conv2dSpec(f"{name}.conv2", channels, channels, 3, 1, size, padding=1, repeat=repeat),
        ]
    return layers


def resnet34() -> ModelSpec:
    """ResNet-34 for ImageNet (basic residual blocks)."""
    layers: list[LayerSpec] = [
        Conv2dSpec("conv1", 3, 64, 7, 2, 224, padding=3),
    ]
    layers += _basic_block("layer1", 64, 56, None, 3)
    layers += _basic_block("layer2", 128, 28, 64, 4)
    layers += _basic_block("layer3", 256, 14, 128, 6)
    layers += _basic_block("layer4", 512, 7, 256, 3)
    layers += [LinearSpec("fc", 512, 1000)]
    return ModelSpec(
        name="ResNet-34",
        family="cnn",
        dataset="ImageNet",
        layers=tuple(layers),
        fp32_accuracy=73.31,
        int8_accuracy=73.39,
        activation_value_sparsity=0.40,
        notes="Basic residual blocks (two 3x3 convolutions per block).",
    )


def _bottleneck_stage(name: str, in_channels: int, mid: int, size: int,
                      blocks: int, stride: int) -> list[LayerSpec]:
    """ResNet bottleneck stage (1x1 -> 3x3 -> 1x1 blocks)."""
    out_channels = mid * 4
    input_size = size * stride
    layers: list[LayerSpec] = [
        Conv2dSpec(f"{name}.0.conv1", in_channels, mid, 1, 1, input_size),
        Conv2dSpec(f"{name}.0.conv2", mid, mid, 3, stride, input_size, padding=1),
        Conv2dSpec(f"{name}.0.conv3", mid, out_channels, 1, 1, size),
        Conv2dSpec(f"{name}.0.downsample", in_channels, out_channels, 1, stride, input_size),
    ]
    remaining = blocks - 1
    if remaining > 0:
        layers += [
            Conv2dSpec(f"{name}.conv1", out_channels, mid, 1, 1, size, repeat=remaining),
            Conv2dSpec(f"{name}.conv2", mid, mid, 3, 1, size, padding=1, repeat=remaining),
            Conv2dSpec(f"{name}.conv3", mid, out_channels, 1, 1, size, repeat=remaining),
        ]
    return layers


def resnet50() -> ModelSpec:
    """ResNet-50 for ImageNet (bottleneck residual blocks)."""
    layers: list[LayerSpec] = [
        Conv2dSpec("conv1", 3, 64, 7, 2, 224, padding=3),
    ]
    layers += _bottleneck_stage("layer1", 64, 64, 56, 3, 1)
    layers += _bottleneck_stage("layer2", 256, 128, 28, 4, 2)
    layers += _bottleneck_stage("layer3", 512, 256, 14, 6, 2)
    layers += _bottleneck_stage("layer4", 1024, 512, 7, 3, 2)
    layers += [LinearSpec("fc", 2048, 1000)]
    return ModelSpec(
        name="ResNet-50",
        family="cnn",
        dataset="ImageNet",
        layers=tuple(layers),
        fp32_accuracy=76.13,
        int8_accuracy=76.17,
        activation_value_sparsity=0.35,
        notes="Bottleneck residual blocks (1x1, 3x3, 1x1 convolutions).",
    )


def _vit(name: str, embed: int, depth: int, mlp_ratio: int, heads: int,
         fp32: float, int8: float) -> ModelSpec:
    tokens = 197  # 14x14 patches + class token for 224x224 / patch 16
    layers: tuple[LayerSpec, ...] = (
        Conv2dSpec("patch_embed", 3, embed, 16, 16, 224),
        LinearSpec("attn.qkv", embed, 3 * embed, tokens=tokens, repeat=depth),
        LinearSpec("attn.proj", embed, embed, tokens=tokens, repeat=depth),
        LinearSpec("mlp.fc1", embed, mlp_ratio * embed, tokens=tokens, repeat=depth),
        LinearSpec("mlp.fc2", mlp_ratio * embed, embed, tokens=tokens, repeat=depth),
        LinearSpec("head", embed, 1000),
    )
    return ModelSpec(
        name=name,
        family="transformer",
        dataset="ImageNet",
        layers=layers,
        fp32_accuracy=fp32,
        int8_accuracy=int8,
        activation_value_sparsity=0.02,
        notes=f"{depth} encoder blocks, {heads} heads, GELU activations (no value sparsity).",
    )


def vit_small() -> ModelSpec:
    """ViT-Small/16 at 224x224 (embed 384, 12 blocks, 6 heads)."""
    return _vit("ViT-Small", 384, 12, 4, 6, fp32=80.16, int8=80.05)


def vit_base() -> ModelSpec:
    """ViT-Base/16 at 224x224 (embed 768, 12 blocks, 12 heads)."""
    return _vit("ViT-Base", 768, 12, 4, 12, fp32=84.54, int8=84.52)


def bert_base(task: str = "MRPC") -> ModelSpec:
    """BERT-base encoder for a GLUE classification task (sequence length 128)."""
    accuracy = {"MRPC": (90.7, 90.4), "SST2": (91.8, 91.63)}
    if task not in accuracy:
        raise ValueError(f"unknown BERT task {task!r}; expected one of {sorted(accuracy)}")
    fp32, int8 = accuracy[task]
    hidden, depth, tokens = 768, 12, 128
    layers: tuple[LayerSpec, ...] = (
        LinearSpec("attn.query", hidden, hidden, tokens=tokens, repeat=depth),
        LinearSpec("attn.key", hidden, hidden, tokens=tokens, repeat=depth),
        LinearSpec("attn.value", hidden, hidden, tokens=tokens, repeat=depth),
        LinearSpec("attn.output", hidden, hidden, tokens=tokens, repeat=depth),
        LinearSpec("ffn.intermediate", hidden, 4 * hidden, tokens=tokens, repeat=depth),
        LinearSpec("ffn.output", 4 * hidden, hidden, tokens=tokens, repeat=depth),
        LinearSpec("pooler", hidden, hidden),
        LinearSpec("classifier", hidden, 2),
    )
    return ModelSpec(
        name=f"BERT-{task}",
        family="transformer",
        dataset=f"GLUE-{task}",
        layers=layers,
        fp32_accuracy=fp32,
        int8_accuracy=int8,
        activation_value_sparsity=0.02,
        notes="12 encoder blocks, hidden 768, GELU activations (no value sparsity).",
    )


def llama3_8b(sequence_length: int = 2048) -> ModelSpec:
    """Llama-3-8B decoder (32 blocks, hidden 4096, GQA with 8 KV heads).

    Used only for the weight-compression study of Figure 17; the reported
    metric is a perplexity proxy computed from weight-reconstruction error, so
    the sequence length only matters for compute accounting.
    """
    hidden, depth = 4096, 32
    kv_hidden = 1024  # 8 KV heads x 128
    intermediate = 14336
    layers: tuple[LayerSpec, ...] = (
        LinearSpec("attn.q_proj", hidden, hidden, tokens=sequence_length, repeat=depth),
        LinearSpec("attn.k_proj", hidden, kv_hidden, tokens=sequence_length, repeat=depth),
        LinearSpec("attn.v_proj", hidden, kv_hidden, tokens=sequence_length, repeat=depth),
        LinearSpec("attn.o_proj", hidden, hidden, tokens=sequence_length, repeat=depth),
        LinearSpec("mlp.gate_proj", hidden, intermediate, tokens=sequence_length, repeat=depth),
        LinearSpec("mlp.up_proj", hidden, intermediate, tokens=sequence_length, repeat=depth),
        LinearSpec("mlp.down_proj", intermediate, hidden, tokens=sequence_length, repeat=depth),
        LinearSpec("lm_head", hidden, 128256, tokens=sequence_length),
    )
    return ModelSpec(
        name="Llama-3-8B",
        family="llm",
        dataset="Wikitext/C4",
        layers=layers,
        fp32_accuracy=0.0,
        int8_accuracy=0.0,
        activation_value_sparsity=0.02,
        notes="Decoder-only LLM; evaluated through the perplexity proxy of Figure 17.",
    )


MODEL_BUILDERS = {
    "VGG-16": vgg16,
    "ResNet-34": resnet34,
    "ResNet-50": resnet50,
    "ViT-Small": vit_small,
    "ViT-Base": vit_base,
    "BERT-MRPC": lambda: bert_base("MRPC"),
    "BERT-SST2": lambda: bert_base("SST2"),
    "Llama-3-8B": llama3_8b,
}


def benchmark_models() -> list[ModelSpec]:
    """The seven DNN benchmarks of Table I (excludes the Llama-3-8B LLM study)."""
    return [
        vgg16(),
        resnet34(),
        resnet50(),
        vit_small(),
        vit_base(),
        bert_base("MRPC"),
        bert_base("SST2"),
    ]


@cache
def get_model(name: str) -> ModelSpec:
    """Look up a benchmark model by its paper name (e.g. ``"ResNet-50"``).

    Every call with one name returns the same frozen :class:`ModelSpec`, so
    its cached :attr:`ModelSpec.digest` is computed once per process.
    """
    if name not in MODEL_BUILDERS:
        raise KeyError(f"unknown model {name!r}; available: {sorted(MODEL_BUILDERS)}")
    return MODEL_BUILDERS[name]()
