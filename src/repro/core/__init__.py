"""Core BBS algorithms: bit-plane analysis, binary pruning, and encoding.

This subpackage implements the paper's primary algorithmic contribution:

* :mod:`repro.core.bitplane` — two's-complement / sign-magnitude bit-plane
  decomposition and redundant-column analysis.
* :mod:`repro.core.sparsity` — value, bit, and bi-directional bit sparsity
  statistics (Figure 3).
* :mod:`repro.core.metrics` — MSE, KL divergence, effective bit width.
* :mod:`repro.core.grouping` — dot-product group reshaping.
* :mod:`repro.core.encoding` — the BBS compression encoding and its
  encode/decode round trip.
* :mod:`repro.core.rounded_average` / :mod:`repro.core.zero_point_shift` —
  the two binary-pruning strategies (Figures 4 and 5, Algorithm 1).
* :mod:`repro.core.binary_pruning` — tensor-level pruning driver and the BBS
  dot-product identities.
* :mod:`repro.core.global_pruning` — hardware-aware global per-channel
  pruning (Algorithm 2) with the paper's conservative/moderate presets.
* :mod:`repro.core.hashing` — stable content digests of tensors and
  configurations (cache keys for the service layer).
* :mod:`repro.core.cache` / :mod:`repro.core.memo` — content-hash LRU cache
  and the process-wide artifact memo that deduplicates model synthesis,
  layer compression and whole-model evaluations across experiments.
"""

from .bitplane import (
    column_weights,
    count_redundant_columns,
    from_bitplanes,
    from_sign_magnitude_planes,
    int_range,
    remove_redundant_columns,
    to_bitplanes,
    to_sign_magnitude_planes,
)
from .binary_pruning import (
    PrunedTensor,
    bbs_dot_product,
    compressed_dot_product,
    prune_group,
    prune_tensor,
)
from .encoding import (
    EncodedGroup,
    METADATA_BITS,
    PrunedGroup,
    PruningStrategy,
    decode_group,
    effective_bits_per_weight,
    encode_group,
    group_storage_bits,
)
from .global_pruning import (
    CONSERVATIVE_PRESET,
    MODERATE_PRESET,
    GlobalPruningResult,
    PruningPreset,
    global_binary_prune,
    select_sensitive_channels,
)
from .cache import CacheStats, ResultCache
from .grouping import GroupedTensor, group_weights, ungroup_weights
from .hashing import stable_digest, tensor_digest
from .memo import (
    ArtifactMemo,
    clear_memo,
    get_memo,
    memo_disabled,
    memo_stats,
    memoized_evaluation,
)
from .metrics import (
    cosine_similarity,
    effective_bits,
    kl_divergence,
    mse,
    normalized_kl,
    rmse,
    sqnr_db,
)
from .rounded_average import rounded_average_group, rounded_average_groups
from .sparsity import (
    SparsityReport,
    bbs_effectual_bits_per_vector,
    bbs_sparsity,
    bit_sparsity_sign_magnitude,
    bit_sparsity_twos_complement,
    effectual_bits_per_vector,
    sparsity_report,
    value_sparsity,
)
from .zero_point_shift import (
    zero_point_shift_group,
    zero_point_shift_groups,
    zero_point_shift_groups_reference,
)

__all__ = [
    # bitplane
    "column_weights",
    "count_redundant_columns",
    "from_bitplanes",
    "from_sign_magnitude_planes",
    "int_range",
    "remove_redundant_columns",
    "to_bitplanes",
    "to_sign_magnitude_planes",
    # binary pruning
    "PrunedTensor",
    "bbs_dot_product",
    "compressed_dot_product",
    "prune_group",
    "prune_tensor",
    # encoding
    "EncodedGroup",
    "METADATA_BITS",
    "PrunedGroup",
    "PruningStrategy",
    "decode_group",
    "effective_bits_per_weight",
    "encode_group",
    "group_storage_bits",
    # global pruning
    "CONSERVATIVE_PRESET",
    "MODERATE_PRESET",
    "GlobalPruningResult",
    "PruningPreset",
    "global_binary_prune",
    "select_sensitive_channels",
    # grouping
    "GroupedTensor",
    "group_weights",
    "ungroup_weights",
    # hashing
    "stable_digest",
    "tensor_digest",
    # caching / memoization
    "ArtifactMemo",
    "CacheStats",
    "ResultCache",
    "clear_memo",
    "get_memo",
    "memo_disabled",
    "memo_stats",
    "memoized_evaluation",
    # metrics
    "cosine_similarity",
    "effective_bits",
    "kl_divergence",
    "mse",
    "normalized_kl",
    "rmse",
    "sqnr_db",
    # sparsity
    "SparsityReport",
    "bbs_effectual_bits_per_vector",
    "bbs_sparsity",
    "bit_sparsity_sign_magnitude",
    "bit_sparsity_twos_complement",
    "effectual_bits_per_vector",
    "sparsity_report",
    "value_sparsity",
    # strategies
    "rounded_average_group",
    "rounded_average_groups",
    "zero_point_shift_group",
    "zero_point_shift_groups",
    "zero_point_shift_groups_reference",
]
