"""Cross-border customs fraud detection with shared prototype memory banks.

Source countries pretrain a fraud encoder on their inspected logs with a
supervised contrastive objective, compress the fraud-like subset into
per-class k-means prototypes, and publish them to a memory bank. Target
countries refine their own scarce-label detectors by attending over the
bank with a learned calibration gate. Everything is seeded and
reproducible; Revenue@k is the evaluation currency throughout.
"""

from ._version import __version__
from .adapt import AdaptParams, FinetuneConfig, akc_finetune, finetune
from .bank import BankClient, BankServer, BankStore, assemble, extract_prototypes, kmeans, random_bank
from .container import MemoryBank, PrototypeSet, deserialize, serialize
from .declarations import (
    CountryDataset,
    CountrySpec,
    Records,
    SplitSpec,
    SyntheticWorldConfig,
    generate_world,
    load_csv,
    mask_labels,
    split,
    write_csv,
)
from .encoder import EncoderConfig, EncoderParams, standardize_stats
from .evaluation import (
    ScenarioConfig,
    ScenarioReport,
    ScenarioRunner,
    default_world_config,
    emit_report,
    revenue_at_k,
    suite_configs,
)
from .pretrain import PretrainConfig, pretrain, scl_loss, select_fraud_like

__all__ = [
    "__version__",
    "AdaptParams",
    "BankClient",
    "BankServer",
    "BankStore",
    "CountryDataset",
    "CountrySpec",
    "EncoderConfig",
    "EncoderParams",
    "FinetuneConfig",
    "MemoryBank",
    "PretrainConfig",
    "PrototypeSet",
    "Records",
    "ScenarioConfig",
    "ScenarioReport",
    "ScenarioRunner",
    "SplitSpec",
    "SyntheticWorldConfig",
    "akc_finetune",
    "assemble",
    "default_world_config",
    "deserialize",
    "emit_report",
    "extract_prototypes",
    "finetune",
    "generate_world",
    "kmeans",
    "load_csv",
    "mask_labels",
    "pretrain",
    "random_bank",
    "revenue_at_k",
    "scl_loss",
    "select_fraud_like",
    "serialize",
    "split",
    "standardize_stats",
    "suite_configs",
    "write_csv",
]
