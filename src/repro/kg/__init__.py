"""Knowledge graph substrate: triple store, datasets, splits, statistics."""

from repro.kg.graph import KnowledgeGraph
from repro.kg.datasets import (
    DatasetSpec,
    FB15K_SPEC,
    WN18_SPEC,
    FREEBASE86M_SPEC,
    generate_dataset,
    load_tsv,
    save_tsv,
)
from repro.kg.splits import Split, split_triples
from repro.kg.stats import (
    access_frequencies,
    top_fraction_share,
    frequency_skew_report,
)
from repro.kg.analytics import hot_set_coverage
from repro.kg.transforms import relabel_by_degree

__all__ = [
    "KnowledgeGraph",
    "DatasetSpec",
    "FB15K_SPEC",
    "WN18_SPEC",
    "FREEBASE86M_SPEC",
    "generate_dataset",
    "load_tsv",
    "save_tsv",
    "Split",
    "split_triples",
    "access_frequencies",
    "top_fraction_share",
    "frequency_skew_report",
    "hot_set_coverage",
    "relabel_by_degree",
]
