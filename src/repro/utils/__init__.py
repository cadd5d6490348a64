"""Shared utilities: seeding, simulated time, validation, table rendering."""

from repro.utils.rng import (
    derive_stream,
    make_rng,
    spawn_rngs,
    split_worker_streams,
    worker_stream,
)
from repro.utils.simclock import SimClock
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_fraction,
    check_positive,
)

__all__ = [
    "derive_stream",
    "make_rng",
    "spawn_rngs",
    "split_worker_streams",
    "worker_stream",
    "SimClock",
    "format_table",
    "check_fraction",
    "check_positive",
]
