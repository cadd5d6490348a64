"""Checkpointing: save and restore a trainer's embedding state.

Long Freebase-scale runs need restartability.  A checkpoint captures the
global embedding tables, the server-side AdaGrad accumulators, and enough
config metadata to refuse restoring into an incompatible trainer.  The
format is a single ``.npz`` archive.

Writes are **atomic**: the archive is staged to a temporary file in the
destination directory and moved into place with :func:`os.replace`, so a
crash mid-save (the exact scenario the fault-injection layer exercises)
can never leave a corrupt or partial checkpoint — the previous one, if
any, survives intact.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings

import numpy as np

from repro.core.trainer import HETKGTrainer
from repro.ps.server import OPT_PREFIX

#: Bump when the archive layout changes.
FORMAT_VERSION = 1

#: Archive key of each :meth:`ParameterServer.state_arrays` name.  The
#: ``adagrad_`` keys predate optimizer-agnostic state and are the format.
ARCHIVE_KEYS = {
    "entity": "entity_table",
    "relation": "relation_table",
    "opt_entity": "adagrad_entity",
    "opt_relation": "adagrad_relation",
}


def save_checkpoint(trainer: HETKGTrainer, path: str | os.PathLike[str]) -> None:
    """Write the trainer's global state to ``path`` (.npz), atomically.

    The trainer must be set up (tables exist).  Worker-local cache contents
    are deliberately *not* saved: they are derived state and are rebuilt by
    prefetch/filter on restart, exactly as in the paper's workflow.
    """
    if trainer.server is None:
        raise RuntimeError("trainer has no state yet; call setup() or train()")
    state = trainer.server.state_arrays()
    meta = {
        "format_version": FORMAT_VERSION,
        "model": trainer.config.model,
        "dim": trainer.config.dim,
        "num_entities": len(state["entity"]),
        "num_relations": len(state["relation"]),
    }
    arrays = {ARCHIVE_KEYS[name]: array for name, array in state.items()}
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)

    # Stage in the same directory (same filesystem) so os.replace is an
    # atomic rename; a crash between write and replace leaves only a
    # stray ``.tmp`` file, never a truncated archive at ``path``.
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as f:
            # np.savez on a file object does not append ".npz" to anything.
            np.savez(f, **arrays)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise


def read_checkpoint(
    path: str | os.PathLike[str], names=tuple(ARCHIVE_KEYS)
) -> tuple[dict, dict[str, np.ndarray]]:
    """Parse an archive into ``(meta, arrays)``, ``arrays`` keyed by state
    name: of ``names`` (serving asks for the two tables only), the tables
    are required and optimizer state is present iff the archive carries
    it.  The one reader behind training resume and serving load."""
    with np.load(path) as data:
        meta = json.loads(bytes(data["meta_json"]).decode())
        if meta.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"checkpoint format {meta.get('format_version')} is not "
                f"supported (expected {FORMAT_VERSION})"
            )
        arrays = {
            n: data[ARCHIVE_KEYS[n]]
            for n in names
            if not n.startswith(OPT_PREFIX) or ARCHIVE_KEYS[n] in data
        }
    return meta, arrays


def load_checkpoint(trainer: HETKGTrainer, path: str | os.PathLike[str]) -> None:
    """Restore a checkpoint into a set-up trainer, in place.

    Raises ``ValueError`` when the checkpoint's model geometry (or any
    restored optimizer state's shape) does not match the trainer's.  Warns
    when the checkpoint carries AdaGrad accumulators but the trainer's
    optimizer cannot use them (they would otherwise be dropped silently,
    changing the effective learning-rate schedule after a resume).
    """
    if trainer.server is None:
        raise RuntimeError("set up the trainer (setup()/train()) before loading")
    meta, arrays = read_checkpoint(path)
    state = trainer.server.state_arrays()
    for field in ("model", "dim"):
        expected = getattr(trainer.config, field)
        if meta[field] != expected:
            raise ValueError(
                f"checkpoint {field}={meta[field]!r} does not match "
                f"trainer {field}={expected!r}"
            )
    for kind, key in (("entity", "num_entities"), ("relation", "num_relations")):
        if meta[key] != len(state[kind]):
            raise ValueError(
                f"checkpoint has {meta[key]} {kind} rows, trainer has "
                f"{len(state[kind])}"
            )
    if arrays.keys() - state.keys():  # tables are always live: optimizer state
        warnings.warn(
            "checkpoint carries AdaGrad accumulator state but the "
            f"trainer's optimizer is {type(trainer.server.optimizer).__name__}; "
            "the accumulators are ignored and the optimizer resumes cold",
            RuntimeWarning,
            stacklevel=2,
        )
    # Validate every shape against the live arrays *before* mutating
    # anything, so a bad archive cannot leave the trainer half-restored
    # (and the error names the mismatch instead of a later broadcast
    # crash inside the optimizer).
    for name, live in state.items():
        if name in arrays and arrays[name].shape != live.shape:
            raise ValueError(
                f"checkpoint {ARCHIVE_KEYS[name]} has shape {arrays[name].shape}, "
                f"but the live {name} array is {live.shape}"
            )
    for name, live in state.items():
        # Optimizer state the archive lacks resumes cold.
        live[:] = arrays.get(name, 0.0)
