"""SharedMemory-backed ndarray storage for the mp training backend.

The parameter server's state arrays (tables and optimizer history) are
moved into ``multiprocessing.shared_memory`` segments so worker processes
operate on the *same* physical arrays as the parent — a pull is a plain
ndarray gather, a push applies the optimizer in place, and no gradient or
embedding ever crosses a pipe.

Layout of one segment::

    [ int64 row count | row capacity x width payload ]

The 8-byte header makes growth visible across processes: ``grow`` appends
rows within the pre-allocated capacity and bumps the header, and any view
taken afterwards (in any process) sees the new length.  This mirrors the
contract of :meth:`repro.ps.kvstore.ShardedKVStore.grow` — streaming
ingestion appends rows mid-run — without ever remapping memory, which a
concurrently-attached child could not survive.

Cleanup discipline (the part that actually bites):

* every segment is owned by exactly one :class:`SharedArena` in the
  creating process; ``close()`` (idempotent, also a context manager and a
  pid-guarded ``weakref.finalize``) unlinks them all, so neither normal
  exit, an exception, nor a crashed *child* leaks ``/dev/shm`` entries;
* attachers never unlink.  Python 3.11's resource tracker registers
  attached segments for cleanup-at-exit anyway (bpo-39959), which would
  destroy the parent's live segments when a child exits — the attach path
  therefore unregisters itself from the tracker;
* :func:`shm_segments` lists live segments by prefix so tests can assert
  leak-freedom by diffing before/after.
"""

from __future__ import annotations

import os
import secrets
import weakref
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory

import numpy as np

#: Prefix of every segment this module creates (also the test hook for
#: asserting nothing leaked).
SEGMENT_PREFIX = "repro-mp-"

#: Bytes reserved at the start of each segment for the int64 row count.
_HEADER_BYTES = 8


def shm_segments(prefix: str = SEGMENT_PREFIX) -> list[str]:
    """Names of live shared-memory segments starting with ``prefix``.

    Linux-specific (reads ``/dev/shm``), which is where both CI and the
    benchmark run; returns ``[]`` where the listing is unavailable rather
    than failing, so callers can skip the assertion on exotic platforms.
    """
    try:
        return sorted(n for n in os.listdir("/dev/shm") if n.startswith(prefix))
    except OSError:
        return []


def _defer_unmap(shm: SharedMemory) -> None:
    """Defer a mapping pinned by live ndarray views to their death.

    ``mmap.close()`` refuses while exported buffers exist, and
    ``SharedMemory.__del__`` would noisily retry the same failing close at
    GC time.  Dropping the handle's references instead reproduces
    ``close()``'s end state minus the eager unmap: the fd is released
    now, and the mapping itself is reclaimed when the last view (which
    keeps the mmap alive through its memoryview) is garbage-collected —
    at the latest, at process exit.  Touches ``SharedMemory`` internals,
    which have been stable since 3.8.
    """
    shm._buf = None
    mmap_obj = shm._mmap
    shm._mmap = None
    del mmap_obj  # views keep the real mmap alive; this was just our ref
    fd = getattr(shm, "_fd", -1)
    if fd >= 0:
        try:
            os.close(fd)
        except OSError:
            pass
        shm._fd = -1


class SharedArray:
    """One 2-D ndarray living in a SharedMemory segment.

    Create with :meth:`create` (copies an existing array in, owner side) or
    :meth:`attach` (zero-copy, child side).  ``view()`` returns an ndarray
    aliasing the segment at the *current* row count.
    """

    def __init__(
        self,
        shm: SharedMemory,
        width: int,
        dtype: np.dtype,
        capacity_rows: int,
        owner: bool,
    ) -> None:
        self._shm = shm
        self._width = width
        self._dtype = np.dtype(dtype)
        self._capacity_rows = capacity_rows
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------- lifecycle

    @classmethod
    def create(
        cls, array: np.ndarray, capacity_rows: int | None = None
    ) -> "SharedArray":
        """Copy ``array`` into a fresh segment (this process becomes owner).

        ``capacity_rows`` pre-allocates room for growth; defaults to the
        array's current row count (no growth headroom).
        """
        array = np.ascontiguousarray(array)
        if array.ndim != 2:
            raise ValueError(f"SharedArray holds 2-D tables, got ndim={array.ndim}")
        rows, width = array.shape
        capacity = rows if capacity_rows is None else int(capacity_rows)
        if capacity < rows:
            raise ValueError(f"capacity_rows={capacity} < current rows {rows}")
        nbytes = _HEADER_BYTES + capacity * width * array.dtype.itemsize
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        shm = SharedMemory(name=name, create=True, size=max(nbytes, 1))
        self = cls(shm, width, array.dtype, capacity, owner=True)
        self._payload(rows)[:] = array
        self._set_rows(rows)
        return self

    @classmethod
    def attach(cls, spec: dict) -> "SharedArray":
        """Attach to an existing segment described by ``spec`` (non-owner)."""
        # Python 3.11 registers *attached* segments with the resource
        # tracker (bpo-39959), which would unlink the owner's live data
        # when this process exits.  Worse, children share the parent's
        # tracker process, so unregister-after-attach would erase the
        # *owner's* registration.  Suppress registration entirely for the
        # duration of the attach (single-threaded child startup).
        original_register = resource_tracker.register
        resource_tracker.register = lambda name, rtype: None
        try:
            shm = SharedMemory(name=spec["name"])
        finally:
            resource_tracker.register = original_register
        return cls(
            shm,
            int(spec["width"]),
            np.dtype(spec["dtype"]),
            int(spec["capacity_rows"]),
            owner=False,
        )

    def spec(self) -> dict:
        """Picklable description a child needs to :meth:`attach`."""
        return {
            "name": self._shm.name,
            "width": self._width,
            "dtype": self._dtype.str,
            "capacity_rows": self._capacity_rows,
        }

    def close(self) -> None:
        """Detach (and, for the owner, unlink).  Idempotent.

        A live ndarray view pins the mapping (``BufferError`` from mmap);
        the unmap is then deferred to the view's death or process exit.
        The *unlink* still happens regardless — removing the ``/dev/shm``
        name never waits on views — so segments cannot leak past their
        owner, and :meth:`view`/:meth:`grow` refuse to hand out new
        aliases once closed.
        """
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except BufferError:
            _defer_unmap(self._shm)
        if self._owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:
                pass

    # ---------------------------------------------------------------- access

    def _require_open(self) -> None:
        if self._closed:
            raise ValueError("SharedArray is closed")

    def _rows_header(self) -> np.ndarray:
        return np.frombuffer(self._shm.buf, dtype=np.int64, count=1)

    def _set_rows(self, rows: int) -> None:
        self._rows_header()[0] = rows

    def _payload(self, rows: int) -> np.ndarray:
        flat = np.frombuffer(
            self._shm.buf,
            dtype=self._dtype,
            count=rows * self._width,
            offset=_HEADER_BYTES,
        )
        return flat.reshape(rows, self._width)

    @property
    def rows(self) -> int:
        self._require_open()
        return int(self._rows_header()[0])

    @property
    def capacity_rows(self) -> int:
        return self._capacity_rows

    def view(self) -> np.ndarray:
        """An ndarray aliasing the segment at the current row count.

        The view stays valid across peers' in-place writes but does *not*
        lengthen when a peer grows the table — take a fresh view after
        growth.
        """
        self._require_open()
        return self._payload(self.rows)

    def grow(self, new_rows: np.ndarray) -> np.ndarray:
        """Append rows within capacity; returns the full-length view."""
        self._require_open()
        new_rows = np.asarray(new_rows, dtype=self._dtype).reshape(-1, self._width)
        rows = self.rows
        total = rows + len(new_rows)
        if total > self._capacity_rows:
            raise ValueError(
                f"grow to {total} rows exceeds shared capacity "
                f"{self._capacity_rows}; re-create the arena with more "
                f"headroom"
            )
        if len(new_rows):
            self._payload(total)[rows:] = new_rows
            self._set_rows(total)
        return self._payload(total)


class SharedArena:
    """Owns a family of :class:`SharedArray` segments with one lifetime.

    Guarantees every segment it created is unlinked exactly once, whether
    the parent exits the ``with`` block normally, raises, or is torn down
    by the GC/interpreter (``weakref.finalize``).  The finalizer is guarded
    by the creating pid so a forked child inheriting the object cannot
    unlink segments the parent still uses.
    """

    def __init__(self) -> None:
        self._arrays: dict[str, SharedArray] = {}
        self._pid = os.getpid()
        self._finalizer = weakref.finalize(self, SharedArena._cleanup, self._arrays, self._pid)

    @staticmethod
    def _cleanup(arrays: dict[str, SharedArray], owner_pid: int) -> None:
        if os.getpid() != owner_pid:
            return  # forked copy: the segments belong to the parent
        for array in arrays.values():
            array.close()
        arrays.clear()

    # ------------------------------------------------------------------- api

    def create(
        self, key: str, array: np.ndarray, capacity_rows: int | None = None
    ) -> SharedArray:
        """Copy ``array`` into a new owned segment registered under ``key``."""
        if key in self._arrays:
            raise KeyError(f"arena already holds a segment for {key!r}")
        shared = SharedArray.create(array, capacity_rows=capacity_rows)
        self._arrays[key] = shared
        return shared

    def __getitem__(self, key: str) -> SharedArray:
        return self._arrays[key]

    def specs(self) -> dict[str, dict]:
        """Picklable ``{key: spec}`` bundle for child processes."""
        return {key: a.spec() for key, a in self._arrays.items()}

    @staticmethod
    def attach_all(specs: dict[str, dict]) -> dict[str, SharedArray]:
        """Attach every segment in a :meth:`specs` bundle (child side)."""
        return {key: SharedArray.attach(spec) for key, spec in specs.items()}

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
