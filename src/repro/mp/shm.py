"""SharedMemory-backed ndarray storage for the mp backends.

The parameter server's state arrays (tables and optimizer history) are
moved into ``multiprocessing.shared_memory`` segments so worker processes
operate on the *same* physical arrays as the parent — a pull is a plain
ndarray gather, a push applies the optimizer in place, and no gradient or
embedding ever crosses a pipe.

A segment holds exactly one array, and a child never learns a segment's
role: the parent pickles its own objects with :meth:`SharedArena.dumps`,
which writes each array :meth:`SharedArena.share` returned as its
segment's ``{name, shape, dtype}`` spec, and the child's
:meth:`SharedArena.loads` attaches every named segment in place of the
array.  Everything else in the object graph travels by value.  The
module-level :func:`dumps`/:func:`loads` pair underneath serves the
other direction too: a child hands its worker back with the parent's own
objects written as persistent ids.

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

import io
import os
import pickle
import secrets
import weakref
from multiprocessing import resource_tracker
from multiprocessing.shared_memory import SharedMemory

import numpy as np

#: Prefix of every segment this module creates (also the test hook for
#: asserting nothing leaked).
SEGMENT_PREFIX = "repro-mp-"


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


def dumps(obj, persistent_id) -> bytes:
    """Pickle ``obj``, writing each object ``persistent_id`` names as that id.

    ``persistent_id(o)`` returns ``None`` for an object that travels by
    value.  Both directions of the mp backends use this pair: the parent
    names shared views (:meth:`SharedArena.dumps`), a child names the
    parent's own objects its worker must not carry back.
    """
    buffer = io.BytesIO()
    pickler = pickle.Pickler(buffer, protocol=pickle.HIGHEST_PROTOCOL)
    pickler.persistent_id = persistent_id
    pickler.dump(obj)
    return buffer.getvalue()


def loads(blob: bytes, persistent_load):
    """Unpickle a :func:`dumps` blob, resolving each id by ``persistent_load``."""
    unpickler = pickle.Unpickler(io.BytesIO(blob))
    unpickler.persistent_load = persistent_load
    return unpickler.load()


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
    """One ndarray living in a SharedMemory segment.

    Create with :meth:`create` (copies an existing array in, owner side) or
    :meth:`attach` (zero-copy, child side).  ``view()`` returns an ndarray
    aliasing the segment.
    """

    def __init__(
        self, shm: SharedMemory, shape: tuple, dtype: np.dtype, owner: bool
    ) -> None:
        self._shm = shm
        self._shape = tuple(shape)
        self._dtype = np.dtype(dtype)
        self._owner = owner
        self._closed = False

    # ------------------------------------------------------------- lifecycle

    @classmethod
    def create(cls, array: np.ndarray) -> "SharedArray":
        """Copy ``array`` into a fresh segment (this process becomes owner)."""
        array = np.ascontiguousarray(array)
        name = f"{SEGMENT_PREFIX}{os.getpid()}-{secrets.token_hex(4)}"
        shm = SharedMemory(name=name, create=True, size=max(array.nbytes, 1))
        self = cls(shm, array.shape, array.dtype, owner=True)
        self.view()[...] = array
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
        return cls(shm, spec["shape"], np.dtype(spec["dtype"]), owner=False)

    def spec(self) -> dict:
        """Picklable description a child needs to :meth:`attach`."""
        return {"name": self._shm.name, "shape": self._shape, "dtype": self._dtype.str}

    def close(self) -> None:
        """Detach (and, for the owner, unlink).  Idempotent.

        A live ndarray view pins the mapping (``BufferError`` from mmap);
        the unmap is then deferred to the view's death or process exit.
        The *unlink* still happens regardless — removing the ``/dev/shm``
        name never waits on views — so segments cannot leak past their
        owner, and :meth:`view` refuses to hand out new aliases once
        closed.
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

    def view(self) -> np.ndarray:
        """An ndarray aliasing the segment; peers' writes show through it."""
        if self._closed:
            raise ValueError("SharedArray is closed")
        return np.ndarray(self._shape, dtype=self._dtype, buffer=self._shm.buf)


class SharedArena:
    """Owns a family of :class:`SharedArray` segments with one lifetime.

    Guarantees every segment it created is unlinked exactly once, whether
    the parent exits the ``with`` block normally, raises, or is torn down
    by the GC/interpreter (``weakref.finalize``).  The finalizer is guarded
    by the creating pid so a forked child inheriting the object cannot
    unlink segments the parent still uses.
    """

    def __init__(self) -> None:
        self._arrays: list[SharedArray] = []
        #: ``id(view) -> spec`` of every view :meth:`share` returned; the
        #: arena keeps those views alive, so an id names its view only.
        self._specs: dict[int, dict] = {}
        self._views: list[np.ndarray] = []
        self._pid = os.getpid()
        self._finalizer = weakref.finalize(
            self, SharedArena._cleanup, self._arrays, self._specs, self._views, self._pid
        )

    @staticmethod
    def _cleanup(arrays, specs, views, owner_pid: int) -> None:
        if os.getpid() != owner_pid:
            return  # forked copy: the segments belong to the parent
        specs.clear()
        views.clear()
        for array in arrays:
            array.close()
        arrays.clear()

    # ------------------------------------------------------------------- api

    def share(self, array: np.ndarray) -> np.ndarray:
        """Copy ``array`` into a new owned segment; returns its view.

        Only this very view object travels by segment name through
        :meth:`dumps` — an array derived from it pickles by value.
        """
        shared = SharedArray.create(array)
        self._arrays.append(shared)
        view = shared.view()
        self._views.append(view)
        self._specs[id(view)] = shared.spec()
        return view

    def dumps(self, obj) -> bytes:
        """Pickle ``obj``, writing every :meth:`share` view as its spec."""
        specs = self._specs
        return dumps(obj, lambda o: specs.get(id(o)))

    @staticmethod
    def loads(blob: bytes, attached: list[SharedArray]):
        """Unpickle a :meth:`dumps` blob (child side).

        Each named segment is attached once, however often the object
        graph refers to it, and recorded in ``attached``; the caller
        closes those once every view into them is dead.
        """
        views: dict[str, np.ndarray] = {}

        def persistent_load(spec: dict) -> np.ndarray:
            if spec["name"] not in views:
                shared = SharedArray.attach(spec)
                attached.append(shared)
                views[spec["name"]] = shared.view()
            return views[spec["name"]]

        return loads(blob, persistent_load)

    def close(self) -> None:
        """Unlink every owned segment (idempotent)."""
        if self._finalizer.alive:
            self._finalizer()

    def __enter__(self) -> "SharedArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
