"""Small shared utilities with no simulation semantics.

Two things live here.  :class:`WeakCall` is the one way a callback
refers back to the object that armed it (see "Ownership" in
``DESIGN.md``).  :func:`atomic_write` is the single implementation of
the temp-file + ``fsync`` + ``os.replace`` pattern that
:mod:`repro.checkpoint` (snapshot files) and :mod:`repro.trace`
(Chrome trace exports) rely on.  Readers of either kind of file only
ever observe a complete, fully-flushed file —
a crash mid-write leaves the previous contents (or no file) behind,
never a truncated one.
"""

from __future__ import annotations

import os
import tempfile
import weakref
from typing import Any, Callable, Union


class WeakCall:
    """``method(*args, *more)`` through a weak reference to the object
    of the bound *method*; a no-op once that object is gone.

    For a callback parked where its own object can reach it (a chain
    armed on a queue the object owns, a callback handed to something
    it owns), which would otherwise close a reference cycle.  *args* are held
    strongly, so they must not lead back to the parked place.
    """

    __slots__ = ("_ref", "_func", "_args")

    def __init__(self, method: Callable[..., Any], *args: Any):
        self._ref = weakref.ref(method.__self__)  # type: ignore[attr-defined]
        self._func = method.__func__  # type: ignore[attr-defined]
        self._args = args

    def __call__(self, *more: Any) -> None:
        obj = self._ref()
        if obj is not None:
            self._func(obj, *self._args, *more)

    def __repr__(self) -> str:
        # what a pending kernel step of this callback is called
        # (:func:`repro.engine.core.item_name`): the method's name
        return self._func.__qualname__


def atomic_write(path: str, data: Union[bytes, str], *,
                 prefix: str = ".tmp-") -> None:
    """Atomically replace *path* with *data* (bytes or text).

    The data is written to a temporary file in *path*'s directory
    (created if needed), flushed and fsynced, then renamed over *path*
    with ``os.replace`` — an atomic operation on POSIX and Windows.
    On any failure the temporary file is removed and *path* is left
    untouched.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=prefix, dir=directory)
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
