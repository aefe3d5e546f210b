"""In-memory spans around gatecnn's public functions, for the traced run.

A span is (name, start, end, parent, image): ``parent`` is the index of
the enclosing span (-1 at top level) and ``image`` the id of the image
being processed.  The tracer reads the current backend's ``GateStats``
at the same boundaries, so each span also knows how many NANDs and
refreshes ran inside it.  Self time and self NANDs are a span's own
figures minus what its child spans cover, except that a NAND stays
charged to the circuit that issued it rather than to its
``fhe_core.nand`` span.

Spans are stored in flat arrays (about 28 bytes each) because the paper
architecture issues some 300,000 traced calls per image.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

# index into a Totals row
CALLS, INCL_S, SELF_S, INCL_NANDS, SELF_NANDS, INCL_REFRESHES = range(6)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.image_id = array("i")
        self.totals: dict[str, list] = {}
        self.trivial_nands = 0
        self.image = -1
        self._stack: list[list] = []
        self._stats = None

    # -- recording -----------------------------------------------------

    def attach(self, backend) -> None:
        """Count NANDs and refreshes against this backend from now on, and
        trace its NAND, encrypt and reveal entry points."""
        self._stats = backend.stats
        backend.nand = self._wrap_nand(backend.nand)
        backend.encrypt_bit = self.wrap(backend.encrypt_bit, "fhe_core.encrypt_bit")
        backend.reveal_bit = self.wrap(backend.reveal_bit, "fhe_core.reveal_bit")

    def _counts(self):
        if self._stats is None:
            return 0, 0
        nands, refreshes, _ = self._stats.snapshot()
        return nands, refreshes

    def _open(self, name: str, owns_nands: bool = True) -> None:
        nands, refreshes = self._counts()
        index = len(self.start)
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.image_id.append(self.image)
        self.end.append(0.0)
        now = time.perf_counter()
        self.start.append(now)
        # [span index, name, start, nands, refreshes, child seconds, child
        #  nands, owns_nands]
        self._stack.append([index, name, now, nands, refreshes, 0.0, 0, owns_nands])

    def _close(self) -> None:
        end = time.perf_counter()
        (index, name, start, nands0, refreshes0, child_s, child_nands,
         owns_nands) = self._stack.pop()
        nands1, refreshes1 = self._counts()
        self.end[index] = end
        duration, nands = end - start, nands1 - nands0
        row = self.totals.get(name)
        if row is None:
            row = self.totals[name] = [0, 0.0, 0.0, 0, 0, 0]
        row[CALLS] += 1
        row[INCL_S] += duration
        row[SELF_S] += duration - child_s
        row[INCL_NANDS] += nands
        row[SELF_NANDS] += nands - child_nands
        row[INCL_REFRESHES] += refreshes1 - refreshes0
        if self._stack:
            self._stack[-1][5] += duration
            if owns_nands:
                self._stack[-1][6] += nands

    @contextmanager
    def span(self, name: str):
        self._open(name)
        try:
            yield
        finally:
            self._close()

    def wrap(self, fn, name):
        """``fn`` recorded as a span; ``name`` is a string or a function of
        the call's keyword arguments."""
        fixed = name if isinstance(name, str) else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open(fixed or name(kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()
        return traced

    def _wrap_nand(self, fn):
        @functools.wraps(fn)
        def traced(a, b):
            ca, cb = a.ciphertext, b.ciphertext
            if ca is not None and (ca.is_trivial or cb.is_trivial):
                self.trivial_nands += 1
            # the NAND stays charged to the circuit that issued it
            self._open("fhe_core.nand", owns_nands=False)
            try:
                return fn(a, b)
            finally:
                self._close()
        return traced

    # -- reading -------------------------------------------------------

    def total(self, name: str, field: int):
        row = self.totals.get(name)
        return row[field] if row else 0

    def save(self, path) -> None:
        """Write every span as a compressed numpy archive: parallel arrays
        ``name_id start end parent image`` plus the ``names`` table."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            image=np.frombuffer(self.image_id, dtype=np.int32))


@contextmanager
def patched(replacements):
    """Temporarily set ``obj.attr = value`` for each (obj, attr, value)."""
    saved = [(obj, attr, getattr(obj, attr)) for obj, attr, _ in replacements]
    try:
        for obj, attr, value in replacements:
            setattr(obj, attr, value)
        yield
    finally:
        for obj, attr, value in saved:
            setattr(obj, attr, value)
