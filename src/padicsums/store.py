"""One byte-capped store of read-only tables, each built once per key.

The kernel's per-modulus tables (``sums``: roots of unity, p-adic
valuations) and the lattice layer's prime-free compositions
(``newton._shell``: every k in N^n with |k| <= T) are pure functions of a
few integers, so a builder decorated with ``kept_table`` builds each once,
makes it read-only and keeps it in ``TABLES``.  The store holds at most
``cap`` bytes of arrays in all: past that, the least recently used tables
are dropped, and a table that alone exceeds the cap is returned without
being kept, so it cannot push out everything else or stay resident after
its one use.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import wraps
from typing import Hashable


def _arrays(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def _nbytes(value) -> int:
    return sum(a.nbytes for a in _arrays(value))


class TableStore:
    """Read-only tables by key, least recently used first, within ``cap``
    bytes; ``nbytes`` is what the kept tables hold."""

    def __init__(self, cap: int):
        self.cap = cap
        self.tables: "OrderedDict[Hashable, object]" = OrderedDict()
        self.nbytes = 0

    def keep(self, key: Hashable, value):
        """``value`` made read-only, and kept under ``key`` if it fits the
        cap (dropping the least recently used tables to make room)."""
        for a in _arrays(value):
            a.flags.writeable = False
        size = _nbytes(value)
        if size <= self.cap:
            self.tables[key] = value
            self.nbytes += size
            while self.nbytes > self.cap:  # stops at the new table, which fits
                self.nbytes -= _nbytes(self.tables.popitem(last=False)[1])
        return value


#: The one store of every ``kept_table`` builder.  4 MiB holds every table
#: that the formula sweep over the acceptance corpus keeps (about 0.8 MB) or
#: a T = 30 nu scan keeps (about 0.12 MB), while a roots table of a
#: histogram near the 2^22 cap (64 MiB) is used and let go.
TABLES = TableStore(4 << 20)


def kept_table(build):
    """Decorator: ``build(*args)``, an array or a tuple of arrays, is kept in
    ``TABLES`` under (its name, args)."""
    name = build.__name__

    @wraps(build)
    def table(*args):
        key, store = (name, *args), TABLES
        if key in store.tables:
            store.tables.move_to_end(key)
            return store.tables[key]
        return store.keep(key, build(*args))

    return table
