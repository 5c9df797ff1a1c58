"""One byte-capped store of read-only tables, each built once per key.

The kernel's per-modulus tables (``sums``: roots of unity, p-adic
valuations) and the lattice layer's prime-free composition shells
(``newton._shell``: every k in N^n with |k| <= T, which the lattice blocks
are sliced from, each filled from the kept shells of n - 1 entries) are pure
functions of a few integers, so a builder decorated with ``kept_table``
builds each once, makes it read-only and keeps it in ``TABLES``.  Every
table is one numpy array.  The store holds at most ``cap`` bytes of arrays
in all: past that, the least recently used tables are dropped, and a table
that alone exceeds the cap is returned without being kept, so it cannot push
out everything else or stay resident after its one use.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import wraps
from typing import Hashable


class TableStore:
    """Read-only tables by key, least recently used first, within ``cap``
    bytes; ``nbytes`` is what the kept tables hold."""

    def __init__(self, cap: int):
        self.cap = cap
        self.tables: "OrderedDict[Hashable, object]" = OrderedDict()
        self.nbytes = 0

    def keep(self, key: Hashable, value):
        """The array ``value`` made read-only, and kept under ``key`` if it
        fits the cap (dropping the least recently used tables to make room)."""
        value.flags.writeable = False
        if value.nbytes <= self.cap:
            self.tables[key] = value
            self.nbytes += value.nbytes
            while self.nbytes > self.cap:  # stops at the new table, which fits
                self.nbytes -= self.tables.popitem(last=False)[1].nbytes
        return value


#: The one store of every ``kept_table`` builder.  4 MiB holds every table
#: that the formula sweep over the acceptance corpus keeps (about 1.8 MB, 1.2
#: MB of it shells) or a T = 30 nu scan keeps (about 0.34 MB), while a roots
#: table of a histogram near the 2^22 cap (64 MiB) or a shell near the
#: lattice point cap (up to 40 MB) is used and let go; such a shell stays only
#: with the polyhedron whose lattice table was tallied from it.
TABLES = TableStore(4 << 20)


def kept_table(build):
    """Decorator: ``build(*args)``, an array, is kept in ``TABLES`` under
    (its name, args)."""
    name = build.__name__

    @wraps(build)
    def table(*args):
        key, store = (name, *args), TABLES
        if key in store.tables:
            store.tables.move_to_end(key)
            return store.tables[key]
        return store.keep(key, build(*args))

    return table
