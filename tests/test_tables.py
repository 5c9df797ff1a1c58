"""The kept tables: the roots of unity of ``_hist_value``, the p-adic
valuation table of the histogram kernel, and the lattice layer's
composition shells.

Each is built once per key and kept read-only in one shared store, so it
must equal a fresh build bit for bit, refuse writes, and the store must stay
within its byte cap however many tables pass through; a table that alone
exceeds the cap is returned but not kept.  The cap is lowered here, so no
test allocates a large table.  The property test leaves its example count to
the hypothesis profile.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padicsums import newton, store, sums
from padicsums.poly import parse_polynomial

pytestmark = pytest.mark.more_examples  # every test here reruns with the ci profile


def compositions(n: int, T: int):
    """Every k in N^n with |k| <= T, in lexicographic order."""
    if n == 0:
        yield ()
        return
    for v in range(T + 1):
        for rest in compositions(n - 1, T - v):
            yield (v,) + rest


def fresh(kind: str, key):
    """The table as it was built on every call before it was kept."""
    if kind == "shells":
        n, T = key
        return np.array(list(compositions(n, T)), dtype=np.min_scalar_type(T)).reshape(-1, n).T
    if kind == "roots":
        return np.exp(2j * np.pi * np.arange(key) / key)
    p, m = key
    val = []
    for r in range(p ** m):
        v = 0
        while v < m and r % p ** (v + 1) == 0:
            v += 1
        val.append(v)
    return np.array(val, dtype=np.int8)


#: (builder, the name it keeps its tables under) per kind of table
BUILDERS = {
    "roots": (sums._roots, "_roots"),
    "valuations": (lambda key: sums._valuations(*key), "_valuations"),
    "shells": (lambda key: newton._shell(*key), "_shell"),
}
PRIME_POWERS = [(2, 1), (3, 1), (2, 2), (5, 1), (2, 3), (3, 2), (5, 2), (3, 3), (7, 2), (97, 1),
                (101, 1), (11, 2), (5, 3), (2, 7), (3, 5), (7, 3), (2, 10)]
SHELLS = st.tuples(st.integers(1, 4), st.integers(0, 12))


def arrays(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def held() -> int:
    return sum(a.nbytes for value in store.TABLES.tables.values() for a in arrays(value))


def capped(mp, cap: int) -> store.TableStore:
    """A fresh, empty store with this byte cap, in place of the shared one."""
    mp.setattr(store, "TABLES", store.TableStore(cap))
    return store.TABLES


@settings(deadline=None)
@given(
    calls=st.lists(
        st.one_of(
            st.tuples(st.just("roots"), st.sampled_from([p ** m for p, m in PRIME_POWERS])),
            st.tuples(st.just("valuations"), st.sampled_from(PRIME_POWERS)),
            st.tuples(st.just("shells"), SHELLS),
        ),
        min_size=1, max_size=30,
    ),
    cap=st.integers(1, 40000),
)
def test_tables_are_fresh_builds_kept_read_only_within_the_cap(calls, cap):
    with pytest.MonkeyPatch.context() as mp:
        kept = capped(mp, cap)
        for kind, key in calls:
            build, name = BUILDERS[kind]
            value = build(key)
            got, want = arrays(value), arrays(fresh(kind, key))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
            # the newest table is kept unless it alone exceeds the cap
            newest = next(reversed(kept.tables), None)
            assert (newest == (name, *arrays(key))) == (sum(a.nbytes for a in got) <= cap)
            assert kept.nbytes == held() <= cap


def test_a_kept_table_is_returned_again_and_the_least_recent_is_dropped(monkeypatch):
    kept = capped(monkeypatch, 250 * 16)  # room for 250 complex128 roots
    first = sums._roots(101)
    assert sums._roots(101) is first
    sums._roots(97)
    sums._roots(101)  # now the most recently used
    sums._roots(89)  # 101 + 97 + 89 > 250: 97 goes
    assert list(kept.tables) == [("_roots", 101), ("_roots", 89)]
    assert sums._roots(101) is first
    assert kept.nbytes == held() == (101 + 89) * 16


def test_a_table_above_the_cap_is_used_but_not_kept(monkeypatch):
    kept = capped(monkeypatch, 100 * 16)
    small = sums._roots(13)
    big = sums._roots(101)  # 1616 bytes > 1600: returned, read-only, not kept
    assert big.tobytes() == fresh("roots", 101).tobytes() and not big.flags.writeable
    assert list(kept.tables) == [("_roots", 13)] and sums._roots(13) is small
    assert sums._roots(101) is not big  # built again, since it was not kept
    assert kept.nbytes == 13 * 16


def test_hist_value_reads_the_kept_roots(monkeypatch):
    kept = capped(monkeypatch, 1 << 20)
    counts = np.arange(13, dtype=np.int64)
    want = complex(np.sum(counts * fresh("roots", 13)))
    assert sums._hist_value(counts, 13) == want
    assert sums._hist_value(counts, 13) == want
    assert list(kept.tables) == [("_roots", 13)]


def test_polyhedra_of_one_dimension_share_the_kept_shells(monkeypatch):
    kept = capped(monkeypatch, 1 << 20)
    first = newton._build(parse_polynomial("x*y+z^2"))
    points = [blk.k.tolist() for blk in newton._classified_blocks(first, 30, newton._shell(3, 30))]
    shells = dict(kept.tables)
    assert shells and all(key[0] == "_shell" for key in shells)
    # a second polyhedron of dimension 3 builds no shell of its own
    newton._build(parse_polynomial("x^2+y*z")).lattice_table(30)
    assert set(kept.tables) == set(shells)
    assert all(kept.tables[key] is value for key, value in shells.items())
    assert [blk.k.tolist() for blk in newton._classified_blocks(first, 30, newton._shell(3, 30))] == points
