"""The per-modulus kernel tables: the roots of unity of ``_hist_value``, the
divisor offsets and the p-adic valuation table of the histogram kernel.

Each is built once per modulus and kept read-only, so it must equal a fresh
build bit for bit, refuse writes, and the store must stay within its entry
cap however many moduli pass through.  The cap is lowered here, so no test
allocates a table of _HIST_CAP entries.  The property test leaves its
example count to the hypothesis profile.
"""

from __future__ import annotations

from math import isqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from padicsums import sums


def fresh(kind: str, modulus: int):
    """The table as the kernel built it on every call before it was kept."""
    if kind == "roots":
        return np.exp(2j * np.pi * np.arange(modulus) / modulus)
    small = [d for d in range(1, isqrt(modulus) + 1) if modulus % d == 0]
    divisors = np.array(sorted(set(small + [modulus // d for d in small])), dtype=np.int64)
    if kind == "divisors":
        return divisors, np.concatenate(([0], np.cumsum(divisors)))
    val = np.zeros(modulus, dtype=np.int8)
    for d in divisors[1:].tolist():
        val[::d] += 1
    return val


BUILDERS = {"roots": sums._roots, "divisors": sums._divisor_offsets, "valuations": sums._valuations}


def arrays(value) -> tuple:
    return value if isinstance(value, tuple) else (value,)


def held() -> int:
    return sum(a.size for value in sums._tables.values() for a in arrays(value))


@pytest.fixture
def empty_store(monkeypatch):
    """The shared store, emptied for the test and restored after it."""
    monkeypatch.setattr(sums, "_tables", type(sums._tables)())


@settings(deadline=None)
@given(
    calls=st.lists(
        st.tuples(st.sampled_from(sorted(BUILDERS)),
                  st.sampled_from([2, 3, 4, 5, 8, 9, 25, 27, 49, 97, 101, 121, 125, 128, 243, 343, 1024])),
        min_size=1, max_size=30,
    ),
    cap=st.integers(1, 3000),
)
def test_tables_are_fresh_builds_kept_read_only_within_the_cap(calls, cap):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sums, "_tables", type(sums._tables)())
        mp.setattr(sums, "_TABLE_CAP", cap)
        for kind, modulus in calls:
            got, want = arrays(BUILDERS[kind](modulus)), arrays(fresh(kind, modulus))
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
                assert not a.flags.writeable
                with pytest.raises(ValueError):
                    a[...] = 0
            # the newest table is always kept; older ones only within the cap
            assert next(reversed(sums._tables)) == (BUILDERS[kind].__name__, modulus)
            assert held() <= cap or len(sums._tables) == 1


def test_a_kept_table_is_returned_again_and_the_least_recent_is_dropped(empty_store, monkeypatch):
    monkeypatch.setattr(sums, "_TABLE_CAP", 250)
    first = sums._roots(101)
    assert sums._roots(101) is first
    sums._roots(97)
    sums._roots(101)  # now the most recently used
    sums._roots(89)  # 101 + 97 + 89 > 250: 97 goes
    assert [key for key in sums._tables] == [("_roots", 101), ("_roots", 89)]
    assert sums._roots(101) is first
    assert held() <= 250


def test_hist_value_reads_the_kept_roots(empty_store):
    counts = np.arange(13, dtype=np.int64)
    want = complex(np.sum(counts * fresh("roots", 13)))
    assert sums._hist_value(counts, 13) == want
    assert sums._hist_value(counts, 13) == want
    assert list(sums._tables) == [("_roots", 13)]
