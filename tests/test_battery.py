"""Replay of the committed output battery (``battery.py``)."""

from __future__ import annotations

import json

import pytest

from battery import COMMANDS, load, record, same_json

BATTERY = load()


def test_battery_covers_its_polynomials():
    from battery import polynomials

    assert list(BATTERY) == polynomials()


@pytest.mark.parametrize("text", list(BATTERY))
def test_battery_replays(text):
    for (argv, floats), got, want in zip(COMMANDS, record(text), BATTERY[text]):
        assert got["argv"] == want["argv"] == list(argv)
        assert (got["code"], got["stderr"]) == (want["code"], want["stderr"]), argv
        if floats:
            assert same_json(json.loads(got["stdout"]), json.loads(want["stdout"])), argv
        else:
            assert got["stdout"] == want["stdout"], argv
