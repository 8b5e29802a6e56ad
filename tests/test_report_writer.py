"""The CLI's report writer against `json.dumps(value, indent=2)`.

`region`, `wn` and `verify` print their reports through `cli._dumps`,
which must give the same bytes as the standard library's indented
encoder on every value a report can hold, and on values no report holds
today.  Two oracles: seeded random nested values, and every golden
report read back and written again.
"""

import enum
import json
import random
from collections import OrderedDict
from pathlib import Path

import pytest

from smdc.cli import _dumps

GOLDEN = Path(__file__).parent / "golden"


class Level(enum.IntEnum):
    ONE = 1


class Label(str):
    pass


AWKWARD_TEXT = ['', 'plain', 'say "hi"', 'back\\slash', 'tab\there',
                'nl\nand\rcr', '\x00\x01\x1f\x7f', 'café', '☃',
                '\U0001f600', '\ud800 lone surrogate', '/ slash']


def random_text(rng: random.Random) -> str:
    if rng.random() < 0.5:
        return rng.choice(AWKWARD_TEXT)
    alphabet = 'ab"\\\t\n\x02é中\U0001f600 '
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def random_int(rng: random.Random) -> int:
    return rng.choice([0, 1, -1, rng.randrange(-1000, 1000),
                       rng.randrange(2 ** 63, 2 ** 200),
                       -rng.randrange(2 ** 64, 2 ** 130)])


def random_float(rng: random.Random) -> float:
    return rng.choice([0.0, -0.0, 1.0, 0.5, 1e-12, 1e300, -2.5e-300,
                       rng.random(), -rng.random() * 1e6, 0.9182958340544896,
                       float("nan"), float("inf"), float("-inf")])


def random_scalar(rng: random.Random):
    kind = rng.randrange(6)
    if kind == 0:
        return random_int(rng)
    if kind == 1:
        return random_float(rng)
    if kind == 2:
        return random_text(rng)
    return [None, True, False][kind - 3]


def random_key(rng: random.Random):
    return rng.choice([random_text(rng), random_int(rng), True, False,
                       None, random_float(rng), f"{rng.randrange(9)},1"])


def random_value(rng: random.Random, depth: int = 0):
    kind = rng.randrange(7 if depth < 5 else 1)
    if kind == 0:
        return random_scalar(rng)
    if kind == 1:
        # a [numerator, denominator] pair, or a short int list that may
        # hold bools
        return [rng.choice([random_int(rng), True, False])
                for _ in range(rng.choice([2, 2, 2, 0, 1, 3]))]
    if kind == 2:
        return tuple(random_value(rng, depth + 1)
                     for _ in range(rng.randrange(4)))
    if kind == 3:
        return [[rng.randrange(-3, 4), rng.randrange(1, 4)]
                for _ in range(rng.randrange(4))]
    if kind == 4:
        return {random_key(rng): random_value(rng, depth + 1)
                for _ in range(rng.randrange(4))}
    return [random_value(rng, depth + 1) for _ in range(rng.randrange(4))]


@pytest.mark.parametrize("seed", range(40))
def test_writer_matches_json_dumps_on_random_values(seed):
    rng = random.Random(seed)
    for _ in range(25):
        value = random_value(rng)
        assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], {"a": {}}, [(), {}], None, True, False, 0,
    -(2 ** 70), 2 ** 64, "x", 1.5, [True, 1], [1, True], [False, False],
    [2 ** 65, -(2 ** 65)], {1: [1, 2], True: [0, 1], None: [], 2.5: "f"},
    {"": {"": [[1, 1], [1, 1]]}}, ([1, 2], (3, 4)),
    # subclasses write as their base types
    [Level.ONE, Level.ONE], {Level.ONE: Label("x"), Label("y"): 2.5},
    OrderedDict(b=[1, 2], a=None),
])
def test_writer_matches_json_dumps_on_edge_values(value):
    assert _dumps(value) == json.dumps(value, indent=2)


def test_pairs_render_by_depth():
    # one pair at two depths: the cached text must carry each depth's indent
    value = {"a": [1, 2], "b": {"c": [1, 2], "d": [[1, 2], [1, 2]]}}
    assert _dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{"a": object()}, [1, {2, 3}],
                                   {(1, 2): "tuple key"}, b"bytes"])
def test_writer_refuses_what_json_dumps_refuses(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        _dumps(value)


@pytest.mark.parametrize("path", sorted(
    f"{kind}/{p.name}" for kind in ("region", "wn", "verify")
    for p in (GOLDEN / kind).glob("*.json")))
def test_writer_reproduces_every_golden_report(path):
    text = (GOLDEN / path).read_text()
    report = json.loads(text)
    assert _dumps(report) + "\n" == text
    assert _dumps(report) == json.dumps(report, indent=2)
