import json

import pytest

from mzv import (
    Composition,
    composition,
    composition_from_json,
    iter_admissible,
    parse_composition,
    to_word,
)


def test_basic_properties():
    c = composition(2, 1)
    assert c.parts == (2, 1)
    assert c.signs is None
    assert c.weight == 3
    assert c.depth == 2
    assert c.admissible
    assert str(c) == "2,1"
    assert c.zeta_str() == "ζ(2,1)"


def test_signed_composition():
    c = composition(2, -1)
    assert c.parts == (2, 1)
    assert c.signs == (1, -1)
    assert c.weight == 3
    assert c.sign(0) == 1 and c.sign(1) == -1
    assert str(c) == "2,-1"


def test_admissibility():
    assert not composition(1, 2).admissible
    assert composition(2).admissible
    # an alternating leading term converges even at exponent 1
    assert composition(-1).admissible
    assert composition(-1, 2).admissible


def test_parse_round_trip():
    assert parse_composition("3,1") == composition(3, 1)
    assert parse_composition("2,-1") == composition(2, -1)
    assert parse_composition(" 4 , 2 ") == composition(4, 2)
    for bad in ("", "2,,1", "a", "2.5", "0,2"):
        with pytest.raises(ValueError):
            parse_composition(bad)


def test_json_round_trip():
    for c in (composition(3, 1), composition(2, -1, 1)):
        packed = json.dumps(c.to_json())
        assert composition_from_json(json.loads(packed)) == c


def test_sort_key_orders_by_weight_then_depth():
    cs = [composition(2, 1), composition(3), composition(2), composition(2, 2),
          composition(4), composition(2, 1, 1)]
    ordered = sorted(cs, key=lambda c: c.sort_key)
    assert [c.parts for c in ordered] == [
        (2,), (3,), (2, 1), (4,), (2, 2), (2, 1, 1)]


def test_words():
    assert to_word(composition(2, 1)) == (0, 1, 1)
    assert to_word(composition(3)) == (0, 0, 1)
    # the letter of part i is sigma_1 ... sigma_i
    assert to_word(composition(2, -1)) == (0, 1, -1)
    assert to_word(composition(-1, -2)) == (-1, 0, 1)


def test_iter_admissible_counts():
    assert [c.parts for c in iter_admissible(4)] == [
        (2,), (3,), (2, 1), (4,), (2, 2), (3, 1), (2, 1, 1)]
    assert len(list(iter_admissible(8))) == 127
    assert len(list(iter_admissible(8, min_depth=2))) == 120
    assert all(c.parts[0] >= 2 for c in iter_admissible(8))


def test_composition_is_hashable_and_frozen():
    c = composition(2, 1)
    assert hash(c) == hash(composition(2, 1))
    with pytest.raises(AttributeError):
        c.parts = (3,)
    assert c != composition(1, 2)
    assert composition(2, 1) != composition(2, -1)


def test_invalid_parts_rejected():
    with pytest.raises(ValueError):
        composition(0, 2)
    with pytest.raises(ValueError):
        Composition((2, 0))
    with pytest.raises(ValueError):
        composition()
