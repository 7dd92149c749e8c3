"""The strict-JSON record codec and the persisted shape it must keep."""

import json
from dataclasses import dataclass, field

import pytest

from repro.health import HealthFinding
from repro.incidents import IncidentRecord
from repro.jsonrecord import JsonRecord, Scalar, decode, encode
from repro.sqlanalysis import Severity
from tests import record_format


def _golden_lines() -> list[str]:
    return record_format.GOLDEN.read_text().splitlines()


class TestPersistedFormat:
    """Lines pinned with the hand-written serialisers stay byte-identical."""

    @pytest.mark.parametrize("index,cls", [(0, IncidentRecord), (1, HealthFinding)])
    def test_line_decodes_and_reencodes_to_the_same_bytes(self, index, cls):
        line = _golden_lines()[index]
        obj = cls.from_dict(json.loads(line))
        assert record_format.dumps(obj.to_dict()) == line
        assert cls.from_dict(obj.to_dict()) == obj

    def test_built_records_encode_to_the_pinned_lines(self):
        built = [record_format.dumps(r.to_dict()) for r in record_format.build()]
        assert built == _golden_lines()

    def test_pinned_record_covers_the_nested_shapes(self):
        record = IncidentRecord.from_dict(json.loads(_golden_lines()[0]))
        assert record.anomaly.detected_at is None
        assert record.analysis[1].severity is Severity.CRITICAL
        assert record.advisories[0].tables == ("t",)
        assert record.repair.skipped == ({"sql_id": "H1", "reason": "already index-backed"},)
        assert record.trace.children[0].children[0].name == "pinsql.rsql"
        assert record.metric_traces[0].samples[1] == (411, 57.25)


@dataclass(frozen=True)
class _Leaf(JsonRecord):
    n: int
    tag: str = ""


@dataclass(frozen=True)
class _Node(JsonRecord):
    name: str
    leaf: _Leaf | None = None
    leaves: tuple[_Leaf, ...] = ()
    pair: tuple[int, float] = (0, 0.0)
    triple: tuple[int, str, bool] = (0, "", False)
    level: Severity = Severity.INFO
    facts: dict[str, Scalar] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class TestCodec:
    def test_round_trip_and_key_order(self):
        node = _Node(
            name="n", leaf=_Leaf(1, "a"), leaves=(_Leaf(2), _Leaf(3, "c")),
            pair=(4, 0.5), triple=(1, "x", True), level=Severity.HIGH,
            facts={"k": 1.5}, extra={"nested": [1, 2]},
        )
        data = encode(node)
        assert list(data) == [
            "name", "leaf", "leaves", "pair", "triple", "level", "facts", "extra",
        ]
        assert data["level"] == "high"
        assert data["pair"] == [4, 0.5] and data["leaves"][1] == {"n": 3, "tag": "c"}
        assert decode(_Node, json.loads(json.dumps(data))) == node

    def test_none_passes_through(self):
        assert encode(_Node(name="n"))["leaf"] is None
        assert decode(_Node, {"name": "n", "leaf": None}).leaf is None

    def test_scalar_dict_values_are_coerced_on_encode(self):
        data = encode(_Node(name="n", facts={"ids": ["a"], "none": None}))
        assert data["facts"] == {"ids": "['a']", "none": None}

    def test_plain_dict_is_a_shallow_copy(self):
        extra = {"k": [1]}
        data = encode(_Node(name="n", extra=extra))
        assert data["extra"] == extra and data["extra"] is not extra

    def test_scalars_are_coerced_to_the_declared_type(self):
        node = decode(_Node, {"name": 5, "pair": ["7", 2], "leaf": {"n": "3"}})
        assert node.name == "5" and node.pair == (7, 2.0) and node.leaf == _Leaf(3)
        assert isinstance(node.pair[1], float)

    def test_missing_key_takes_the_default(self):
        assert decode(_Node, {"name": "n"}) == _Node(name="n")

    def test_missing_required_key_raises_key_error(self):
        with pytest.raises(KeyError):
            decode(_Leaf, {"tag": "x"})

    def test_unsupported_field_type_is_refused(self):
        @dataclass(frozen=True)
        class _Bad(JsonRecord):
            items: list[int]

        with pytest.raises(TypeError):
            encode(_Bad([1]))
