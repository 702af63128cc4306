"""Regression tests for the accounting bugfixes shipped with the
experiment-orchestration PR:

* ``estimate_bits`` used to charge a flat 64 bits for ``__slots__``-only
  payload objects (no ``__dict__``), under-billing CONGEST accounting;
* ``Metrics.as_dict()`` used to let a ``per_model`` counter silently
  overwrite a core counter of the same name;
* benchmark records used to store ``as_dict()`` values as nested dicts,
  hiding per-model counters from flat JSON consumers; ``flatten_info``
  flattens them into dotted keys.

It also pins ``estimate_bits``'s exact-type fast path and its closed forms
(``Fraction``, int and int-pair items) to the generic ``isinstance`` chain
they short-cut.
"""

import re
from collections import OrderedDict, namedtuple
from collections.abc import Mapping, Sequence, Set
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed import Metrics, estimate_bits
from repro.distributed.encoding import _object_fields
from repro.experiments.reporting import flatten_info


class _DictPayload:
    def __init__(self, colour, weight):
        self.colour = colour
        self.weight = weight


class _SlottedPayload:
    __slots__ = ("colour", "weight")

    def __init__(self, colour, weight):
        self.colour = colour
        self.weight = weight


class _SlottedChild(_SlottedPayload):
    __slots__ = ("extra",)

    def __init__(self, colour, weight, extra):
        super().__init__(colour, weight)
        self.extra = extra


class _SingleStringSlot:
    __slots__ = "value"

    def __init__(self, value):
        self.value = value


class TestSlottedEstimateBits:
    def test_slotted_matches_dict_payload(self):
        # The whole regression: slot values must be billed like __dict__ ones.
        assert estimate_bits(_SlottedPayload("red", 1 << 40)) == estimate_bits(
            _DictPayload("red", 1 << 40)
        )

    def test_slotted_payload_not_flat_64(self):
        big = _SlottedPayload("x" * 64, 1 << 200)
        assert estimate_bits(big) > 64
        assert estimate_bits(big) == estimate_bits(
            {"colour": "x" * 64, "weight": 1 << 200}
        )

    def test_slots_collected_across_mro(self):
        child = _SlottedChild("blue", 7, (1, 2, 3))
        assert estimate_bits(child) == estimate_bits(
            {"colour": "blue", "weight": 7, "extra": (1, 2, 3)}
        )

    def test_single_string_slots_declaration(self):
        assert estimate_bits(_SingleStringSlot(255)) == estimate_bits({"value": 255})

    def test_unassigned_slot_is_skipped(self):
        empty = _SlottedPayload.__new__(_SlottedPayload)
        assert estimate_bits(empty) == estimate_bits({})

    def test_plain_object_still_flat_64(self):
        assert estimate_bits(object()) == 64

    def test_dict_payloads_unchanged(self):
        # The pre-fix path for __dict__ payloads must be byte-for-byte stable
        # (the golden-run contract depends on it).
        assert estimate_bits(_DictPayload("red", 3)) == estimate_bits(
            {"colour": "red", "weight": 3}
        )


def generic_bits(payload):
    """``estimate_bits`` without its exact-type fast path: the ABC chain only."""
    if payload is None or isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length()) + 1
    if isinstance(payload, float):
        return 64
    if isinstance(payload, (str, bytes, bytearray)):
        return max(1, 8 * len(payload))
    if isinstance(payload, Mapping):
        return 2 + sum(2 + generic_bits(k) + generic_bits(v) for k, v in payload.items())
    if isinstance(payload, (Sequence, Set, frozenset)):
        return 2 + sum(2 + generic_bits(item) for item in payload)
    fields = _object_fields(payload)
    return 64 if fields is None else generic_bits(fields)


class _Colour(IntEnum):
    RED = 1
    GREEN = 1 << 20


class _Label(int):
    pass


_Point = namedtuple("_Point", "x y")

_KEYS = st.one_of(st.integers(), st.text(max_size=3), st.booleans())
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.builds(_Label, st.integers()),
    st.sampled_from(list(_Colour)),
    st.floats(allow_nan=False),
    st.text(max_size=6),
    st.binary(max_size=4),
    st.fractions(),
    st.builds(_SlottedPayload, st.text(max_size=3), st.integers()),
)
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=4).map(OrderedDict),
        st.builds(_Point, inner, inner),
        st.frozensets(st.integers(), max_size=4),
    ),
    max_leaves=12,
)


class TestEstimateBitsFastPath:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_PAYLOADS)
    def test_matches_generic_chain(self, payload):
        assert estimate_bits(payload) == generic_bits(payload)

    def test_subclasses_keep_their_generic_sizes(self):
        assert estimate_bits(True) == 1
        assert estimate_bits(_Colour.GREEN) == 22
        assert estimate_bits(_Label(255)) == 9
        assert estimate_bits(OrderedDict(a=1)) == estimate_bits({"a": 1}) == 14
        assert estimate_bits(_Point(1, True)) == 2 + (2 + 2) + (2 + 1)
        assert estimate_bits(Fraction(3, 4)) == generic_bits(Fraction(3, 4))


_BIG_INTS = st.integers(min_value=-(2**70), max_value=2**70)
_FRACTIONS = st.one_of(
    st.sampled_from(
        [Fraction(0), Fraction(-3, 7), Fraction(2**64 + 1, 2**65 + 3), Fraction(-(2**80), 3)]
    ),
    st.builds(Fraction, _BIG_INTS, st.integers(min_value=1, max_value=2**70)),
)
_ITEMS = st.one_of(
    _BIG_INTS,
    st.tuples(_BIG_INTS, _BIG_INTS),
    st.tuples(st.booleans(), _BIG_INTS),
    st.tuples(_BIG_INTS, st.booleans()),
    st.tuples(_BIG_INTS, _BIG_INTS, _BIG_INTS),
    st.tuples(st.tuples(_BIG_INTS, _BIG_INTS), _BIG_INTS),
    st.tuples(_BIG_INTS, st.text(max_size=3)),
    st.builds(_Label, st.integers()),
    st.text(max_size=4),
    _FRACTIONS,
)
_SEQUENCES = st.one_of(
    st.lists(_ITEMS, max_size=8), st.lists(_ITEMS, max_size=8).map(tuple)
)


class TestClosedFormSizing:
    """The ``Fraction`` and int / int-pair item closed forms equal the generic chain."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_FRACTIONS)
    def test_fraction(self, value):
        assert estimate_bits(value) == generic_bits(value)
        assert estimate_bits({"rho": value}) == generic_bits({"rho": value})

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(_SEQUENCES)
    def test_sequence_items(self, payload):
        assert estimate_bits(payload) == generic_bits(payload)
        assert estimate_bits((payload, 1)) == generic_bits((payload, 1))

    def test_bool_pairs_are_not_int_pairs(self):
        assert estimate_bits([(True, 1)]) == generic_bits([(True, 1)]) == 13
        assert estimate_bits([(1, True)]) == generic_bits([(1, True)]) == 13
        assert estimate_bits([(1, 1)]) == 14

    def test_fraction_layout(self):
        # The closed form sizes a Fraction as these two slots; a Python whose
        # Fraction stores anything else must fail here, not shift bits_sent.
        assert _object_fields(Fraction(3, 7)) == {"_numerator": 3, "_denominator": 7}


class TestMetricsCollision:
    def test_per_model_counters_merge(self):
        metrics = Metrics()
        metrics.bump("broadcast_payloads", 5)
        assert metrics.as_dict()["broadcast_payloads"] == 5

    def test_core_counter_collision_raises(self):
        metrics = Metrics()
        metrics.bump("rounds")  # shadows the core counter
        with pytest.raises(ValueError, match="rounds"):
            metrics.as_dict()

    def test_collision_detected_for_every_core_key(self):
        for core_key in Metrics().as_dict():
            metrics = Metrics()
            metrics.per_model[core_key] = 1
            with pytest.raises(ValueError):
                metrics.as_dict()


class TestMetricsInvariants:
    def test_consistent_run_passes(self):
        metrics = Metrics()
        metrics.start_round()
        metrics.record_message(9, crosses_cut=True)
        metrics.record_message(4, crosses_cut=False)
        metrics.check_invariants()

    @pytest.mark.parametrize(
        "field, value, law",
        [
            ("bits_sent", 20, "sum(bits_per_round) == bits_sent"),
            ("cut_messages", 3, "cut_messages <= messages_sent"),
            ("cut_bits", 14, "cut_bits <= bits_sent"),
            ("max_message_bits", 14, "max_message_bits <= bits_sent"),
        ],
    )
    def test_broken_law_is_named(self, field, value, law):
        metrics = Metrics()
        metrics.start_round()
        metrics.record_message(9, crosses_cut=True)
        metrics.record_message(4, crosses_cut=False)
        setattr(metrics, field, value)
        with pytest.raises(AssertionError, match=re.escape(law)):
            metrics.check_invariants()

    def test_evicted_history_skips_the_sum_law(self):
        metrics = Metrics(streaming=True, history_cap=2)
        for _ in range(3):
            metrics.start_round()
            metrics.record_message(7, crosses_cut=False)
        assert sum(metrics.bits_per_round) != metrics.bits_sent
        metrics.check_invariants()


class TestRecordFlattening:
    def test_flatten_info_uses_dotted_keys(self):
        flat = flatten_info({"metrics": {"rounds": 3, "per": {"x": 1}}, "n": 5})
        assert flat == {"metrics.rounds": 3, "metrics.per.x": 1, "n": 5}

    def test_flatten_info_calls_as_dict(self):
        metrics = Metrics(rounds=2, bits_sent=10)
        metrics.bump("virtual_link_messages", 4)
        flat = flatten_info(metrics, prefix="metrics")
        assert flat["metrics.rounds"] == 2
        assert flat["metrics.virtual_link_messages"] == 4

    def test_flatten_info_indexes_sequences_of_mappings(self):
        flat = flatten_info({"instances": [{"n": 48}, {"n": 96}]})
        assert flat == {"instances.0.n": 48, "instances.1.n": 96}
