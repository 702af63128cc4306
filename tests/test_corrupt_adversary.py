"""Differential and unit tests for the corruption adversary (PR 9).

Three contracts under test:

* **Codec** — :func:`~repro.distributed.encoding.encode_payload` is an
  injective, canonical, platform-independent wire image over the payload
  vocabulary programs actually send; :func:`decode_payload` is its strict
  inverse; :func:`corrupt_payload` flips one bit and maps undecodable
  damage to the :data:`CORRUPTED` sentinel.
* **Parity** — all four engines deliver bit-for-bit identical runs under
  ``corrupt:0.05`` across the four communication models, for broadcast and
  targeted/mixed traffic: the keyed corruption hash must fire on exactly
  the same ``(round, src, dst)`` links and flip exactly the same bit
  everywhere (same oracle pattern as
  ``tests/test_corrupt_adversary.py``'s sibling ``test_targeted_engines``).
* **Determinism** — corruption decisions are a pure function of the
  simulator seed plus ``(round, src, dst)``: re-runs agree, salts
  decorrelate, ``corrupt:0.0`` is byte-identical to the fault-free run
  modulo its zeroed counters, and the E22 report is byte-identical under
  ``--jobs 1`` and ``--jobs 4``.
"""

import json
from functools import partial

import pytest

from repro.core import FloodMaxProgram
from repro.distributed import (
    CORRUPTED,
    BandwidthExceededError,
    CorruptAdversary,
    CorruptedPayload,
    MessageAdmissionError,
    NodeProgram,
    PayloadDecodeError,
    Simulator,
    UnencodablePayloadError,
    build_adversary,
    congest_model,
    congested_clique_model,
    corrupt_payload,
    decode_payload,
    encode_payload,
    local_model,
    payload_checksum,
    run_program,
)
from repro.experiments.runner import run_experiments, strip_timing
from repro.graphs import gnp_random_graph

N = 24

MODELS = {
    "local": lambda: local_model(N),
    "congest": lambda: congest_model(N, enforce=False),
    "congest-enforcing": lambda: congest_model(N, enforce=True),
    "clique": lambda: congested_clique_model(N, enforce=False),
}

CORRUPT = "corrupt:0.05"


# --------------------------------------------------------------------- codec
#: Round-trip vocabulary: every exact type the codec covers, with the edge
#: values a single flipped bit is most likely to confuse.
VOCABULARY = [
    None,
    True,
    False,
    0,
    1,
    -1,
    255,
    256,
    1 << 70,
    -(1 << 70),
    0.0,
    -0.0,
    1.5,
    float("inf"),
    "",
    "héllo",
    "a" * 300,
    b"",
    b"\x00\xff",
    (),
    (1, "a", (True, None)),
    [],
    [1, [2.5, b"x"]],
    ("e",),
    ("a", 17),
]


class TestCodec:
    @pytest.mark.parametrize("value", VOCABULARY, ids=repr)
    def test_round_trip_is_exact(self, value):
        decoded = decode_payload(encode_payload(value))
        assert type(decoded) is type(value)
        # Canonical form: re-encoding the decode reproduces the image
        # byte-for-byte (catches -0.0 vs 0.0, True vs 1, tuple vs list).
        assert encode_payload(decoded) == encode_payload(value)

    def test_images_are_injective_across_aliasing_types(self):
        images = [encode_payload(v) for v in (1, True, 1.0, "1", b"1", (1,), [1])]
        assert len(set(images)) == len(images)

    def test_unencodable_types_raise(self):
        for bad in (object(), {1: 2}, {1, 2}, (1, {2})):
            with pytest.raises(UnencodablePayloadError):
                encode_payload(bad)

    def test_nesting_beyond_depth_limit_raises(self):
        deep = ()
        for _ in range(40):
            deep = (deep,)
        with pytest.raises(UnencodablePayloadError, match="depth"):
            encode_payload(deep)
        with pytest.raises(PayloadDecodeError, match="depth"):
            decode_payload(b"t\x01" * 40 + b"t\x00")

    @pytest.mark.parametrize(
        ("wire", "reason"),
        [
            (b"", "truncated"),
            (b"i\x00\x01\x07N", "trailing"),
            (b"\xff", "unknown tag"),
            (b"i\x02\x01\x07", "sign"),
            (b"i\x00\x02\x00\x07", "padding"),
            (b"i\x01\x01\x00", "negative zero"),
            (b"s\x80\x00", "padding"),
            (b"s\x01\xff", "utf-8"),
            (b"f\x00\x00", "truncated"),
            (b"t\x05N", "exceeds remaining"),
            (b"s" + b"\x81" * 10 + b"\x01", "10 bytes"),
        ],
        ids=lambda x: x if isinstance(x, str) else repr(x),
    )
    def test_strict_decode_rejects_malformed_wire(self, wire, reason):
        with pytest.raises(PayloadDecodeError, match=reason):
            decode_payload(wire)

    def test_corrupt_payload_is_deterministic_and_always_differs(self):
        for value in VOCABULARY:
            first = corrupt_payload(value, 0x1234)
            again = corrupt_payload(value, 0x1234)
            assert type(first) is type(again)
            if first is not CORRUPTED:
                # Wire-image equality also covers NaN results (NaN != NaN).
                assert encode_payload(first) == encode_payload(again)
            if first is not CORRUPTED and not isinstance(value, float):
                # The flip landed in the image, so the decode cannot be the
                # original (floats exempt: the -0.0 sign bit flips to an
                # ==-equal value).
                assert type(first) is not type(value) or first != value

    def test_corrupt_payload_reduces_bit_index_modulo_image(self):
        image_bits = 8 * len(encode_payload(7))
        assert corrupt_payload(7, 3) == corrupt_payload(7, 3 + image_bits)

    def test_unencodable_payload_corrupts_to_sentinel(self):
        assert corrupt_payload({1, 2}, 5) is CORRUPTED

    def test_checksum_detects_every_single_flip(self):
        value = ("a", 17)
        wire = encode_payload(value)
        reference = payload_checksum(value)
        for bit in range(8 * len(wire)):
            mutated = corrupt_payload(value, bit)
            if mutated is CORRUPTED:
                continue
            assert payload_checksum(mutated) != reference

    def test_checksum_requires_encodable_payload(self):
        assert payload_checksum((1, 2)) == payload_checksum((1, 2))
        with pytest.raises(UnencodablePayloadError):
            payload_checksum({1: 2})


class TestCorruptedSentinel:
    def test_orders_below_everything(self):
        for other in (0, -(10**9), float("-inf"), "", (), None):
            assert CORRUPTED < other
            assert not CORRUPTED > other
            assert not CORRUPTED >= other
        assert max([CORRUPTED, -5]) == -5
        assert max([-5, CORRUPTED]) == -5
        assert max([CORRUPTED]) is CORRUPTED

    def test_value_semantics_are_constant(self):
        assert CORRUPTED == CorruptedPayload()
        assert CORRUPTED != 5
        assert hash(CORRUPTED) == hash(CorruptedPayload())
        assert repr(CORRUPTED) == "CORRUPTED"
        assert CORRUPTED <= CorruptedPayload() and CORRUPTED >= CorruptedPayload()


# --------------------------------------------------- differential engine suite
class FanoutProgram(NodeProgram):
    """Targeted fan-out with an optional mixed broadcast/targeted round.

    Same traffic shape as the targeted-engine suite: even rounds of the
    mixed variant interleave pre-broadcast sends, a broadcast, and
    post-broadcast sends, exercising the engines' broadcast-position
    bookkeeping under per-edge corruption.  Folds guard on exact ints so
    forged/erased payloads cannot crash a node mid-differential.
    """

    def __init__(self, node_id, k=3, rounds=5, mix_broadcast=False):
        self.k = k
        self.rounds = rounds
        self.best = 0
        self.mix = mix_broadcast

    def on_start(self, ctx):
        for dst in sorted(ctx.neighbors)[: self.k]:
            ctx.send(dst, ctx.node_id + 1)

    def on_round(self, ctx, inbox):
        for _, plist in sorted(inbox.items()):
            for p in plist:
                if type(p) is int and p > self.best:
                    self.best = p
        if ctx.round >= self.rounds:
            ctx.set_output(self.best)
            ctx.halt()
            return
        nbrs = sorted(ctx.neighbors)
        if self.mix and ctx.round % 2 == 0:
            for dst in nbrs[: self.k // 2]:
                ctx.send(dst, self.best)
            ctx.broadcast(self.best + 1)
            for dst in nbrs[self.k // 2 : self.k]:
                ctx.send(dst, self.best + 2)
        else:
            for dst in nbrs[: self.k]:
                ctx.send(dst, self.best + ctx.round)


def _run(engine, model, mix, adversary=CORRUPT):
    graph = gnp_random_graph(N, 0.3, seed=7)
    sim = Simulator(
        graph,
        lambda v: FanoutProgram(v, mix_broadcast=mix),
        model=model,
        seed=11,
        engine=engine,
        adversary=build_adversary(adversary) if adversary else None,
    )
    result = sim.run(max_rounds=50)
    result.metrics.check_invariants()
    return {
        "outputs": dict(sorted(result.outputs.items())),
        "metrics": result.metrics.as_dict(),
        "completed": result.completed,
    }


def _outcome(engine, model_key, mix, adversary=CORRUPT):
    """Result dict, or the raised exception — compared across engines."""
    try:
        return _run(engine, MODELS[model_key](), mix, adversary)
    except (BandwidthExceededError, MessageAdmissionError) as error:
        return error


@pytest.mark.parametrize("mix", [False, True], ids=["targeted", "mixed"])
@pytest.mark.parametrize("model_key", sorted(MODELS))
@pytest.mark.parametrize("engine", ["columnar", "reference"])
def test_engine_matches_indexed_bit_for_bit_under_corruption(
    engine, model_key, mix
):
    expected = _outcome("indexed", model_key, mix)
    got = _outcome(engine, model_key, mix)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
        assert str(got) == str(expected)
    else:
        assert got == expected


@pytest.mark.parametrize("mix", [False, True], ids=["targeted", "mixed"])
@pytest.mark.parametrize("model_key", sorted(MODELS))
def test_reference_engine_agrees_on_outputs_under_corruption(model_key, mix):
    expected = _outcome("indexed", model_key, mix)
    got = _outcome("reference", model_key, mix)
    if isinstance(expected, Exception):
        assert type(got) is type(expected)
    else:
        assert got["outputs"] == expected["outputs"]
        assert got["completed"] == expected["completed"]


def test_reference_engine_full_metric_parity_on_broadcast_traffic():
    # Pure-broadcast programs share the dict-inbox path end to end, so the
    # reference oracle must agree on the whole metrics dictionary too.
    g = gnp_random_graph(30, 0.2, seed=3)
    runs = {
        engine: run_program(
            g,
            partial(FloodMaxProgram, rounds=6),
            seed=5,
            engine=engine,
            adversary=build_adversary("corrupt:0.2"),
        )
        for engine in ("indexed", "columnar", "reference")
    }
    indexed = runs["indexed"]
    assert indexed.metrics.per_adversary["adversary_corrupted_messages"] > 0
    for engine in ("columnar", "reference"):
        assert runs[engine].outputs == indexed.outputs
        assert runs[engine].metrics.as_dict() == indexed.metrics.as_dict()
        assert runs[engine].completed is indexed.completed


# ----------------------------------------------------------------- determinism
class TestCorruptionDeterminism:
    """Decisions are a pure function of (seed, salt, round, src, dst)."""

    def test_same_seed_same_flips_different_seed_different_flips(self):
        g = gnp_random_graph(30, 0.2, seed=1)

        def signature(seed):
            result = run_program(
                g,
                partial(FloodMaxProgram, rounds=5),
                seed=seed,
                adversary=CorruptAdversary(0.2),
            )
            return (
                result.outputs,
                result.metrics.per_adversary["adversary_corrupted_messages"],
            )

        assert signature(7) == signature(7)
        assert signature(7) != signature(8)

    def test_salt_decorrelates_corruption_streams_under_one_seed(self):
        g = gnp_random_graph(30, 0.2, seed=1)

        def outputs(salt):
            return run_program(
                g,
                partial(FloodMaxProgram, rounds=5),
                seed=7,
                adversary=CorruptAdversary(0.3, salt=salt),
            ).outputs

        assert outputs(0) == outputs(0)
        assert outputs(0) != outputs(1)

    def test_corruption_charges_senders_in_full(self):
        # Faults act on delivery: the transform seam runs after send-side
        # accounting, so message counts match the fault-free run exactly
        # (the fixed-budget flood broadcasts every round regardless).
        g = gnp_random_graph(30, 0.25, seed=4)
        clean = run_program(g, partial(FloodMaxProgram, rounds=4), seed=9)
        corrupted = run_program(
            g,
            partial(FloodMaxProgram, rounds=4),
            seed=9,
            adversary=CorruptAdversary(0.2),
        )
        assert (
            corrupted.metrics.messages_sent == clean.metrics.messages_sent
        )
        faults = corrupted.metrics.per_adversary
        assert faults["adversary_corrupted_messages"] > 0
        assert faults["adversary_corrupted_bits"] >= (
            faults["adversary_corrupted_messages"]
        )
        assert 0 <= faults["adversary_erased_messages"] <= (
            faults["adversary_corrupted_messages"]
        )

    def test_zero_rate_corrupt_only_adds_zero_counters(self):
        g = gnp_random_graph(25, 0.2, seed=3)
        plain = run_program(g, partial(FloodMaxProgram, rounds=4), seed=5)
        zero = run_program(
            g,
            partial(FloodMaxProgram, rounds=4),
            seed=5,
            adversary=CorruptAdversary(0.0),
        )
        assert zero.outputs == plain.outputs
        assert zero.metrics.per_adversary == {
            "adversary_corrupted_messages": 0,
            "adversary_corrupted_bits": 0,
            "adversary_erased_messages": 0,
        }
        stripped = {
            k: v
            for k, v in zero.metrics.as_dict().items()
            if not k.startswith("adversary_")
        }
        assert stripped == plain.metrics.as_dict()


class TestE22Report:
    def test_e22_report_identical_across_job_counts(self):
        serial = json.dumps(strip_timing(run_experiments(["E22"], jobs=1)))
        parallel = json.dumps(strip_timing(run_experiments(["E22"], jobs=4)))
        assert serial == parallel
