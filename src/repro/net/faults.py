"""Deterministic wireless fault injection for :class:`~repro.net.Channel`.

The seed model treats the air interface as a perfect medium: every
transmission reaches every listener intact.  Real wireless cells lose and
corrupt frames — and the paper's AFW/AAW schemes are precisely *recovery*
machinery for clients that missed invalidation reports.  This module
supplies the adversary: a :class:`FaultModel` attached to a channel that
can

* **drop** a delivery with a per-kind probability (the frame still burns
  airtime — receivers simply never decode it);
* **corrupt** a delivery via a bit-error rate (the frame arrives flagged
  ``corrupted``; receivers must treat it as undecodable);
* produce **bursty** loss with a two-state Gilbert–Elliott chain per
  receiver (a client driving through a fade misses several consecutive
  frames, not independent coin flips).

Every decision draws from one dedicated named stream
(:class:`~repro.des.rng.RandomStream`), so runs stay reproducible and the
fault stream never perturbs the model's other streams.  A
:class:`FaultConfig` whose probabilities are all zero never draws at all
and is behaviourally identical to no fault model (the golden differential
test in ``tests/sim/test_faults.py`` pins this).

Faults are judged *per receiver* at delivery time: on a broadcast medium
each listener decodes (or fails to decode) independently, which is what
lets one client miss a report the rest of the cell heard.  The channel
hands one delivery's receivers to :meth:`FaultModel.judge` in one call.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from .messages import Message, MessageKind


class Fate(enum.Enum):
    """Outcome of judging one (message, receiver) delivery."""

    DELIVER = "deliver"
    DROP = "drop"
    CORRUPT = "corrupt"


_DELIVER = Fate.DELIVER
_DROP = Fate.DROP
_CORRUPT = Fate.CORRUPT

#: Uniforms a :class:`FaultModel` draws from its stream per refill.
BLOCK = 1024


@dataclass(frozen=True)
class FaultConfig:
    """Declarative description of a channel's impairments.

    Attributes
    ----------
    drop_prob:
        Independent per-delivery loss probability while the link is in
        the *good* state.
    drop_prob_by_kind:
        Per-:class:`MessageKind` overrides of ``drop_prob`` (e.g. drop
        only invalidation reports).
    bit_error_rate:
        Per-bit corruption probability; a frame of ``n`` bits survives
        intact with probability ``(1 - ber) ** n``, so large data items
        are hit much harder than small control frames — as on real links.
    ge_good_to_bad / ge_bad_to_good:
        Per-delivery transition probabilities of the Gilbert–Elliott
        chain.  ``ge_good_to_bad = 0`` (the default) disables the chain.
    ge_bad_drop_prob:
        Loss probability while a receiver's chain is in the *bad* state
        (replaces the good-state ``drop_prob``).
    """

    drop_prob: float = 0.0
    drop_prob_by_kind: Optional[Mapping[MessageKind, float]] = None
    bit_error_rate: float = 0.0
    ge_good_to_bad: float = 0.0
    ge_bad_to_good: float = 1.0
    ge_bad_drop_prob: float = 1.0

    def __post_init__(self):
        for name in (
            "drop_prob",
            "bit_error_rate",
            "ge_good_to_bad",
            "ge_bad_to_good",
            "ge_bad_drop_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
        if self.drop_prob_by_kind is not None:
            for kind, prob in self.drop_prob_by_kind.items():
                if not isinstance(kind, MessageKind):
                    raise ValueError(
                        f"drop_prob_by_kind key {kind!r} is not a MessageKind"
                    )
                if not 0.0 <= prob <= 1.0:
                    raise ValueError(f"drop_prob_by_kind[{kind}]={prob} outside [0, 1]")
        if self.ge_good_to_bad > 0.0 and self.ge_bad_to_good <= 0.0:
            raise ValueError("ge_bad_to_good must be positive when bursts are enabled")

    @property
    def is_null(self) -> bool:
        """True when this config can never drop or corrupt anything."""
        if self.drop_prob > 0.0 or self.bit_error_rate > 0.0:
            return False
        if self.drop_prob_by_kind and any(
            p > 0.0 for p in self.drop_prob_by_kind.values()
        ):
            return False
        if self.ge_good_to_bad > 0.0 and self.ge_bad_drop_prob > 0.0:
            return False
        return True

    def drop_prob_for(self, kind: MessageKind) -> float:
        """Good-state loss probability for one message kind."""
        if self.drop_prob_by_kind is not None:
            return self.drop_prob_by_kind.get(kind, self.drop_prob)
        return self.drop_prob

    def corrupt_prob_for(self, size_bits: float) -> float:
        """Probability a frame of *size_bits* arrives with any bit flipped."""
        if self.bit_error_rate <= 0.0 or size_bits <= 0.0:
            return 0.0
        if self.bit_error_rate >= 1.0:
            return 1.0
        # 1 - (1 - ber)^n, computed stably for tiny ber and huge n.
        return -math.expm1(size_bits * math.log1p(-self.bit_error_rate))


@dataclass
class FaultStats:
    """Per-channel fault telemetry (per receiver-delivery events)."""

    judged: int = 0
    dropped: int = 0
    corrupted: int = 0
    dropped_bits: float = 0.0
    corrupted_bits: float = 0.0
    #: Good->bad transitions across all receiver chains (burst onsets).
    bursts: int = 0
    dropped_by_kind: Dict[MessageKind, int] = field(default_factory=dict)
    corrupted_by_kind: Dict[MessageKind, int] = field(default_factory=dict)

    @property
    def intact(self) -> int:
        """Deliveries that survived undamaged."""
        return self.judged - self.dropped - self.corrupted

    @property
    def goodput_ratio(self) -> float:
        """Fraction of judged deliveries that arrived intact."""
        return self.intact / self.judged if self.judged else 1.0


class FaultModel:
    """Judge of each (message, receiver) delivery on one channel.

    Holds the per-receiver Gilbert–Elliott chain states and the fault
    telemetry.  One instance per channel; the channel calls
    :meth:`judge` once per delivered message with its non-wired
    receivers.

    The model owns its stream: nothing else draws from it.  It takes
    uniforms from a block it refills :data:`BLOCK` at a time and compares
    each with a probability exactly as ``RandomStream.bernoulli`` would,
    so its fates equal those of one scalar draw per decision.  Because no
    other consumer reads the stream, the unused tail of the last block
    cannot be seen from outside.
    """

    def __init__(self, config: FaultConfig, stream):
        self.config = config
        self.stream = stream
        self.stats = FaultStats()
        #: receiver key -> True while that receiver's chain is in *bad*.
        self._bad: Dict[int, bool] = {}
        self._null = config.is_null
        self._bursty = config.ge_good_to_bad > 0.0
        #: Uniforms drawn ahead of use; ``_block[_pos]`` is the next one.
        self._block: List[float] = []
        self._pos = 0

    def __repr__(self):
        return f"<FaultModel null={self._null} stats={self.stats}>"

    @property
    def is_null(self) -> bool:
        """True when the model can never damage a delivery (no RNG use)."""
        return self._null

    def in_bad_state(self, receiver_key: int) -> bool:
        """Whether *receiver_key*'s Gilbert–Elliott chain is in *bad*."""
        return self._bad.get(receiver_key, False)

    def fate(self, message: Message, receiver_key: int) -> Fate:
        """Judge one delivery: the one-receiver case of :meth:`judge`."""
        return self.judge(message, (receiver_key,))[0]

    def judge(self, message: Message, receiver_keys: Sequence[int]) -> List[Fate]:
        """Judge one delivery of *message* to each receiver, in order.

        Returns one :class:`Fate` per key and updates the chain states and
        telemetry.  A key may repeat; each occurrence steps its chain.
        """
        n = len(receiver_keys)
        if self._null or not n:
            return [_DELIVER] * n
        cfg = self.config
        stats = self.stats
        kind = message.kind
        size_bits = message.size_bits
        # Both probabilities depend on the message alone.
        drop_prob = cfg.drop_prob_for(kind)
        corrupt_prob = cfg.corrupt_prob_for(size_bits)
        # A receiver takes at most three uniforms (chain step, drop,
        # corruption): top the block up once so the loop never checks.
        block = self._block
        pos = self._pos
        if len(block) - pos < 3 * n:
            block = block[pos:]
            pos = 0
            while len(block) < 3 * n:
                block += self.stream.uniforms(BLOCK)
            self._block = block
        bursty = self._bursty
        chains = self._bad
        to_good = cfg.ge_bad_to_good
        to_bad = cfg.ge_good_to_bad
        bad_drop_prob = cfg.ge_bad_drop_prob
        fates: List[Fate] = []
        for key in receiver_keys:
            prob = drop_prob
            if bursty:
                bad = chains.get(key, False)
                u = block[pos]
                pos += 1
                if bad:
                    if u < to_good:
                        bad = False
                elif u < to_bad:
                    bad = True
                    stats.bursts += 1
                chains[key] = bad
                if bad:
                    prob = bad_drop_prob
            if prob > 0.0:
                u = block[pos]
                pos += 1
                if u < prob:
                    stats.dropped += 1
                    stats.dropped_bits += size_bits
                    kinds = stats.dropped_by_kind
                    kinds[kind] = kinds.get(kind, 0) + 1
                    fates.append(_DROP)
                    continue
            if corrupt_prob > 0.0:
                u = block[pos]
                pos += 1
                if u < corrupt_prob:
                    stats.corrupted += 1
                    stats.corrupted_bits += size_bits
                    kinds = stats.corrupted_by_kind
                    kinds[kind] = kinds.get(kind, 0) + 1
                    fates.append(_CORRUPT)
                    continue
            fates.append(_DELIVER)
        self._pos = pos
        stats.judged += n
        return fates
