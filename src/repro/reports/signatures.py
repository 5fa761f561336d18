"""Signature (SIG) invalidation reports.

Barbara & Imielinski's third scheme: the server periodically broadcasts
*combined signatures* — XOR-combinations of per-item signatures over
pseudo-random item subsets.  A client saves the combined signatures it
last heard; after waking it compares them with the fresh ones and
diagnoses as invalid any cached item that appears in "too many" differing
subsets.  The scheme is probabilistic both ways:

* *false positives*: a valid cached item sharing many subsets with
  updated items may be dropped (costs a re-fetch, never correctness);
* *false negatives*: an updated item can survive only through signature
  collisions, with probability ~``subsets_per_item * 2**-signature_bits``.

Our implementation derives subset membership and item signatures from
deterministic hashes, so server and client agree without communication
(both sides know the scheme seed), exactly like sharing the generator
polynomial in the original proposal.

A deployment hashes its whole membership table once, at construction,
and a report diffs each distinct saved baseline once, however many
listeners hold it.  Neither result outlives the object that owns it: a
cache shared across deployments would make a fresh build look cheaper
than it is.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from .base import Invalidation, Report, ReportKind, UpdateLog
from .sizes import DEFAULT_TIMESTAMP_BITS, signature_report_bits


def _hash64(*parts: object) -> int:
    h = hashlib.blake2b(
        "/".join(str(p) for p in parts).encode(), digest_size=8
    ).digest()
    return int.from_bytes(h, "little")


def item_signature(item: int, version: int, signature_bits: int, seed: int) -> int:
    """The *signature_bits*-bit signature of one item at one version."""
    return _hash64("sig", seed, item, version) & ((1 << signature_bits) - 1)


def subsets_of_item(
    item: int, n_subsets: int, membership: float, seed: int
) -> List[int]:
    """Indices of the combined signatures whose subset contains *item*.

    Membership of each item in each subset is an independent pseudo-random
    Bernoulli(*membership*) draw, derived from (seed, subset, item).
    """
    threshold = int(membership * 2**32)
    return [
        s
        for s in range(n_subsets)
        if (_hash64("member", seed, s, item) & 0xFFFFFFFF) < threshold
    ]


class SignatureScheme:
    """Shared parameters of a signature deployment (server and clients).

    Parameters
    ----------
    n_items:
        Database size.
    n_subsets:
        Number of combined signatures per report.
    signature_bits:
        Width of each (combined) signature.
    membership:
        Probability an item belongs to a given subset.
    diagnose_threshold:
        A cached item is diagnosed invalid when the fraction of its
        subsets that mismatch exceeds this value.  0 is maximally
        conservative (any mismatching subset kills all its members).
    """

    def __init__(
        self,
        n_items: int,
        n_subsets: int = 64,
        signature_bits: int = 32,
        membership: float = 0.5,
        diagnose_threshold: float = 0.9,
        seed: int = 0,
    ) -> None:
        if n_subsets < 1:
            raise ValueError("n_subsets must be >= 1")
        if signature_bits < 1:
            raise ValueError("signature_bits must be >= 1")
        if not 0 < membership <= 1:
            raise ValueError("membership must be in (0, 1]")
        if not 0 <= diagnose_threshold <= 1:
            raise ValueError("diagnose_threshold must be in [0, 1]")
        self.n_items = n_items
        self.n_subsets = n_subsets
        self.signature_bits = signature_bits
        self.membership = membership
        self.diagnose_threshold = diagnose_threshold
        self.seed = seed
        self._members = self._membership_table()

    def _membership_table(self) -> List[List[int]]:
        """``subsets_of_item`` for every item, hashing each subset's
        ``member/<seed>/<s>/`` prefix once instead of once per item."""
        threshold = int(self.membership * 2**32)
        prefixes = [
            hashlib.blake2b(f"member/{self.seed}/{s}/".encode(), digest_size=8)
            for s in range(self.n_subsets)
        ]
        from_bytes = int.from_bytes
        table: List[List[int]] = []
        for item in range(self.n_items):
            key = str(item).encode()
            row = []
            for s, prefix in enumerate(prefixes):
                h = prefix.copy()
                h.update(key)
                # The low 32 bits of the little-endian _hash64 value.
                if from_bytes(h.digest()[:4], "little") < threshold:
                    row.append(s)
            table.append(row)
        return table

    def subsets_of(self, item: int) -> List[int]:
        """Subset membership of *item* (equal to :func:`subsets_of_item`)."""
        return self._members[item]

    def combine(self, versions: Sequence[int]) -> List[int]:
        """Compute all combined signatures for the given item versions."""
        combined = [0] * self.n_subsets
        for item, subs in enumerate(self._members):
            sig = item_signature(
                item, int(versions[item]), self.signature_bits, self.seed
            )
            for s in subs:
                combined[s] ^= sig
        return combined


class IncrementalCombiner:
    """Maintains the combined signatures under single-item updates.

    Recomputing every combined signature from scratch costs
    O(N * subsets_per_item) per broadcast; the server instead XORs the
    old item signature out and the new one in on each update — O(subsets
    per item) — and snapshots when building a report.
    """

    def __init__(
        self, scheme: SignatureScheme, versions: Sequence[int] | None = None
    ) -> None:
        self.scheme = scheme
        if versions is None:
            versions = [0] * scheme.n_items
        self._combined = scheme.combine(versions)

    def on_update(self, item: int, old_version: int, new_version: int) -> None:
        """Fold one item-version change into the combined signatures."""
        scheme = self.scheme
        delta = item_signature(
            item, old_version, scheme.signature_bits, scheme.seed
        ) ^ item_signature(item, new_version, scheme.signature_bits, scheme.seed)
        for s in scheme.subsets_of(item):
            self._combined[s] ^= delta

    def snapshot(self) -> List[int]:
        """Current combined signatures (a copy)."""
        return list(self._combined)


class SignatureReport(Report):
    """One broadcast of combined signatures.

    ``combined`` is an immutable tuple: clients keep it by reference as
    their saved baseline, and :meth:`diagnose` memoizes its diff per
    baseline object on the strength of that.
    """

    kind = ReportKind.SIGNATURES

    def __init__(
        self,
        timestamp: float,
        scheme: SignatureScheme,
        combined: Sequence[int],
        timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
    ) -> None:
        if len(combined) != scheme.n_subsets:
            raise ValueError("wrong number of combined signatures")
        self.timestamp = float(timestamp)
        self.scheme = scheme
        self.combined: Tuple[int, ...] = tuple(combined)
        self.size_bits = signature_report_bits(
            scheme.n_subsets, scheme.signature_bits, timestamp_bits
        )
        # id(saved) -> (saved, changed subsets).  Each entry holds its
        # baseline, so the id cannot be reused while the entry lives.
        self._diffs: Dict[int, Tuple[Sequence[int], Set[int]]] = {}

    def __repr__(self) -> str:
        return f"<SignatureReport T={self.timestamp} m={len(self.combined)}>"

    def covers(self, tlb: float) -> bool:
        """SIG diagnosis works across any gap (probabilistically)."""
        return True

    def diff_subsets(self, saved: Sequence[int]) -> Set[int]:
        """Indices of combined signatures that changed since *saved*."""
        if len(saved) != len(self.combined):
            raise ValueError("saved signature count mismatch")
        return {s for s, (a, b) in enumerate(zip(saved, self.combined)) if a != b}

    def diagnose(
        self, cached_items: Iterable[int], saved: Sequence[int]
    ) -> Invalidation:
        """Diagnose which of *cached_items* to drop, given the previously
        saved combined signatures.

        An item is dropped when the fraction of its subsets that mismatch
        exceeds the scheme's threshold (items in no subset are dropped
        conservatively — the report carries no information about them).

        The diff against a tuple baseline is computed once per report
        (every listener that heard the same earlier report holds the same
        tuple).  Any other sequence may be mutated between calls and is
        diffed afresh.
        """
        memo = self._diffs.get(id(saved))
        if memo is None:
            memo = (saved, self.diff_subsets(saved))
            if type(saved) is tuple:
                self._diffs[id(saved)] = memo
        changed = memo[1]
        threshold = self.scheme.diagnose_threshold
        to_drop: Set[int] = set()
        for item in cached_items:
            subs = self.scheme.subsets_of(item)
            if not subs:
                to_drop.add(item)
                continue
            mismatches = sum(1 for s in subs if s in changed)
            if mismatches / len(subs) > threshold:
                to_drop.add(item)
        return Invalidation.drop(to_drop) if to_drop else Invalidation.nothing()

    def invalidation_for(self, tlb: float) -> Invalidation:
        raise NotImplementedError(
            "SIG diagnosis needs the client's saved signatures; use diagnose()"
        )


def build_signature_report(
    db: UpdateLog,
    timestamp: float, scheme: SignatureScheme,
    timestamp_bits: int = DEFAULT_TIMESTAMP_BITS,
) -> SignatureReport:
    """Construct a SIG report from current database versions."""
    return SignatureReport(
        timestamp=timestamp,
        scheme=scheme,
        combined=scheme.combine(db.version),
        timestamp_bits=timestamp_bits,
    )
