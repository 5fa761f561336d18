"""Client radio energy accounting.

The paper's motivation for minimizing uplink traffic is *power
efficiency*: "the power needed for transmission is proportional to the
fourth power of the distance between the two communicating entities"
[Imielinski & Viswanathan], so a transmitted bit costs the mobile orders
of magnitude more than a received bit.  The paper argues its schemes'
packet costs translate into battery life but never quantifies the
conversion; this module does, so the trade-offs of Figures 5-16 can be
re-read in joules.

A client is charged

* ``tx_nj_per_bit`` for every uplink bit it sends (data requests,
  checking uploads, ``Tlb`` timestamps), and
* ``rx_nj_per_bit`` for every downlink bit it consumes: invalidation
  reports it listens to while awake, validity replies addressed to it,
  and data items it requested.  (With selective tuning a client dozes
  through other clients' data transfers, so those are not charged.)

The transmit total is derived once, when the run ends, from the
uplinks' per-kind bit ledgers (every upload rides an uplink); the
receive total is charged per client as it decodes, since which clients
hear a broadcast is known only then.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Metric names recorded by the client actors.
ENERGY_TX = "energy.tx_nj"
ENERGY_RX = "energy.rx_nj"


@dataclass(frozen=True)
class EnergyModel:
    """Per-bit radio energy (nanojoules).

    The 100:1 default transmit/receive ratio reflects the paper's
    distance^4 argument at cell-scale ranges; both knobs are free.
    """

    tx_nj_per_bit: float = 1000.0
    rx_nj_per_bit: float = 10.0

    def __post_init__(self):
        if self.tx_nj_per_bit < 0 or self.rx_nj_per_bit < 0:
            raise ValueError("energy costs must be non-negative")

    def tx(self, bits: float) -> float:
        """Energy to transmit *bits* uplink."""
        return self.tx_nj_per_bit * bits

    def rx(self, bits: float) -> float:
        """Energy to receive *bits* from the broadcast channel."""
        return self.rx_nj_per_bit * bits


def energy_per_query_nj(result) -> float:
    """Total client radio energy per answered query, in nanojoules."""
    answered = result.counter("queries.answered")
    if answered == 0:
        return 0.0
    return (
        result.counter(ENERGY_TX) + result.counter(ENERGY_RX)
    ) / answered
