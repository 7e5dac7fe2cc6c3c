"""Security-policy interface and the unsafe baseline.

A policy is consulted by the pipeline at three points:

* **issue** — may a load/store with these operand taints execute now?
  (STT's explicit-channel gate; a no-op for NDA and unsafe.)
* **load value return** — should the loaded value broadcast now, and with
  what taint root-set?  (NDA defers broadcast of speculative loads; STT
  taints them; ReCon lifts either when the word is revealed.)
* **branch resolution** — may a branch resolve (releasing its shadow and,
  on a mispredict, redirecting fetch)?  (STT's implicit-channel gate.)

Taint is represented as a frozenset of *root* load sequence numbers; a
value is *effectively* tainted while any of its roots is still unsafe
(speculative).  Roots become safe when the visibility frontier passes
them, which is STT's automatic untaint.
"""

from __future__ import annotations

from typing import FrozenSet, Tuple

from repro.common.stats import StatSet
from repro.telemetry.events import NULL_TELEMETRY

__all__ = ["SecurityPolicy", "UnsafePolicy", "EMPTY_TAINT"]

EMPTY_TAINT: FrozenSet[int] = frozenset()


class SecurityPolicy:
    """Base policy: answers every query with "no restriction"."""

    #: Human-readable scheme name (overridden by subclasses).
    name = "base"

    #: Telemetry sink (the core wires a live collector in when tracing
    #: is enabled; the null object keeps the disabled path to one check).
    telemetry = NULL_TELEMETRY

    #: Core id stamped on events this policy emits.
    telemetry_core = 0

    #: If True, the pipeline probes the L1 before issuing a load and asks
    #: :meth:`may_issue_load` (Delay-on-Miss-style gating).
    gates_on_miss = False

    #: If True, speculative loads execute without touching cache state and
    #: are exposed at the visibility point (InvisiSpec-style hiding).
    invisible_speculation = False

    def __init__(self, stats: StatSet, use_recon: bool = False) -> None:
        self.stats = stats
        self.use_recon = use_recon

    # -- issue gates ----------------------------------------------------
    # The pipeline asks the two issue gates only about tainted operands:
    # untainted address operands never make a transmitter wait.  A gate
    # that blocks an operand taint keeps blocking it until the next
    # on_visibility call (taint roots clear only when the visibility
    # frontier moves), so the pipeline re-asks only after a move.
    def load_issue_blocked(self, operand_taint: FrozenSet[int]) -> bool:
        """True if a load (a transmitter) must wait (explicit channel)."""
        return False

    def store_issue_blocked(self, operand_taint: FrozenSet[int]) -> bool:
        """True if a store's address generation must wait."""
        return False

    def branch_resolution_blocked(self, operand_taint: FrozenSet[int]) -> bool:
        """True if branch resolution must wait (implicit channel)."""
        return False

    def may_issue_load(
        self, speculative: bool, l1_hit: bool, revealed: bool
    ) -> bool:
        """Miss-gating hook; only consulted when ``gates_on_miss`` is set."""
        return True

    # -- dataflow -------------------------------------------------------
    def on_load_value(
        self,
        seq: int,
        speculative: bool,
        revealed: bool,
        forwarded_taint: FrozenSet[int],
    ) -> Tuple[bool, FrozenSet[int]]:
        """Handle a load's value arriving.

        Returns ``(broadcast_now, dest_taint)``.  ``revealed`` is True only
        when ReCon is enabled and the accessed word's reveal bit was set at
        a visible cache level (never for store-forwarded data).
        """
        return True, EMPTY_TAINT

    def propagate_taint(self, operand_taint: FrozenSet[int]) -> FrozenSet[int]:
        """Taint of a non-load instruction's result."""
        return EMPTY_TAINT

    # -- commit stream ----------------------------------------------------
    def on_commit(self, uop) -> None:
        """A micro-op committed (architectural order).

        Default: ignored.  SPT-style policies feed this into a continuous
        DIFT engine to learn non-speculative leakage.
        """

    def word_is_public(self, addr: int) -> bool:
        """Policy-private knowledge that ``addr``'s word already leaked.

        Consulted in addition to the ReCon reveal bit; the base policy
        knows nothing.
        """
        return False

    # -- time -----------------------------------------------------------
    def on_visibility(self, frontier: float) -> None:
        """The visibility frontier advanced to ``frontier``."""

    def effectively_tainted(self, taint: FrozenSet[int]) -> bool:
        """True if any root in ``taint`` is still unsafe."""
        return False


class UnsafePolicy(SecurityPolicy):
    """The unprotected baseline processor (the paper's 'unsafe baseline')."""

    name = "unsafe"
