"""Deterministic, seeded fault injection for the experiment engine.

The supervision layer (:mod:`repro.sim.supervisor`) promises that a
suite always completes with accurate per-cell failure records — worker
crashes, hangs, corrupted payloads, and memory exhaustion included.
This module exists to *prove* that promise: a :class:`ChaosConfig` on
:class:`~repro.sim.config.RunConfig` (CLI ``--chaos``) makes workers
misbehave on a deterministic subset of run keys, so tests and the CI
``chaos-smoke`` job can assert that every failure mode ends in a
complete suite, never a hung or dead runner.

Determinism is the point: the fault decision for a run is a pure
function of ``(chaos seed, run key, attempt number)`` — a SHA-256 hash
mapped to the unit interval and compared against the configured fault
probabilities.  Chaos seed X therefore always fails the same cells, on
any machine, in any worker, regardless of scheduling order; tests can
compute the expected casualty list with :meth:`ChaosConfig.decide`
before running anything.

Fault semantics differ between pool workers and the supervising
process (``jobs=1`` or degraded-inline execution), because a fault that
kills the parent would defeat the harness:

========  ============================  =================================
fault     in a pool worker              inline (parent process)
========  ============================  =================================
crash     ``os._exit`` (hard death,     raises :class:`ChaosFault`
          exercises BrokenProcessPool)
hang      sleeps ``hang_s`` before      raises :class:`ChaosFault`
          running (trips the timeout)   (inline runs are not preemptible)
corrupt   returns a garbage payload     returns a garbage payload
          instead of a result
oom       raises ``MemoryError``        raises ``MemoryError``
          (simulated allocator failure
          — no real memory is consumed)
========  ============================  =================================
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from typing import Any, Dict, Optional, Tuple

__all__ = [
    "CORRUPT_PAYLOAD",
    "ChaosConfig",
    "ChaosFault",
    "ServiceChaosConfig",
    "inject",
    "mark_worker_process",
    "parse_chaos",
    "parse_service_chaos",
]

#: Exit status of a chaos-crashed worker (visible in pool diagnostics).
CRASH_EXIT_CODE = 23

#: The garbage a corrupt-fault worker returns in place of a RunResult.
CORRUPT_PAYLOAD: Any = {"chaos": "corrupt payload"}

#: Set in each pool worker by :func:`mark_worker_process` (the pool
#: initializer) so process-level faults know it is safe to fire.
_IN_WORKER = False


def mark_worker_process() -> None:
    """Mark this process as a pool worker (pool initializer hook)."""
    global _IN_WORKER
    _IN_WORKER = True


class ChaosFault(RuntimeError):
    """An injected fault, raised when process-level chaos runs inline."""

    def __init__(self, kind: str, key: str, attempt: int) -> None:
        super().__init__(
            f"chaos: injected {kind} fault (key={key[:12]}, attempt={attempt})"
        )
        self.kind = kind
        self.key = key
        self.attempt = attempt


@dataclasses.dataclass(frozen=True)
class ChaosConfig:
    """Seeded fault-injection plan for an experiment run.

    Attributes:
        seed: determinism seed; the fault decision for a run is a pure
            function of ``(seed, run key, attempt)``.
        crash: probability a worker dies hard (``os._exit``) mid-run.
        hang: probability a worker sleeps ``hang_s`` seconds before
            running (long enough to trip a per-run timeout).
        corrupt: probability a worker returns a garbage payload instead
            of a :class:`~repro.sim.runner.RunResult`.
        oom: probability a worker raises ``MemoryError`` (simulated
            allocator exhaustion — no real memory is consumed, so the
            harness is safe to run anywhere).
        hang_s: how long an injected hang sleeps.  Finite so that an
            un-supervised run (no timeout) still terminates eventually.
        faulty_attempts: inject only on attempt numbers below this
            bound; ``None`` faults every attempt (a *permanent* fault
            that exhausts retries), ``1`` faults only the first attempt
            (a *transient* fault that a retry recovers from).
    """

    seed: int = 0
    crash: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    oom: float = 0.0
    hang_s: float = 30.0
    faulty_attempts: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "corrupt", "oom"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"chaos {name} rate must be in [0, 1]")
        if self.crash + self.hang + self.corrupt + self.oom > 1.0 + 1e-9:
            raise ValueError("chaos fault rates must sum to at most 1")
        if self.hang_s <= 0:
            raise ValueError("hang_s must be positive")
        if self.faulty_attempts is not None and self.faulty_attempts <= 0:
            raise ValueError("faulty_attempts must be positive (or None)")

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """The fault for ``(key, attempt)``: a kind name or ``None``.

        Deterministic: hashes ``(seed, key, attempt)`` to a uniform
        draw in ``[0, 1)`` and walks the cumulative fault probabilities
        in a fixed order (crash, hang, corrupt, oom).
        """
        if self.faulty_attempts is not None and attempt >= self.faulty_attempts:
            return None
        return _draw(self, f"{key}:{attempt}", ("crash", "hang", "corrupt", "oom"))

    def active(self) -> bool:
        """Whether any fault can ever fire under this config."""
        return (self.crash + self.hang + self.corrupt + self.oom) > 0.0


def inject(
    chaos: Optional[ChaosConfig], key: str, attempt: int
) -> Optional[str]:
    """Fire the configured fault for ``(key, attempt)``, if any.

    Returns ``"corrupt"`` when the caller must substitute
    :data:`CORRUPT_PAYLOAD` for its result, ``None`` when the run should
    proceed normally.  Crash/oom faults do not return (process exit or
    raise); a hang fault sleeps ``hang_s`` in a worker and raises
    :class:`ChaosFault` inline (see the module docstring's table).
    """
    if chaos is None:
        return None
    kind = chaos.decide(key, attempt)
    if kind is None:
        return None
    if kind == "crash":
        if _IN_WORKER:
            os._exit(CRASH_EXIT_CODE)
        raise ChaosFault(kind, key, attempt)
    if kind == "hang":
        if _IN_WORKER:
            time.sleep(chaos.hang_s)
            return None
        raise ChaosFault(kind, key, attempt)
    if kind == "oom":
        raise MemoryError(
            f"chaos: simulated allocator exhaustion "
            f"(key={key[:12]}, attempt={attempt})"
        )
    return "corrupt"


@dataclasses.dataclass(frozen=True)
class ServiceChaosConfig:
    """Seeded fault injection for the sweep *service* layer.

    Where :class:`ChaosConfig` breaks simulation workers,
    ``ServiceChaosConfig`` breaks the HTTP service itself, so tests can
    prove the client retry loop and the crash-safe job ledger
    (:mod:`repro.sim.ledger`) hold up:

    * ``drop`` — close the connection without sending a response;
    * ``truncate`` — send the headers plus only half the body, then
      close (an ``IncompleteRead`` on the client);
    * ``slow`` — a slow-loris response: dribble the body out one chunk
      at a time, ``slow_s`` apart (trips client socket timeouts);
    * ``kill_after_cells`` — SIGKILL the whole service process after it
      completes its Nth suite cell (the restart/resume drill).

    Response faults are a pure function of ``(seed, request token)``
    via the same SHA-256-to-unit-interval draw as worker chaos, so a
    given seed always breaks the same requests.  Health endpoints are
    never chaosed — a drill must still be able to tell the service is
    up.
    """

    seed: int = 0
    drop: float = 0.0
    truncate: float = 0.0
    slow: float = 0.0
    slow_s: float = 0.5
    kill_after_cells: int = 0

    def __post_init__(self) -> None:
        for name in ("drop", "truncate", "slow"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"service chaos {name} rate must be in [0, 1]")
        if self.drop + self.truncate + self.slow > 1.0 + 1e-9:
            raise ValueError("service chaos fault rates must sum to at most 1")
        if self.slow_s <= 0:
            raise ValueError("slow_s must be positive")
        if self.kill_after_cells < 0:
            raise ValueError("kill_after_cells cannot be negative")

    def decide_response(self, token: str) -> Optional[str]:
        """The response fault for one request token, or ``None``.

        Deterministic: hashes ``(seed, token)`` to a uniform draw in
        ``[0, 1)`` and walks the cumulative fault probabilities in a
        fixed order (drop, truncate, slow).
        """
        return _draw(self, token, ("drop", "truncate", "slow"))

    def active(self) -> bool:
        """Whether any service fault can ever fire under this config."""
        return (
            self.drop + self.truncate + self.slow > 0.0
            or self.kill_after_cells > 0
        )


def _draw(config: Any, token: str, kinds: Tuple[str, ...]) -> Optional[str]:
    """The seeded fault draw shared by both chaos configs.

    Hashes ``(config.seed, token)`` with SHA-256 to a uniform draw in
    ``[0, 1)`` and walks the cumulative probabilities of ``kinds`` in
    order; returns the kind the draw lands in, or ``None``.
    """
    digest = hashlib.sha256(f"{config.seed}:{token}".encode("utf-8")).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    edge = 0.0
    for kind in kinds:
        edge += getattr(config, kind)
        if draw < edge:
            return kind
    return None


def _parse_spec(
    text: Optional[str], label: str, fields: Dict[str, Tuple[str, type]]
) -> Optional[Dict[str, Any]]:
    """Parse a comma-separated ``name=value`` spec into config kwargs.

    ``fields`` maps each spec name to ``(config field, value type)``.
    ``None``/empty returns ``None``; a token without ``=``, an unknown
    name or a malformed value raises ``ValueError`` naming ``label``.
    """
    if text is None or not text.strip():
        return None
    kwargs: Dict[str, Any] = {}
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        if "=" not in token:
            raise ValueError(
                f"{label} spec entries must be name=value, got {token!r}"
            )
        name, _, raw = token.partition("=")
        name = name.strip()
        if name not in fields:
            raise ValueError(
                f"unknown {label} field {name!r}; choose from {sorted(fields)}"
            )
        target, kind = fields[name]
        try:
            kwargs[target] = kind(raw.strip())
        except ValueError:
            raise ValueError(
                f"{label} field {name!r} needs a {kind.__name__}, "
                f"got {raw.strip()!r}"
            ) from None
    return kwargs


def parse_service_chaos(text: Optional[str]) -> Optional[ServiceChaosConfig]:
    """Parse a ``repro serve --chaos`` spec into a config (or ``None``).

    Same comma-separated ``name=value`` grammar as :func:`parse_chaos`;
    fields are ``seed``, ``drop``, ``truncate``, ``slow``, ``slow_s``,
    and ``kill_after_cells``, e.g.
    ``"seed=7,drop=0.3,kill_after_cells=2"``.
    """
    kwargs = _parse_spec(
        text,
        "service chaos",
        {
            "seed": ("seed", int),
            "drop": ("drop", float),
            "truncate": ("truncate", float),
            "slow": ("slow", float),
            "slow_s": ("slow_s", float),
            "kill_after_cells": ("kill_after_cells", int),
        },
    )
    return None if kwargs is None else ServiceChaosConfig(**kwargs)


def parse_chaos(text: Optional[str]) -> Optional[ChaosConfig]:
    """Parse a CLI ``--chaos`` spec into a :class:`ChaosConfig`.

    The spec is a comma list of ``name=value`` pairs, e.g.
    ``"seed=7,crash=0.2,hang=0.1,corrupt=0.1,attempts=1"``; ``attempts``
    maps to :attr:`ChaosConfig.faulty_attempts` and ``hang_s`` sets the
    injected-hang duration.  ``None``/empty returns ``None`` (chaos
    off); unknown names or malformed values raise ``ValueError``.
    """
    kwargs = _parse_spec(
        text,
        "chaos",
        {
            "seed": ("seed", int),
            "crash": ("crash", float),
            "hang": ("hang", float),
            "corrupt": ("corrupt", float),
            "oom": ("oom", float),
            "hang_s": ("hang_s", float),
            "attempts": ("faulty_attempts", int),
        },
    )
    return None if kwargs is None else ChaosConfig(**kwargs)
