"""Persistent on-disk result store.

Completed runs are memoized under a content hash of everything that
determines their outcome — ``(profile, scheme, length, threads, seed,
SystemParams, code-schema version)`` — so repeated bench invocations are
near-instant and interrupted sweeps resume where they stopped.

The store is the only record of a finished run: a resumed sweep finds
its completed cells here, not in the supervisor's journal.

Layout: one JSON file per run at ``<root>/<hash[:2]>/<hash>.json``, so
a lookup is one ``open``.  Entries are written through
:func:`~repro.sim.ledger.durable_write` (temp file + fsync + rename), so
a crash mid-write never leaves a truncated entry behind.  A *corrupt*
entry — present on disk but
unparseable or schema-invalid — is never silently swallowed: it is
quarantined in place (renamed to ``<entry>.json.corrupt`` so it stops
matching future lookups but remains inspectable), a ``RuntimeWarning``
names the quarantined file, and :attr:`ResultStore.corrupt_entries`
counts the damage.  The lookup then proceeds as a miss, so the run is
simply recomputed.

The store location defaults to ``results/.store`` (relative to the
current directory); override it with the ``REPRO_STORE`` environment
variable, or disable persistence entirely with ``REPRO_STORE=off``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import warnings
from pathlib import Path
from typing import Any, Dict, Optional

from repro.common.params import SystemParams
from repro.common.stats import StatSet
from repro.common.types import SchemeKind
from repro.sim.ledger import durable_write
from repro.sim.runner import RunResult
from repro.telemetry.events import TelemetryResult
from repro.workloads.profile import BenchmarkProfile

__all__ = [
    "SCHEMA_VERSION",
    "STORE_ENV",
    "ResultStore",
    "default_store_root",
    "result_from_dict",
    "result_to_dict",
    "run_key",
]

#: Bump whenever the simulator's semantics change in a way that makes old
#: stored results stale — every existing key is invalidated at once.
SCHEMA_VERSION = 1

#: Environment variable naming the store directory ("off" disables it).
STORE_ENV = "REPRO_STORE"

_DISABLED_VALUES = ("", "0", "off", "none", "disabled")


def default_store_root() -> Optional[Path]:
    """The store directory, or ``None`` if persistence is disabled."""
    value = os.environ.get(STORE_ENV)
    if value is None:
        return Path("results") / ".store"
    if value.strip().lower() in _DISABLED_VALUES:
        return None
    return Path(value)


def _jsonable(value: Any) -> Any:
    """Canonical JSON-safe form of params/profile field values."""
    if isinstance(value, enum.Enum):
        return value.value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _jsonable(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


@functools.lru_cache(maxsize=64)
def _canonical_params(params: SystemParams) -> Dict[str, Any]:
    """``_jsonable(params)``, computed once per distinct frozen params.

    Read-only: :func:`run_key` only serializes it.
    """
    return _jsonable(params)


def run_key(
    profile: BenchmarkProfile,
    scheme: SchemeKind,
    length: int,
    threads: int,
    params: SystemParams,
    warmup_uops: int,
    sampling: Any = None,
) -> str:
    """Content hash identifying one run's full configuration.

    ``sampling`` joins the payload only when set: exact-mode keys are
    byte-for-byte what they were before sampled simulation existed, so
    stores populated by older versions keep hitting.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "profile": _jsonable(profile),
        "scheme": scheme.value,
        "length": length,
        "threads": threads,
        "seed": profile.seed,
        "params": _canonical_params(params),
        "warmup_uops": warmup_uops,
    }
    if sampling is not None:
        payload["sampling"] = _jsonable(sampling)
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_to_dict(result: RunResult) -> Dict[str, Any]:
    """JSON-safe dict encoding of a :class:`RunResult`.

    When the run traced, the telemetry *metrics* (counters, gauges,
    histograms) ride along under ``"metrics"``; the raw event list does
    not — it is unbounded and belongs in the exporters' trace files.
    """
    data = {
        "profile": _jsonable(result.profile),
        "scheme": result.scheme.value,
        "cycles": result.cycles,
        "stats": result.stats.as_dict(),
        "per_core": [core.as_dict() for core in result.per_core],
    }
    if result.telemetry is not None:
        data["metrics"] = result.telemetry.metrics
    sampling = getattr(result, "sampling", None)
    if sampling is not None:
        data["sampling"] = sampling.as_dict()
    return data


def result_from_dict(data: Dict[str, Any]) -> RunResult:
    """Rebuild a :class:`RunResult` from :func:`result_to_dict` output.

    A stored ``"metrics"`` block comes back as a light
    :class:`~repro.telemetry.events.TelemetryResult` carrying the metric
    values only (no events — those live in the exported trace files).
    """
    profile_data = dict(data["profile"])
    profile_data["kernel_weights"] = dict(profile_data["kernel_weights"])
    telemetry = None
    if "metrics" in data:
        telemetry = TelemetryResult.from_metrics_dict(data["metrics"])
    sampling = None
    if "sampling" in data:
        from repro.sampling.estimator import SampledEstimate

        sampling = SampledEstimate.from_dict(data["sampling"])
    return RunResult(
        profile=BenchmarkProfile(**profile_data),
        scheme=SchemeKind(data["scheme"]),
        cycles=int(data["cycles"]),
        stats=StatSet(**data["stats"]),
        per_core=[StatSet(**core) for core in data["per_core"]],
        telemetry=telemetry,
        sampling=sampling,
    )


class ResultStore:
    """File-backed memo of completed runs, keyed by :func:`run_key`."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        #: Entries found damaged and quarantined (renamed ``*.corrupt``).
        self.corrupt_entries = 0

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[RunResult]:
        """The stored result for ``key``, or ``None`` (counts hit/miss).

        A missing entry is a plain miss.  An entry that exists but does
        not decode is quarantined (renamed to ``*.json.corrupt``), a
        ``RuntimeWarning`` is emitted, :attr:`corrupt_entries` is
        bumped, and the lookup counts as a miss.
        """
        path = self._path(key)
        try:
            text = path.read_text()
        except OSError:
            self.misses += 1
            return None
        try:
            result = result_from_dict(json.loads(text))
        except (ValueError, KeyError, TypeError) as exc:
            self._quarantine(path, exc)
            self.misses += 1
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path, exc: Exception) -> None:
        """Move a damaged entry aside so it stops matching lookups."""
        self.corrupt_entries += 1
        quarantined = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, quarantined)
            where = f"quarantined as {quarantined}"
        except OSError:
            where = "could not be quarantined"
        warnings.warn(
            f"result store entry {path} is corrupt "
            f"({type(exc).__name__}: {exc}); {where}",
            RuntimeWarning,
            stacklevel=3,
        )

    def put(self, key: str, result: RunResult) -> None:
        """Persist ``result`` under ``key`` (durable, atomic write)."""
        durable_write(self._path(key), json.dumps(result_to_dict(result)))

    # ------------------------------------------------------------------
    # content-hash blob entries
    # ------------------------------------------------------------------
    def _entry_path(self, kind: str, key: str) -> Path:
        if not kind or any(ch in kind for ch in "/\\."):
            raise ValueError(f"bad entry kind {kind!r}")
        # Blobs live under a dot-directory so run-entry enumeration
        # (__len__, clear) keeps metering simulated runs only.
        return self.root / ".blobs" / kind / key[:2] / f"{key}.json"

    def get_entry(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """A JSON blob stored by :meth:`put_entry`, or ``None``.

        Blob entries are auxiliary JSON artifacts living beside run
        results under ``<root>/.blobs/<kind>/``.  Nothing in the
        simulator writes one (sampled warm images stay on the trace
        cache); ``perfbench/spans.py`` still times this method and
        :meth:`put_entry` by name, so both stay until it stops.  Corrupt
        blobs are quarantined like run entries; lookups do not count
        toward :attr:`hits`/:attr:`misses` (those meter simulated-run
        savings).
        """
        path = self._entry_path(kind, key)
        try:
            text = path.read_text()
        except OSError:
            return None
        try:
            payload = json.loads(text)
        except ValueError as exc:
            self._quarantine(path, exc)
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, TypeError("blob entry is not an object"))
            return None
        return payload

    def put_entry(self, kind: str, key: str, payload: Dict[str, Any]) -> None:
        """Persist a JSON blob under ``(kind, key)`` (durable, atomic write)."""
        durable_write(self._entry_path(kind, key), json.dumps(payload))

    def _entries(self):
        """Every stored run entry (skips tmp, corrupt and blob files)."""
        return (
            entry
            for entry in self.root.glob("??/*.json")
            if not entry.name.startswith(".")
        )

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self._entries())

    def clear(self) -> None:
        """Delete every stored entry (the directory itself survives)."""
        if not self.root.is_dir():
            return
        for entry in self._entries():
            try:
                entry.unlink()
            except OSError:
                pass
