"""The red-team harness: gadget x scheme verdict matrix.

:func:`run_matrix` routes every (gadget, scheme) cell through the
existing experiment engine — each cell is a telemetry-enabled
:class:`~repro.sim.engine.RunSpec` executed by
:func:`~repro.sim.engine.run_specs`, fail-fast or supervised by the same
rule as every grid, so the matrix fans out over worker processes,
benefits from the engine's crash handling, and lands in a
:class:`~repro.sim.engine.SuiteResult` like any benchmark grid.
Telemetry-enabled specs always bypass the result store, so verdicts can
never be served stale.

A cell's verdict combines two analyses:

* the **cache-observability probe** — the pipeline's ``security/observe``
  telemetry event, one per real cache access by a load, recording
  whether the access ran under a speculation shadow and whether it hit
  in the L1.  *Transmission* means a speculative access that missed
  (perturbed attacker-visible cache state); a speculative L1 hit leaves
  no footprint.
* the **Clueless DIFT analyzer** over the gadget's architectural prefix
  — the committed, non-speculative part of the trace — deciding whether
  the secret word was already public at attack time (the SPT/ReCon
  threat model: architecturally leaked data is public).

``transmitted and not public``  -> LEAK;
``transmitted and public``      -> BENIGN;
``not transmitted``             -> PROTECTED.

Traced cells run on the same cycle loop as every measured number: the
telemetry hooks on :class:`~repro.core.pipeline.Core` observe the run
without changing it.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple, Union

from repro.analysis.clueless import Clueless
from repro.common.types import SchemeKind
from repro.sim.config import RunConfig
from repro.sim.engine import RunSpec, SuiteResult, run_specs
from repro.sim.ledger import durable_write
from repro.sim.runner import RunResult
from repro.sim.supervisor import FaultPolicy
from repro.telemetry.events import CAT_RECON, CAT_SECURITY, TelemetryConfig
from repro.workloads.gadgets import (
    CATALOG,
    MATRIX_SCHEMES,
    BuiltGadget,
    GadgetCase,
    Verdict,
    build_gadget,
    gadget_profile,
    get_gadget,
)

__all__ = [
    "CellOutcome",
    "MatrixResult",
    "arch_leaked_words",
    "run_matrix",
]

#: Telemetry collected inside each matrix cell: the observe probe plus
#: ReCon reveal traffic (enough for verdicts; small ring footprint).
_CELL_TELEMETRY = TelemetryConfig(
    sample_rate=1, categories=frozenset({CAT_SECURITY, CAT_RECON})
)


def arch_leaked_words(built: BuiltGadget) -> FrozenSet[int]:
    """Words architecturally public at attack time, per Clueless DIFT.

    Each core's *architectural prefix* (the leading micro-ops modeling
    committed non-speculative execution) runs through its own
    :class:`Clueless` instance — register namespaces are per-core — and
    the leaked sets are unioned: a word any core made public is public
    system-wide (that is what the coherent reveal bits implement).
    """
    leaked: set = set()
    for prog, end in zip(built.programs, built.prefix_ends):
        analyzer = Clueless()
        for uop in prog.trace()[:end]:
            analyzer.step(uop)
        leaked |= analyzer.dift_leaked
    return frozenset(leaked)


@dataclasses.dataclass(frozen=True)
class CellOutcome:
    """One (gadget, scheme) cell of the verdict matrix."""

    gadget: str
    scheme: SchemeKind
    verdict: Verdict
    expected: Verdict
    #: The transmitter performed a real cache access at some point.
    observed: bool
    #: ...while a speculation shadow was up (hit or miss).
    observed_speculative: bool
    #: ...speculatively AND missing in the L1 (perturbed cache state).
    transmitted: bool
    #: The secret word was architecturally public at attack time.
    secret_arch_leaked: bool
    cycles: int
    reveal_hits: int
    reveal_misses: int
    delayed_loads: int
    tainted_loads: int

    @property
    def ok(self) -> bool:
        return self.verdict is self.expected

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready cell record (enums as strings, plus ``ok``)."""
        d = dataclasses.asdict(self)
        d["scheme"] = self.scheme.value
        d["verdict"] = self.verdict.value
        d["expected"] = self.expected.value
        d["ok"] = self.ok
        return d


@dataclasses.dataclass
class MatrixResult:
    """The full verdict matrix plus its engine-level provenance."""

    cells: List[CellOutcome]
    suite: SuiteResult
    wall_time_s: float
    #: Cells that failed to execute under supervision (spec label list).
    failed_cells: List[Tuple[str, str]] = dataclasses.field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failed_cells and all(cell.ok for cell in self.cells)

    @property
    def mismatches(self) -> List[CellOutcome]:
        return [cell for cell in self.cells if not cell.ok]

    def cell(self, gadget: str, scheme: SchemeKind) -> Optional[CellOutcome]:
        """The outcome for one (gadget, scheme); ``None`` when absent."""
        for c in self.cells:
            if c.gadget == gadget and c.scheme is scheme:
                return c
        return None

    def verdict_map(self) -> Dict[str, Dict[str, str]]:
        """``{gadget: {scheme value: verdict value}}`` (JSON-friendly)."""
        out: Dict[str, Dict[str, str]] = {}
        for c in self.cells:
            out.setdefault(c.gadget, {})[c.scheme.value] = c.verdict.value
        return out

    def to_dict(self) -> Dict[str, object]:
        """The JSON-ready artifact payload (``results/BENCH_gadgets.json``)."""
        return {
            "version": 2,
            "cells": [c.as_dict() for c in self.cells],
            "verdicts": self.verdict_map(),
            "failed_cells": [list(fc) for fc in self.failed_cells],
            "summary": {
                "cells": len(self.cells),
                "mismatches": len(self.mismatches),
                "ok": self.ok,
            },
            "wall_time_s": self.wall_time_s,
        }

    def save(self, path: Union[str, Path]) -> Path:
        """Durably write the matrix artifact (``BENCH_gadgets.json``)."""
        return durable_write(
            path, json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"
        )


def _classify(
    built: BuiltGadget, result: RunResult, public: bool
) -> Tuple[Verdict, bool, bool, bool]:
    """Verdict + (observed, observed_speculative, transmitted) for a cell."""
    observed = spec_any = spec_miss = False
    telemetry = result.telemetry
    events = telemetry.events if telemetry is not None else []
    for ev in events:
        if (
            ev.category == CAT_SECURITY
            and ev.kind == "observe"
            and ev.core == built.transmit_core
            and ev.seq == built.transmit_seq
        ):
            observed = True
            if ev.value & 2:
                spec_any = True
                if not (ev.value & 1):
                    spec_miss = True
    if spec_miss:
        verdict = Verdict.BENIGN if public else Verdict.LEAK
    else:
        verdict = Verdict.PROTECTED
    return verdict, observed, spec_any, spec_miss


def run_matrix(
    gadgets: Optional[Iterable[str]] = None,
    schemes: Optional[Sequence[SchemeKind]] = None,
    *,
    jobs: Optional[int] = None,
    supervise: Union[bool, FaultPolicy] = False,
    progress: bool = False,
) -> MatrixResult:
    """Run the gadget x scheme matrix through the experiment engine.

    Args:
        gadgets: gadget names (default: the whole catalog).
        schemes: matrix columns (default: :data:`MATRIX_SCHEMES`).
        jobs: engine worker processes (``None`` honours ``REPRO_JOBS``).
        supervise: route execution through the fault-tolerant supervisor
            (``True`` = default :class:`FaultPolicy`); failed cells land
            in :attr:`MatrixResult.failed_cells` instead of raising.
        progress: per-run progress lines on stderr.
    """
    cases: List[GadgetCase] = (
        [get_gadget(name) for name in gadgets] if gadgets else list(CATALOG)
    )
    scheme_list: Tuple[SchemeKind, ...] = tuple(schemes or MATRIX_SCHEMES)

    specs: List[RunSpec] = []
    meta: List[Tuple[GadgetCase, BuiltGadget]] = []
    for case in cases:
        built = build_gadget(case.name)
        config = RunConfig(
            threads=built.threads, warmup_uops=0, telemetry=_CELL_TELEMETRY
        )
        for scheme in scheme_list:
            specs.append(
                RunSpec.build(gadget_profile(case.name), scheme, built.length, config)
            )
            meta.append((case, built))

    results, suite = run_specs(
        specs,
        jobs=jobs,
        progress=progress,
        policy=FaultPolicy() if supervise is True else supervise or None,
    )

    cells: List[CellOutcome] = []
    failed: List[Tuple[str, str]] = []
    public_cache: Dict[str, FrozenSet[int]] = {}
    for spec, (case, built), result in zip(specs, meta, results):
        if result is None:
            failed.append((case.name, spec.scheme.value))
            continue
        if case.name not in public_cache:
            public_cache[case.name] = arch_leaked_words(built)
        public = built.secret_word in public_cache[case.name]
        verdict, observed, spec_any, transmitted = _classify(built, result, public)
        cells.append(
            CellOutcome(
                gadget=case.name,
                scheme=spec.scheme,
                verdict=verdict,
                expected=case.expected[spec.scheme],
                observed=observed,
                observed_speculative=spec_any,
                transmitted=transmitted,
                secret_arch_leaked=public,
                cycles=result.cycles,
                reveal_hits=result.stats.reveal_hits,
                reveal_misses=result.stats.reveal_misses,
                delayed_loads=result.stats.delayed_loads,
                tainted_loads=result.stats.tainted_loads,
            )
        )

    return MatrixResult(
        cells=cells,
        suite=suite,
        wall_time_s=suite.wall_time_s,
        failed_cells=failed,
    )
