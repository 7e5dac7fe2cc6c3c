"""Adversarial red-team harness for the security schemes.

Runs the :mod:`repro.workloads.gadgets` catalog across the scheme
matrix, classifies each cell as leak / protected / benign from
speculation-tagged cache-observation telemetry plus an architectural
Clueless DIFT pass, and audits each protected scheme's own metadata for
secret-dependence by comparing matched runs that differ only in the
secret (every metadata counter must be identical).  See
``docs/security.md`` for the methodology.
"""

from repro._lazy import lazy_exports

# The audit drives the simulator directly; the harness reaches it only
# through the engine, so neither loads it before a cell runs.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.redteam.audit": (
            "AUDIT_STAT_FEATURES",
            "AuditResult",
            "PROTECTED_SCHEMES",
            "audit_all",
            "audit_scheme",
            "control_audit",
        ),
        "repro.redteam.harness": (
            "CellOutcome",
            "MatrixResult",
            "arch_leaked_words",
            "run_matrix",
        ),
    },
)

__all__ = [
    "AUDIT_STAT_FEATURES",
    "AuditResult",
    "CellOutcome",
    "MatrixResult",
    "PROTECTED_SCHEMES",
    "arch_leaked_words",
    "audit_all",
    "audit_scheme",
    "control_audit",
    "run_matrix",
]
