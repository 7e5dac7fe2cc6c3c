"""Statistical sampling + warm-start simulation (SMARTS-style).

Instead of detail-simulating a whole trace, a sampled run functionally
warms memory state, detail-simulates short measurement units spread over
the measured region, and reports per-cell IPC / leakage-count estimates
with Student-t confidence intervals, escalating the number of units
until the relative CI half-width meets a target.

Public surface:

- :class:`~repro.sampling.config.SamplingConfig` /
  :func:`~repro.sampling.config.parse_sampling` — the knobs and the
  ``--sampling ci=0.02,conf=0.95`` spec-string parser.
- :class:`~repro.sampling.estimator.MeanEstimator` /
  :class:`~repro.sampling.estimator.SampledEstimate` — the statistics.
- :func:`~repro.sampling.executor.run_sampled` — the sampled
  counterpart of :func:`repro.sim.runner.run_benchmark` (reached
  automatically when ``RunConfig.sampling`` is set).

Names resolve on first access.  The executor pulls in the simulator
stack, so importing :mod:`repro.sampling` (as :mod:`repro.sim.config`
does for the config type) stays cheap and cycle-free.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.sampling.config": (
            "DEFAULT_SAMPLING_SPEC",
            "SamplingConfig",
            "parse_sampling",
        ),
        "repro.sampling.estimator": (
            "MeanEstimator",
            "SampledEstimate",
            "escalation_schedule",
            "student_t_sf",
            "t_critical",
        ),
        "repro.sampling.executor": ("run_sampled",),
    },
)

__all__ = [
    "DEFAULT_SAMPLING_SPEC",
    "MeanEstimator",
    "SampledEstimate",
    "SamplingConfig",
    "escalation_schedule",
    "parse_sampling",
    "run_sampled",
    "student_t_sf",
    "t_critical",
]
