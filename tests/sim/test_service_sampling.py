"""Sampling option flow through the sweep service.

Covers the full route of the ``"sampling"`` job option: submit-time
validation (a bad spec is a 400, not a failed job), the option reaching
``repro.api.run_suite`` for every cell, records in the job result
carrying the estimates, write-ahead-ledger persistence across a service
restart, and the HTTP client's ``submit_suite(sampling=...)`` payload.
"""

import json
import time

import pytest

pytestmark = pytest.mark.service

from repro.api import RunRequest, result, submit_suite
from repro.sampling import SamplingConfig
from repro.sim.engine import SuiteResult
from repro.sim.service import SweepService, _wire_options
from tests.helpers import serving

SPEC = "ci=0.02,conf=0.95"


def _cells(schemes=("unsafe", "stt")):
    return [
        {"benchmark": "spec2017/mcf", "scheme": scheme, "length": 400}
        for scheme in schemes
    ]


def _wait_done(service, job_id, timeout_s=120.0):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        job = service.get(job_id)
        if job is not None and job.done:
            return job
        time.sleep(0.05)
    raise AssertionError(f"job {job_id} never finished")


class TestSubmitValidation:
    def test_bad_spec_rejected_at_submit(self):
        service = SweepService(
            jobs=1, backend="inline", store=False, start_workers=False
        )
        try:
            with pytest.raises(ValueError, match="unknown sampling option"):
                service.submit_job(_cells(), {"sampling": "frobnicate=1"})
            with pytest.raises(ValueError, match="bad value"):
                service.submit_job(_cells(), {"sampling": "ci=lots"})
        finally:
            service.close()

    def test_wire_options_carry_sampling(self):
        wired = _wire_options(
            {"jobs": 2, "sampling": SPEC, "telemetry": None}
        )
        assert wired == {"jobs": 2, "sampling": SPEC}
        assert _wire_options({"sampling": None}) == {}


class TestOptionFlow:
    def test_sampling_reaches_run_suite_per_cell(self, monkeypatch):
        """Every cell's run_suite call gets the job's sampling spec."""
        seen = []

        import repro.api as api_mod

        real_run_suite = api_mod.run_suite

        def spying_run_suite(requests, **kwargs):
            seen.append(kwargs.get("sampling"))
            return real_run_suite(requests, **kwargs)

        monkeypatch.setattr(api_mod, "run_suite", spying_run_suite)
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(jobs=1, backend="inline", store=False)
        try:
            job = service.submit(_cells(), {"sampling": SPEC})
            finished = _wait_done(service, job.job_id)
        finally:
            service.close()
        assert finished.status == "done"
        assert seen == [SPEC, SPEC]  # one call per cell, spec intact

    def test_sampled_job_records_estimates(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(jobs=1, backend="inline", store=False)
        try:
            job = service.submit(_cells(), {"sampling": "on"})
            finished = _wait_done(service, job.job_id)
        finally:
            service.close()
        assert finished.status == "done"
        suite = SuiteResult.from_json(finished.result_json)
        assert len(suite.records) == 2
        for record in suite.records:
            assert record.estimated
            assert record.samples >= 2
            assert record.ipc_ci > 0.0


class TestRestartRecovery:
    def test_sampling_option_survives_restart(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
        state = tmp_path / "state"
        first = SweepService(
            backend="inline", start_workers=False, state_dir=state
        )
        job = first.submit(_cells(), {"sampling": SPEC})
        del first  # abandoned, nothing flushed beyond the ledger

        second = SweepService(
            backend="inline", start_workers=False, state_dir=state
        )
        try:
            recovered = second.get(job.job_id)
            assert recovered is not None
            assert recovered.recovered
            assert recovered.options.get("sampling") == SPEC
            second.start_workers()
            finished = _wait_done(second, job.job_id)
        finally:
            second.close()
        suite = SuiteResult.from_json(finished.result_json)
        assert all(record.estimated for record in suite.records)


class TestHttpClient:
    @pytest.fixture
    def server(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE", "off")
        service = SweepService(jobs=1, backend="inline", store=False)
        with serving(service) as url:
            yield url

    def test_submit_suite_sampling_round_trip(self, server):
        requests = [
            RunRequest("spec2017/mcf", scheme, 400)
            for scheme in ("unsafe", "stt")
        ]
        job = submit_suite(requests, url=server, sampling=SamplingConfig())
        suite = result(job, url=server, timeout_s=120)
        assert len(suite.records) == 2
        for record in suite.records:
            assert record.estimated
            assert record.ipc_ci > 0.0
        # Record JSON keeps the sampling fields through the wire format.
        payload = json.loads(suite.to_json())
        assert all(r["estimated"] for r in payload["records"])

    def test_submit_suite_rejects_bad_spec_locally(self, server):
        with pytest.raises(ValueError, match="unknown sampling option"):
            submit_suite(
                [RunRequest("spec2017/mcf", "unsafe", 400)],
                url=server,
                sampling="zorp=3",
            )
