"""Request validation of :meth:`CharacterizationService.handle`.

Runs on services that are never started, so an accepted request only
queues (202) and nothing is computed:

* the phases interval ceiling (:data:`repro.service.app.MAX_PHASE_INTERVALS`)
  answers 400 before a worker could be pinned;
* a hypothesis fuzz of POST bodies for all four kinds, whose fields
  take random types and integers: the service may answer 200, 202 or a
  4xx, or raise a typed :class:`~repro.errors.ServiceError`, and
  nothing else.
"""

from __future__ import annotations

import tempfile
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.config import ReproConfig
from repro.errors import ServiceError
from repro.service import CharacterizationService, Job, ServiceSettings
from repro.service.app import KINDS, MAX_PHASE_INTERVALS

CONFIG = ReproConfig(trace_length=5_000)


def _service(cache_dir) -> CharacterizationService:
    return CharacterizationService(
        config=CONFIG, settings=ServiceSettings(cache_dir=cache_dir)
    )


def _post(service, kind, body):
    # Nothing runs on an unstarted service; a waiting request would
    # only sleep out its deadline, so it answers with the queued job.
    with mock.patch.object(Job, "wait", lambda self, timeout=None: False):
        return service.handle("POST", f"/v1/{kind}", {}, body)


class TestPhaseIntervalCeiling:

    def test_interval_count_above_the_ceiling_is_a_400(self, tmp_path):
        status, payload, _ = _post(_service(tmp_path), "phases", {
            "benchmark": "mcf", "trace_length": 1_000_000, "interval": 1,
        })
        assert status == 400, payload
        assert "ceiling" in payload["error"]["message"]

    def test_one_past_the_ceiling_is_refused_and_the_ceiling_queues(
        self, tmp_path
    ):
        service = _service(tmp_path)
        interval = 100
        over = {"benchmark": "mcf", "interval": interval,
                "trace_length": interval * (MAX_PHASE_INTERVALS + 1)}
        status, _, _ = _post(service, "phases", over)
        assert status == 400
        at = dict(over, trace_length=interval * MAX_PHASE_INTERVALS + 99)
        status, payload, _ = _post(service, "phases", at)
        assert status == 202, payload


_INTEGERS = st.one_of(
    st.integers(-3, 12), st.integers(0, 2_000_000),
    st.integers(-(2**70), 2**70),
    # Past float range: float() of these overflows.
    st.integers(2**1024, 2**1030), st.integers(-(2**1030), -(2**1024)),
)
_VALUES = st.one_of(_INTEGERS, st.one_of(
    st.none(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["bbv", "mix", "mica", "true", "1", "0", "false"]),
    st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
))
_BENCHMARKS = st.one_of(
    st.sampled_from(["mcf", "spec2000/mcf/ref", "gzip", ""]), _VALUES
)
#: Per field, values that pass its own check, so a body often gets as
#: far as the fields read after validation (deadline, wait, queue).
_PLAUSIBLE = {
    "trace_length": st.integers(1, 1_000_000),
    "interval": st.integers(1, 50_000),
    "seed": st.integers(0, 3),
    "signature": st.sampled_from(["bbv", "mix", "mica"]),
    "deadline_ms": st.integers(1, 60_000),
    "wait": st.sampled_from([False, 0, "0"]),
}


@st.composite
def request_bodies(draw):
    """A body of random types: usually an object with a random subset
    of every field any kind reads, sometimes not an object at all."""
    if draw(st.integers(0, 9)) == 0:
        return draw(_VALUES)
    body = {
        field: draw(st.one_of(plausible, _VALUES))
        for field, plausible in _PLAUSIBLE.items()
        if draw(st.booleans())
    }
    if draw(st.integers(0, 5)):
        body["benchmark"] = draw(_BENCHMARKS)
    if draw(st.booleans()):
        body["benchmarks"] = draw(st.one_of(
            st.lists(_BENCHMARKS, max_size=3), _VALUES
        ))
    return body


@pytest.fixture(scope="module")
def cache_dir():
    with tempfile.TemporaryDirectory() as directory:
        yield directory


class TestRequestBodyFuzz:

    @settings(
        max_examples=300, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @example(  # float() of an int past float range raises OverflowError
        kind="characterize", body={"benchmark": "mcf", "deadline_ms": 2**1024}
    )
    @example(kind="phases", body={"benchmark": "mcf", "wait": -(2**1100)})
    @given(kind=st.sampled_from(KINDS), body=request_bodies())
    def test_bodies_get_a_documented_answer(self, cache_dir, kind, body):
        try:
            status, payload, _ = _post(_service(cache_dir), kind, body)
        except ServiceError:
            return
        assert status in (200, 202) or 400 <= status < 500, (status, payload)
        assert isinstance(payload, dict)
