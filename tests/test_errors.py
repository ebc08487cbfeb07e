"""Library errors: pinned messages, and each survives a pickle round trip
(a verify worker process hands its errors back through pickle)."""

import pickle

import pytest

from collatzlab.actions import Action, ModelId
from collatzlab.errors import (DepthExceeded, DomainViolation, GuardViolation,
                               UnknownClaim)

CASES = [
    (GuardViolation(Action.T, 6, ModelId.M0, 3),
     {"action": Action.T, "value": 6, "model": ModelId.M0, "step_index": 3},
     "T illegal at 6 under M0 (step 3)"),
    (GuardViolation(Action.F, 1, ModelId.MS),
     {"action": Action.F, "value": 1, "model": ModelId.MS, "step_index": None},
     "F illegal at 1 under MS"),
    (DomainViolation(Action.B, 0, 0, ModelId.M1, 0),
     {"action": Action.B, "value": 0, "result": 0, "model": ModelId.M1,
      "step_index": 0},
     "B at 0 gives 0, outside M1 domain (step 0)"),
    (DomainViolation(Action.D, -3, -3, ModelId.M0),
     {"action": Action.D, "value": -3, "result": -3, "model": ModelId.M0,
      "step_index": None},
     "D at -3 gives -3, outside M0 domain"),
    (UnknownClaim("L.nope", ("L.10-11", "T.succ1")),
     {"claim_id": "L.nope", "known": ["L.10-11", "T.succ1"]},
     "unknown claim 'L.nope'; known ids: L.10-11, T.succ1"),
    (DepthExceeded(27, 10), {"start": 27, "max_depth": 10},
     "27 did not reach 1 within 10 steps"),
]


@pytest.mark.parametrize("exc, attrs, message", CASES,
                         ids=[f"{type(c[0]).__name__}-{i}"
                              for i, c in enumerate(CASES)])
def test_error_messages_are_pinned_and_survive_pickling(exc, attrs, message):
    for err in (exc, pickle.loads(pickle.dumps(exc))):
        assert type(err) is type(exc)
        assert str(err) == message
        assert {name: getattr(err, name) for name in attrs} == attrs
