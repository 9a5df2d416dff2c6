"""Every package error survives a pickle round trip (forked workers and
multiprocessing users send them between processes)."""

import pickle

import pytest

from minsurf import errors
from minsurf.errors import MinsurfError

ERRORS = sorted((c for c in vars(errors).values()
                 if isinstance(c, type) and issubclass(c, MinsurfError)),
                key=lambda c: c.__name__)

# constructor arguments of the errors built from fields, not a message; a
# new one fails below until it is listed here
FIELDS = {
    errors.BlowUp: (0.6585, 351.2),
    errors.ComplexEigenvalues: (-2.5e-7,),
    errors.ConstraintDrift: (3.1e-6, "normal flow"),
    errors.NewtonDiverged: (12, 4.2e-3),
    errors.WorkerFailure: ("profile", 768),
}


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_round_trips_through_pickle(cls):
    e = cls(*FIELDS.get(cls, ("what went wrong",)))
    back = pickle.loads(pickle.dumps(e))
    assert type(back) is cls
    assert str(back) == str(e)
    assert vars(back) == vars(e)

