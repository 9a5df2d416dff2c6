"""Every package error survives a pickle round trip (forked workers and
multiprocessing users send them between processes), and exits the CLI with
its documented status."""

import pickle

import pytest

from minsurf import cli, errors
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



# the status `minsurf` exits with when each error escapes a subcommand; a
# new error fails below until it is listed here
EXIT_CODES = {
    errors.BallExceedsChart: 64,
    errors.BlowUp: 2,
    errors.ClosedZeroCurve: 64,
    errors.ClosednessViolation: 1,
    errors.ComplexEigenvalues: 2,
    errors.ConstraintDrift: 2,
    errors.DegenerateTangents: 2,
    errors.DomainExceedsDelta: 64,
    errors.IntegratorFailure: 2,
    errors.MinsurfError: 64,
    errors.NewtonDiverged: 2,
    errors.NonGenericCurve: 64,
    errors.NotOnZ: 64,
    errors.OverlappingNeighbourhoods: 64,
    errors.QuadratureFailure: 2,
    errors.SingularJacobian: 2,
    errors.SingularMetric: 2,
    errors.WorkerFailure: 1,
    errors.WrongHolonomyClass: 64,
    errors.ZeroHolonomyInTranslationCase: 64,
    ValueError: 64,
    OSError: 64,
}


@pytest.mark.parametrize("cls", [*ERRORS, ValueError, OSError],
                         ids=lambda c: c.__name__)
def test_exit_code(cls, monkeypatch, capsys):
    e = cls(*FIELDS.get(cls, ("what went wrong",)))

    def fail(args):
        raise e

    monkeypatch.setattr(cli, "cmd_ode", fail)
    assert cli.main(["ode", "--v0", "0"]) == EXIT_CODES[cls]
    assert capsys.readouterr().err == f"minsurf ode: {cls.__name__}: {e}\n"
