"""Exception types shared across the package, the JSON writer that refuses
non-finite numbers and the wrapper that names the input an error came from."""

import json


class PlanlearnError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(PlanlearnError):
    """Malformed input text (PDDL, SAS, interchange dumps)."""

    def __init__(self, message: str, line: int | None = None, expected: str | None = None):
        loc = f" (line {line})" if line is not None else ""
        exp = f", expected {expected}" if expected else ""
        super().__init__(f"{message}{loc}{exp}")
        self.line = line
        self.expected = expected


class UnsupportedFeature(PlanlearnError):
    """Input uses a construct outside the supported subset."""


class ArityMismatch(PlanlearnError):
    """Atom does not match its predicate's declared arity."""


class UndeclaredSymbol(PlanlearnError):
    """Reference to a predicate, object or variable never declared."""


class GroundingExplosion(PlanlearnError):
    """Schema instantiation count exceeds the configured cap."""


class BudgetExceeded(PlanlearnError):
    """An exact oracle hit its state/fact budget."""


class InvalidPlan(PlanlearnError):
    """Plan fails validation where a valid plan is required."""


class UnknownActionId(PlanlearnError):
    """Plan refers to an action id outside the task."""


class DimensionMismatch(PlanlearnError):
    """Graph and model disagree on feature dimension or label set."""


class EmptyDataset(PlanlearnError):
    """Training requires at least two samples."""


class NonFiniteLoss(PlanlearnError):
    """Training loss became NaN or infinite."""


class NonFiniteEstimate(PlanlearnError):
    """A model heuristic produced a NaN or infinite estimate."""


class NonFiniteOutput(PlanlearnError):
    """A primary output would hold NaN or an infinity."""


class FormatVersionMismatch(PlanlearnError):
    """Stored file declares an unsupported format version."""


class ChecksumMismatch(PlanlearnError):
    """Stored file is corrupt or truncated."""


class InvalidSize(PlanlearnError):
    """Instance generator size parameter out of range."""


def finite_json(payload, output, **kwargs) -> str:
    """`json.dumps(payload, **kwargs)` without the non-JSON tokens NaN and
    Infinity: a non-finite number raises NonFiniteOutput naming `output`."""
    try:
        return json.dumps(payload, allow_nan=False, **kwargs)
    except ValueError:
        raise NonFiniteOutput(f"{output} not written: it would hold NaN or an infinity, "
                              "which JSON cannot encode") from None


def named_input(name, parse, *args):
    """parse(*args), with `name: ` put before the message of any error it
    raises, so that a one-line error says which input is at fault."""
    try:
        return parse(*args)
    except PlanlearnError as exc:
        exc.args = (f"{name}: {exc}",)
        raise
