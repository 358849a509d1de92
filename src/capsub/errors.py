"""Exception hierarchy shared by all capsub modules."""


class CapsubError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateProfile(CapsubError):
    """Load profile has no usable peak (all-zero or non-positive)."""


class DomainError(CapsubError):
    """An argument lies outside the mathematical domain of an operation."""


class ScenarioMismatch(CapsubError):
    """Series, schedules or stacks that must belong together do not."""


class IllPosed(CapsubError):
    """Price constellation under which the optimization has no sensible optimum."""


class MissingHours(CapsubError):
    """A load CSV has a gap in its hourly sequence."""


class NegativeLoad(CapsubError):
    """A load CSV contains a negative consumption value."""


class MalformedRow(CapsubError):
    """A load CSV row cannot be parsed; message carries the line number."""


class CalibrationFailed(CapsubError):
    """No non-negative capacity price matches the reference revenue within the tolerance."""


class ConfigError(CapsubError):
    """A JSON spec or tariff config file is invalid; message names the field."""
