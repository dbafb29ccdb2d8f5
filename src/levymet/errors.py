"""Exception types shared across the package."""


class LevyMetError(Exception):
    """Base class for all package-specific errors."""


def raised(result):
    """``result``, unless it is a LevyMetError, which is raised: one entry
    of a batch function's output as the single-item call returns it."""
    if isinstance(result, LevyMetError):
        raise result
    return result


class SupportError(LevyMetError, ValueError):
    """A jump measure violates a support requirement (atom at 0, mass at or
    below -1 inside a log-integrand band, ...)."""


class QuadratureError(LevyMetError, RuntimeError):
    """Numerical integration did not reach the requested tolerance."""


class ConfigurationError(LevyMetError, ValueError):
    """Invalid configuration of a sampler, evaluator, or experiment."""


class ParseError(ConfigurationError):
    """Malformed experiment config text; message names the key and line."""


class StructuralError(LevyMetError, ValueError):
    """Mismatched dimensions, flag types, or path anchoring."""


class HorizonError(LevyMetError, ValueError):
    """A time query left the sampled horizon."""


class SingularityError(LevyMetError, ArithmeticError):
    """A matrix that must be invertible is (numerically) singular."""


class DegeneracyError(SingularityError):
    """A multiplicative jump factor hit zero (jump of exactly -1)."""


class InstabilityError(LevyMetError, ArithmeticError):
    """Overflow or frame degeneration; usually asks for a smaller step."""


class DivergenceError(LevyMetError, RuntimeError):
    """Successive-substitution iteration diverged."""


class ResolutionError(LevyMetError, RuntimeError):
    """Spectral gaps or subspace intersections unresolvable at the current
    horizon/tolerance."""
