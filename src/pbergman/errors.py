"""Exception types shared across the package."""

import os
import sys

_PACKAGE_DIR = os.path.dirname(__file__) + os.sep


class PBergmanError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(PBergmanError):
    """Rejected configuration (bad parameters, malformed input files)."""


class UnsupportedDomainError(PBergmanError):
    """Operation requires structure the domain does not carry."""


class DegenerateDomainError(PBergmanError):
    """Rejection sampler gave up: acceptance rate below the trial budget."""


class DivergentIntegralError(PBergmanError):
    """The requested integral does not converge on this domain."""


class PoleEvaluationError(PBergmanError):
    """A Laurent term with negative exponent was evaluated at a coordinate zero."""


class NonInvertibleMapError(PBergmanError):
    """Monomial or linear map is not invertible (as an exact map)."""


class BranchError(PBergmanError):
    """A fractional power has no single-valued Laurent branch for these parameters."""


class NoBasisSupportError(PBergmanError):
    """Every basis element vanishes at the evaluation point."""


class PoleProximityWarning(UserWarning):
    """Monte Carlo integrand has heavy mass spikes; quadrature is more reliable."""


def user_stacklevel() -> int:
    """The `warnings.warn` stacklevel, for the function that calls this, that
    names the first frame outside the package, so a warning points at the
    user's call site however deep in the package it is raised. (Python 3.12
    has `skip_file_prefixes`; 3.11 does not.)"""
    frame, level = sys._getframe(1), 1
    while frame.f_back is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    return level
