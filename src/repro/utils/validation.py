"""Small argument-checking helpers used across the library.

These raise ``ValueError`` with a consistent message format so configuration
mistakes fail fast at construction time rather than deep inside a training
loop.
"""

from __future__ import annotations


def check_positive(name: str, value: float) -> None:
    """Require ``value > 0``."""
    if not value > 0:
        raise ValueError(f"{name} must be positive, got {value!r}")


def check_fraction(name: str, value: float, inclusive: bool = True) -> None:
    """Require ``value`` in ``[0, 1]`` (or ``(0, 1)`` if not inclusive)."""
    if inclusive:
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {value!r}")
    else:
        if not 0.0 < value < 1.0:
            raise ValueError(f"{name} must be in (0, 1), got {value!r}")


def check_in(name: str, value: str, allowed: tuple[str, ...]) -> None:
    """Require ``value`` to be one of ``allowed``."""
    if value not in allowed:
        raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
