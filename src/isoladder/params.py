"""What every command checks before it computes, on the standard library alone, so `isoladder pdo`
imports no numpy: lambda's admissible band, each weight rule's parameter and bound, and Refusal,
the ValueError each refused input derives from; the CLI prints its message and exits exit_code.
"""

from __future__ import annotations

import math

__all__ = ["SQRT_PI", "LAMBDA_GUARD", "Refusal", "ParameterError", "IsospectralParams", "WeightError",
           "WEIGHT_RULES", "check_weight_rule"]

SQRT_PI = math.sqrt(math.pi)
LAMBDA_GUARD = 1e-6
_LAMBDA_MAX = 2.0**500  # up to here theta_0's squared norm, ~sqrt(pi)/lambda^2, sums normal numbers


class Refusal(ValueError):
    """An input refused, the reason in the message; exit_code 2 is the CLI's invalid configuration."""

    exit_code = 2


class ParameterError(Refusal):
    """Parameter outside the admissible region sqrt(pi)/2 < |lambda| <= 2^500."""


class IsospectralParams:
    """The family parameter; |lambda| must clear sqrt(pi)/2 by a guard band and not exceed 2^500."""

    __slots__ = ("lam",)

    def __init__(self, lam: float):
        if not SQRT_PI / 2 + LAMBDA_GUARD < abs(lam) <= _LAMBDA_MAX:  # nan fails both
            raise ParameterError(f"|lambda| must exceed sqrt(pi)/2 + {LAMBDA_GUARD:g} to keep phi regular and "
                                 f"not exceed 2^500 to keep theta_0's norm normal, got {lam!r}")
        self.lam = lam


class WeightError(Refusal):
    """Inadmissible or inconsistent weight sequence."""


# kind -> the one parameter the rule reads (None: none) and the bound it must meet besides being finite
# ("values" is the custom list, bounded entry by entry); ladder keeps each rule's formula.
WEIGHT_RULES = {"constant": ("w", "> 0"), "distorted": ("w", "> 0"), "linear": (None, ""), "single": ("w", ">= 0"),
                "geometric": ("q", "> 0"), "power": ("nu", "> -1"), "custom": ("values", ">= 0")}


def check_weight_rule(kind: str, param) -> None:
    """WeightError unless kind names a rule and param is the one parameter it reads, finite and in bounds."""
    if kind not in WEIGHT_RULES:
        raise WeightError(f"unknown weight variant {kind!r}")
    name, bound = WEIGHT_RULES[kind]
    if name is None:
        if param is not None:
            raise WeightError(f"{kind} weights take no parameter, got {param!r}")
        return
    values = param if name == "values" else (param,)
    admits = {"> 0": lambda v: v > 0, ">= 0": lambda v: v >= 0, "> -1": lambda v: v > -1}[bound]
    if not values or not all(v is not None and math.isfinite(v) and admits(v) for v in values):
        raise WeightError(f"{kind} weights need finite {name} {bound}, got {param!r}")
