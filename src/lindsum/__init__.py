"""Exact distributions of sums of Lindley-family lifetimes and the
1-out-of-n cold-standby reliability they induce, with built-in cross-checks
against quadrature and Monte Carlo.

The core, numerics, family and sums, which every command and every
distribution uses, is imported with the package; reliability, validation and
cli, and the names of __all__ they hold, on first access, so a command loads
only what it uses.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "AKASH",
    "AlphaKind",
    "CheckResult",
    "DEFAULT_SEEDS",
    "DistSpec",
    "ErlangMixture",
    "FamilyMember",
    "ISHITA",
    "LINDLEY",
    "MEMBERS",
    "PRANAV",
    "QuadratureError",
    "QuadratureResult",
    "RAM_AWADH",
    "RANI",
    "SHANKER",
    "StandbyModel",
    "SumSpec",
    "VerificationReport",
    "VerifyConfig",
    "convolution_oracle_pdf",
    "integrate",
    "lindley_mttf",
    "lindley_reliability",
    "ln_binomial",
    "ln_factorial",
    "logsumexp",
    "member_by_name",
    "sample_sum",
    "verify_all",
    "__version__",
]

# the submodules in dependency order: a name of __all__ is taken from the first
# that defines or imports it, which is its home module, since a module
# re-exports only names of the modules before it.  The first three, the core,
# are imported with the package.
_SUBMODULES = ("numerics", "family", "sums", "reliability", "validation", "cli")
for _core in _SUBMODULES[:3]:
    importlib.import_module(f"{__name__}.{_core}")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name in __all__:
        for sub in _SUBMODULES:
            module = importlib.import_module(f"{__name__}.{sub}")
            if name in vars(module):
                value = globals()[name] = vars(module)[name]
                return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
