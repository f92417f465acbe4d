"""Command-line driver: one parser reads a command, a key of COMMANDS, and the flags all commands take.

Configuration comes from the defaults, then an optional flat key = value
config file, then command-line flags (flags win); the _OPTIONS table declares
each option once, its default included.  Each command returns its output's
file name, text and verdict, and main writes it and turns the verdict into the
exit code.  All numeric output is formatted to 17 significant digits so
identical configs produce byte-identical files.
Exit codes: 0 all checks pass, 1 a check failed or a construction was refused,
2 invalid configuration (a non-finite number, an unreadable --config or an unusable --out included), as
params.Refusal.exit_code says.  Each command imports the modules it runs, so `pdo` imports no numpy.
"""

from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from pathlib import Path

from .params import WEIGHT_RULES, IsospectralParams, ParameterError, Refusal, WeightError, check_weight_rule

__all__ = ["RunConfig", "ConfigError", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(Refusal):
    """Invalid run configuration; the message names the violated constraint."""


class RunConfig:
    """The run's settings: each _OPTIONS row's default, overridden per instance by keyword."""

    def __init__(self, **values):
        for _, attr, _, default, _ in _OPTIONS:
            setattr(self, attr, values.pop(attr, default))
        if values:
            raise TypeError(f"RunConfig has no setting {next(iter(values))!r}")

    @property
    def zeta(self) -> complex:
        return complex(self.zeta_re, self.zeta_im)

    def weight_rule(self) -> tuple:
        """The weight rule --weights names and the one parameter it reads."""
        kind = self.weights_kind
        if kind == "linear" and self.nu is not None and self.nu != 1.0:
            kind = "power"  # --weights linear --nu v: w_n = n^v
        return kind, {"w": self.w, "q": self.q, "nu": self.nu, "values": self.custom}.get(WEIGHT_RULES[kind][0])

    def weights(self):
        from .ladder import WeightSequence
        return WeightSequence(*self.weight_rule())

    def validate(self):
        for key, attr, conv, _, flag in _OPTIONS:
            value = getattr(self, attr)
            numbers = value if conv is _floats else (value,) if conv is float else ()
            if not all(v is None or math.isfinite(v) for v in numbers):
                raise ConfigError(f"{key!r} must be finite, got {value!r}")
            choices = (flag or {}).get("choices")
            if choices and value not in choices:
                raise ConfigError(f"{key!r} must be one of {'|'.join(choices)}, got {value!r}")
        if self.trunc < 8:
            raise ConfigError(f"truncation must be >= 8, got {self.trunc}")
        try:
            IsospectralParams(self.lam)
            check_weight_rule(*self.weight_rule())
        except (ParameterError, WeightError) as exc:
            raise ConfigError(str(exc)) from exc


def fmt_float(x) -> str:
    return format(float(x), ".17g")  # nan, inf and -inf as such


def _json_value(v) -> str:
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, complex):
        return '{"re": %s, "im": %s}' % (_json_value(v.real), _json_value(v.imag))
    if isinstance(v, float):
        if math.isfinite(v):
            return fmt_float(v)
        return _json_value(fmt_float(v))  # inf/nan as strings: valid JSON stays valid
    if isinstance(v, dict):
        inner = ", ".join(f"{_json_value(str(k))}: {_json_value(val)}" for k, val in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(item) for item in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def to_json(obj) -> str:
    return _json_value(obj) + "\n"


def to_csv(header, rows: list) -> str:
    lines = [",".join(header)]
    lines += [",".join(fmt_float(v) if isinstance(v, float) else str(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _emit(config: RunConfig, filename: str, text: str):
    if config.out:
        path = Path(config.out)
        path.mkdir(parents=True, exist_ok=True)
        target = path / filename
        target.write_bytes(text.encode("utf-8"))
        print(str(target))
    else:
        sys.stdout.write(text)


def cmd_spectrum(config: RunConfig) -> tuple:
    import numpy as np
    from . import isospectral, report
    from .fock import INTERIOR_MARGIN
    N = config.trunc
    ctx = report._Context(config.lam, N)
    evals = report.h_tilde_eigenvalues(ctx)  # c01's route and bound, over min(40, N - 5) rows
    interior = max(N - INTERIOR_MARGIN, 1)
    count = min(40, interior)
    eye = np.eye(count, interior)
    gram = ctx.theta[:count] @ (ctx.grid.weights[None, :] * ctx.theta).T
    orths = np.max(np.abs(gram[:, :interior] - eye), axis=1)
    u_devs = np.max(np.abs(isospectral.u_matrix(ctx).mat[:count, :interior] - eye), axis=1)
    rows = [[n, float(evals[n]), abs(float(evals[n]) - n), float(orths[n]), float(u_devs[n])]
            for n in range(count)]
    ok = all(deviation < report.SPECTRUM_BOUND and orth < 1e-8 for _, _, deviation, orth, _ in rows)
    columns = ("n", "eigenvalue", "deviation", "orthonormality_residual", "u_row_dev")
    if config.fmt == "csv":
        text = to_csv(columns, rows)
    else:
        text = to_json({"lambda": config.lam, "trunc": N, "rows": [dict(zip(columns, row)) for row in rows],
                        "pass": ok})
    return f"spectrum.{config.fmt}", text, ok


def cmd_commutator(config: RunConfig) -> tuple:
    from . import ladder
    weights = config.weights()
    (_, check, deviation, bound), = ladder.commutator_parts(weights, config.trunc)
    ok = deviation < bound
    text = to_json({"weights": weights.label(), "trunc": config.trunc, "fock": check, "pass": ok})
    return "commutator.json", text, ok


def cmd_coherent(config: RunConfig) -> tuple:
    from . import coherent
    from .fock import FOCK
    weights = config.weights()
    zeta = config.zeta
    rows = [{"N": N, "residual": coherent.cs_residual(weights, zeta, N, FOCK)}
            for N in sorted({48, 64, 96, config.trunc})]
    # as c08, at the N asked for
    ok = next(row for row in rows if row["N"] == config.trunc)["residual"] < coherent.CS_RESIDUAL_BOUND
    text = to_json({
        "weights": weights.label(),
        "zeta": zeta,
        "residual_vs_truncation": rows,
        "pass": ok,
    })
    return "coherent.json", text, ok


def cmd_order(config: RunConfig) -> tuple:
    from . import coherent
    weights = config.weights()
    est = coherent.order_estimate(weights)
    text = to_json({
        "weights": weights.label(),
        "entire": est.entire,
        "rho": est.rho,
        "radius": est.radius,
        "diagnostics": dict(sorted(est.diagnostics.items())),
    })
    return "order.json", text, True


def cmd_pdo(config: RunConfig) -> tuple:
    from . import pdo
    check_weight_rule("distorted", config.w)  # the rule expanded here, whatever --weights names
    w = Fraction(str(config.w))
    rep = pdo.product_identities(w=w)
    low, high = rep["lowering"], rep["raising"]
    checks = pdo.ladder_reference_checks(low, high, w)
    checks.append(("lowering_raising_product_identity", rep["a1_a1dag_ok"]))
    checks.append(("raising_lowering_product_identity", rep["a1dag_a1_ok"]))
    prefactor, bracket, inverse = pdo.inv_sqrt_one_plus_h()
    checks += pdo.inv_sqrt_bracket_checks(bracket, inverse)
    ok = all(flag for _, flag in checks)
    text = to_json({
        "w": config.w,
        "checks": [{"name": name, "verdict": "PASS" if flag else "FAIL"} for name, flag in checks],
        "prefactor": prefactor.render(),
        "lowering_series": low.render().split("\n"),
        "raising_series": high.render().split("\n"),
        "pass": ok,
    })
    return "pdo.json", text, ok


def cmd_report(config: RunConfig) -> tuple:
    from . import report
    results = report.run_all(lam=config.lam, trunc=config.trunc)
    # wall-clock times stay out of the document: identical configs must produce byte-identical bytes
    entries = [{"name": r.name, "measured": r.measured, "threshold": r.threshold, "pass": r.passed,
                "parts": [{"name": label, "measured": value, "threshold": tol, "pass": ok}
                          for label, value, tol, ok in r.parts]}
               for r in results]
    all_pass = all(r.passed for r in results)
    text = to_json({
        "lambda": config.lam,
        "trunc": config.trunc,
        "criteria": entries,
        "all_pass": all_pass,
    })
    return "report.json", text, all_pass


COMMANDS = {
    "spectrum": cmd_spectrum,
    "commutator": cmd_commutator,
    "coherent": cmd_coherent,
    "order": cmd_order,
    "pdo": cmd_pdo,
    "report": cmd_report,
}


def read_config_file(path: str) -> dict:
    values = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _floats(text: str) -> tuple:
    return tuple(float(v) for v in text.split(","))


# One row per option: its config-file key, its RunConfig attribute, the converter of a file value, its
# default, and the argparse keywords of its flag, `--` + key with `-` for `_` (None: the option is set
# only in the config file).  --weights offers every rule but power, which --weights linear --nu selects.
_OPTIONS = (
    ("lambda", "lam", float, 2.0, {"help": "family parameter (default 2)"}),
    ("trunc", "trunc", int, 64, {"help": "truncation size N (default 64)"}),
    ("weights", "weights_kind", str, "distorted", {"choices": [k for k in WEIGHT_RULES if k != "power"]}),
    ("w", "w", float, 1.0, {"help": "weight parameter w"}),
    ("q", "q", float, 0.5, {"help": "deformation parameter q"}),
    ("nu", "nu", float, None, {"help": "power-law exponent for --weights linear"}),
    ("zeta_re", "zeta_re", float, 1.0, {}),
    ("zeta_im", "zeta_im", float, 0.5, {}),
    ("out", "out", str, None, {"help": "output directory (default: stdout)"}),
    ("format", "fmt", str, "json", {"choices": ["csv", "json"]}),
    ("custom", "custom", _floats, (), None),
)


def build_config(args) -> RunConfig:
    config = RunConfig()
    rows = {key: (attr, conv) for key, attr, conv, _, _ in _OPTIONS}
    for key, value in (read_config_file(args.config) if args.config else {}).items():
        if key not in rows:
            raise ConfigError(f"unknown config key {key!r}")
        attr, conv = rows[key]
        try:
            setattr(config, attr, conv(value))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    for _, attr, _, _, flag in _OPTIONS:
        if flag is not None and getattr(args, attr) is not None:
            setattr(config, attr, getattr(args, attr))
    config.validate()
    return config


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="isoladder", description="isospectral-oscillator ladder toolkit")
    parser.add_argument("command", choices=COMMANDS, help="report runs the battery; the others one of its checks")
    for key, attr, conv, _, flag in _OPTIONS:
        if flag is not None:
            parser.add_argument("--" + key.replace("_", "-"), dest=attr, type=conv, default=None, **flag)
    parser.add_argument("--config", default=None, help="flat key = value config file")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        config = build_config(args)
        filename, text, ok = COMMANDS[args.command](config)
        _emit(config, filename, text)
        return EXIT_OK if ok else EXIT_CHECK_FAILED
    except (Refusal, OSError) as exc:  # OSError: an unreadable --config or an unusable --out
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code if isinstance(exc, Refusal) else EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
