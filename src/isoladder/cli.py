"""Command-line driver: spectrum/commutator/coherent/order/pdo/report.

Configuration comes from the RunConfig defaults, then an optional flat
key = value config file, then command-line flags (flags win); the _OPTIONS
table declares each option once.  All numeric output is formatted to 17
significant digits so identical configs produce byte-identical files.
Exit codes: 0 all checks pass, 1 a check failed or a construction was refused,
2 invalid configuration (a non-finite number included).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import coherent, isospectral, ladder, pdo, report
from .fock import FOCK, INTERIOR_MARGIN, hermitian_eigensystem

__all__ = ["RunConfig", "ConfigError", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2


class ConfigError(ValueError):
    """Invalid run configuration; the message names the violated constraint."""


@dataclass
class RunConfig:
    lam: float = 2.0
    trunc: int = 64
    weights_kind: str = "distorted"
    w: float = 1.0
    q: float = 0.5
    nu: float | None = None
    zeta_re: float = 1.0
    zeta_im: float = 0.5
    out: str | None = None
    fmt: str = "json"
    custom: tuple = ()

    @property
    def zeta(self) -> complex:
        return complex(self.zeta_re, self.zeta_im)

    def weights(self) -> ladder.WeightSequence:
        kind = self.weights_kind
        if kind == "linear" and self.nu is not None and self.nu != 1.0:
            kind = "power"  # --weights linear --nu v: w_n = n^v
        try:
            return ladder.weight_rule(kind, w=self.w, q=self.q, nu=self.nu, values=self.custom)
        except ladder.WeightError as exc:
            raise ConfigError(str(exc)) from exc

    def validate(self):
        for key, attr, conv, flag in _OPTIONS:
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
            isospectral.IsospectralParams(self.lam)
        except isospectral.ParameterError as exc:
            raise ConfigError(str(exc)) from exc
        self.weights()


def fmt_float(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


def _json_value(v) -> str:
    if isinstance(v, str):
        return '"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, complex):
        return '{"re": %s, "im": %s}' % (_json_value(v.real), _json_value(v.imag))
    if isinstance(v, (float, np.floating)):
        if math.isfinite(v):
            return fmt_float(v)
        return _json_value(fmt_float(v))  # inf/nan as strings: valid JSON stays valid
    if isinstance(v, dict):
        inner = ", ".join(f"{_json_value(str(k))}: {_json_value(val)}" for k, val in v.items())
        return "{" + inner + "}"
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(item) for item in v) + "]"
    raise TypeError(f"cannot serialize {type(v)}")


def to_json(obj) -> str:
    return _json_value(obj) + "\n"


def to_csv(header: list, rows: list) -> str:
    def cell(v):
        if isinstance(v, (float, np.floating)):
            return fmt_float(v)
        return str(v)

    lines = [",".join(header)]
    lines += [",".join(cell(v) for v in row) for row in rows]
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


def cmd_spectrum(config: RunConfig) -> int:
    N = config.trunc
    ctx = report._Context(config.lam, N)
    evals, _ = hermitian_eigensystem(isospectral.h_tilde_matrix(ctx))
    interior = max(N - INTERIOR_MARGIN, 1)
    count = min(40, interior)
    eye = np.eye(count, interior)
    gram = ctx.theta[:count] @ (ctx.grid.weights[None, :] * ctx.theta).T
    orths = np.max(np.abs(gram[:, :interior] - eye), axis=1)
    u_devs = np.max(np.abs(isospectral.u_matrix(ctx).mat[:count, :interior] - eye), axis=1)
    rows = [[n, float(evals[n]), abs(float(evals[n]) - n), float(orths[n]), float(u_devs[n])]
            for n in range(count)]
    ok = all(deviation < 1e-6 and orth < 1e-8 for _, _, deviation, orth, _ in rows)
    if config.fmt == "csv":
        text = to_csv(["n", "eigenvalue", "deviation", "orthonormality_residual", "u_row_dev"], rows)
    else:
        text = to_json({
            "lambda": config.lam,
            "trunc": N,
            "rows": [
                {"n": r[0], "eigenvalue": r[1], "deviation": r[2],
                 "orthonormality_residual": r[3], "u_row_dev": r[4]}
                for r in rows
            ],
            "pass": ok,
        })
    _emit(config, f"spectrum.{config.fmt}", text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_commutator(config: RunConfig) -> int:
    N = config.trunc
    weights = config.weights()
    ctx = report._Context(config.lam, N)
    fock_part, theta_part = ladder.commutator_parts(weights, N, isospectral.u_matrix(ctx), ctx.tag)
    ok = all(deviation < bound for _, _, deviation, bound in (fock_part, theta_part))
    text = to_json({
        "weights": weights.label(),
        "lambda": config.lam,
        "trunc": N,
        "fock": fock_part[1],
        "theta": theta_part[1],
        "pass": ok,
    })
    _emit(config, "commutator.json", text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_coherent(config: RunConfig) -> int:
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
    _emit(config, "coherent.json", text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_order(config: RunConfig) -> int:
    weights = config.weights()
    est = coherent.order_estimate(weights)
    text = to_json({
        "weights": weights.label(),
        "entire": est.entire,
        "rho": est.rho if est.rho is not None else None,
        "radius": est.radius,
        "diagnostics": {k: v for k, v in sorted(est.diagnostics.items())},
    })
    _emit(config, "order.json", text)
    return EXIT_OK


def cmd_pdo(config: RunConfig) -> int:
    ladder.distorted_weights(config.w)  # the rule expanded here, whatever --weights names
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
    _emit(config, "pdo.json", text)
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_report(config: RunConfig) -> int:
    results = report.run_all(lam=config.lam, trunc=config.trunc)
    entries = []
    for r in results:
        # wall-clock times stay out of the document: identical configs must
        # produce byte-identical bytes
        entries.append({
            "name": r.name,
            "measured": r.measured,
            "threshold": r.threshold,
            "pass": r.passed,
            "parts": [
                {"name": label, "measured": value, "threshold": tol, "pass": ok}
                for label, value, tol, ok in r.parts
            ],
        })
    all_pass = all(r.passed for r in results)
    text = to_json({
        "lambda": config.lam,
        "trunc": config.trunc,
        "criteria": entries,
        "all_pass": all_pass,
    })
    _emit(config, "report.json", text)
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


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


# One row per option: its config-file key, its RunConfig attribute, the converter
# of a file value, and the argparse keywords of its flag, `--` + key with `-` for
# `_` (None: the option is set only in the config file).
_OPTIONS = (
    ("lambda", "lam", float, {"help": "family parameter (default 2)"}),
    ("trunc", "trunc", int, {"help": "truncation size N (default 64)"}),
    ("weights", "weights_kind", str,
     {"choices": ["constant", "distorted", "linear", "single", "geometric", "custom"]}),
    ("w", "w", float, {"help": "weight parameter w"}),
    ("q", "q", float, {"help": "deformation parameter q"}),
    ("nu", "nu", float, {"help": "power-law exponent for --weights linear"}),
    ("zeta_re", "zeta_re", float, {}),
    ("zeta_im", "zeta_im", float, {}),
    ("out", "out", str, {"help": "output directory (default: stdout)"}),
    ("format", "fmt", str, {"choices": ["csv", "json"]}),
    ("custom", "custom", _floats, None),
)


def build_config(args) -> RunConfig:
    config = RunConfig()
    rows = {key: (attr, conv) for key, attr, conv, _ in _OPTIONS}
    for key, value in (read_config_file(args.config) if args.config else {}).items():
        if key not in rows:
            raise ConfigError(f"unknown config key {key!r}")
        attr, conv = rows[key]
        try:
            setattr(config, attr, conv(value))
        except ValueError as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from exc
    for _, attr, _, flag in _OPTIONS:
        if flag is not None and getattr(args, attr) is not None:
            setattr(config, attr, getattr(args, attr))
    config.validate()
    return config


def make_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for key, attr, conv, flag in _OPTIONS:
        if flag is not None:
            common.add_argument("--" + key.replace("_", "-"), dest=attr, type=conv, default=None, **flag)
    common.add_argument("--config", default=None, help="flat key = value config file")

    parser = argparse.ArgumentParser(prog="isoladder",
                                     description="isospectral-oscillator ladder toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("spectrum", parents=[common], help="theta spectrum and orthonormality report")
    sub.add_parser("commutator", parents=[common], help="ladder commutator diagnostics")
    sub.add_parser("coherent", parents=[common], help="coherent-state eigen-residual vs truncation")
    sub.add_parser("order", parents=[common], help="entire-function order / radius estimate")
    sub.add_parser("pdo", parents=[common], help="pseudo-differential golden identities")
    sub.add_parser("report", parents=[common], help="full acceptance battery")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    try:
        return COMMANDS[args.command](config)
    except (ConfigError, isospectral.ParameterError, ladder.WeightError, coherent.DivergenceError,
            coherent.TruncationError, coherent.WeightSequenceTooShort, isospectral.ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)  # a refused U fails the check, as in the report
        return EXIT_CHECK_FAILED if isinstance(exc, isospectral.ConstructionError) else EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
