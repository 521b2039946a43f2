"""Batch front end: subcommands binding entropy computations and experiment
drivers to config files, seeds, and CSV/JSON outputs.

Exit codes: 0 success, 2 config error, 3 enumeration budget exceeded,
4 conjecture-violation finding, 5 internal error (a witness or certificate
failed re-verification, or a numerical failure).
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import experiments, thermo
from .cxentropy import cx_entropy
from .entropies import LOG2, hyp_entropy
from .errors import BudgetExceededError, ConfigError
from .gates import GateSet, default_gate_set, format_matrix, parse_gate_set, parse_matrix
from .registers import (
    DensityOperator,
    ghz_state,
    maximally_mixed,
    ones_state,
    register,
    zero_state,
)
from .reporting import canonical_value, config_hash, emit
from .sampling import sample_pure_state
from .selftest import run_selftest

_COMMON = {
    "n": (int, 3, "number of qubits"),
    "state": (str, "maxmixed", "builtin state spec or a matrix file path"),
    "gate_set": (str, None, "gate-set file (default: builtin finite set)"),
    "connectivity": (str, "all-to-all", "all-to-all or chain"),
    "r": (int, 1, "complexity budget"),
    "eta": (float, 0.999, "acceptance probability constraint"),
    "delta": (float, 0.25, "type-II error tolerance"),
    "epsilon": (float, 0.01, "compression error tolerance"),
    "seed": (int, 0, "master seed"),
    "samples": (int, 20, "number of samples/trials"),
    "threads": (int, 1, "worker threads for sampled trials and continuous-gate "
                        "restarts; exact queries run in one thread"),
    "output": (str, None, "output file (.csv or .json)"),
    "units": (str, "nats", "nats or bits"),
    "reduced": (bool, False, "use the reduced (unnormalized) variant"),
    "depths": (str, "0,1,2,25,50", "comma-separated circuit depths"),
    "times": (str, "0:3:31", "time grid start:stop:count"),
    "coupling": (float, 1.0, "Ising ZZ coupling"),
    "transverse": (float, 1.0, "Ising transverse field"),
    "k": (int, 0, "qubits Alice discards"),
    "r0": (int, 1, "Alice's gate budget"),
    "r1": (int, 2, "referee's gate budget"),
}


def _meta(cfg: argparse.Namespace) -> dict:
    # threads and output location never change computed values, so the
    # replay hash ignores them
    values = {k: v for k, v in vars(cfg).items() if k not in ("threads", "output")}
    return {"units": getattr(cfg, "units", "nats"), "seed": cfg.seed, "config_hash": config_hash(values)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cxtherm")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, fields) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None, help="JSON config file; flags win")
        for f in fields:
            typ, _, help_text = _COMMON[f]
            flag = "--" + f.replace("_", "-")
            if typ is bool:
                p.add_argument(flag, action="store_const", const=True, default=None,
                               dest=f, help=help_text)
            else:
                p.add_argument(flag, type=typ, default=None, dest=f, help=help_text)
    return parser


def load_config(ns: argparse.Namespace) -> argparse.Namespace:
    _, fields = _SUBCOMMANDS[ns.subcommand]
    file_values = {}
    if ns.config is not None:
        try:
            file_values = json.loads(Path(ns.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        unknown = set(file_values) - set(fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    values = {}
    for f in fields:
        typ, default, _ = _COMMON[f]
        flag_val = getattr(ns, f)
        if flag_val is not None:
            values[f] = flag_val
        elif f in file_values:
            try:
                values[f] = typ(file_values[f])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad config value for {f}: {exc}") from exc
        else:
            values[f] = default
    if values.get("units") not in (None, "nats", "bits"):
        raise ConfigError("units must be 'nats' or 'bits'")
    return argparse.Namespace(subcommand=ns.subcommand, **values)


# ---------------------------------------------------------------------------
# state loading and matrix files

# name, trailing digits (n), and the argument list of haar(...) and mixture(...)
_STATE_RE = re.compile(r"^([a-z]+)(\d*)(?:\((.*)\))?$")


def load_state(spec: str, n: int, seed: int) -> DensityOperator:
    """Builtin names (zero, ones, ghz, maxmixed, haar(seed), mixture(eps, seed),
    trailing digits override n, e.g. ghz4 or haar4(5)) or a matrix file path."""
    spec = spec.strip()
    m = _STATE_RE.match(spec)
    name, digits, args = m.groups() if m else (None, "", None)
    if digits:
        n = int(digits)
    if name == "haar":
        try:
            s = int(args) if args else seed
        except ValueError:
            raise ConfigError(f"state spec {spec!r}: haar takes one integer seed") from None
        return sample_pure_state(n, s)
    if name == "mixture":
        parts = [p.strip() for p in args.split(",")] if args else []
        usage = f"state spec {spec!r}: mixture takes a float eps and an integer seed"
        if len(parts) > 2:
            raise ConfigError(usage)
        try:
            eps = float(parts[0]) if parts else 0.1
            s = int(parts[1]) if len(parts) > 1 else seed
        except ValueError:
            raise ConfigError(usage) from None
        if not 0.0 <= eps <= 1.0:
            raise ConfigError(f"state spec {spec!r}: mixture eps must lie in [0, 1]")
        psi = sample_pure_state(n, s)
        mat = (1.0 - eps) * zero_state(n).matrix + eps * psi.matrix
        return DensityOperator(register(n), mat)
    if args is None and name in ("zero", "ones", "ghz", "maxmixed", "mixed"):
        builders = {
            "zero": zero_state,
            "ones": ones_state,
            "ghz": ghz_state,
            "maxmixed": maximally_mixed,
            "mixed": maximally_mixed,
        }
        return builders[name](n)
    path = Path(spec)
    if path.exists():
        return load_state_file(path)
    raise ConfigError(f"unknown state spec {spec!r}")


def load_state_file(path: str | Path) -> DensityOperator:
    lines = [ln.strip() for ln in Path(path).read_text().splitlines() if ln.strip()]
    head = lines[0].split() if lines else []
    if len(head) != 2 or head[0] != "dim" or not head[1].removeprefix("-").isdecimal():
        raise ConfigError(f"state file {path}: must start with 'dim d', got {' '.join(head)!r}")
    d = int(head[1])
    if d < 1 or d & (d - 1):
        raise ConfigError(f"state file {path}: dim {d} is not a power of two")
    if len(lines) != 1 + d * d:
        raise ConfigError(f"state file {path}: dim {d} needs {d * d} entry lines, found {len(lines) - 1}")
    try:
        mat = parse_matrix(lines[1:], d)
    except ValueError as exc:
        raise ConfigError(f"state file {path}: {exc}") from None
    try:
        return DensityOperator(register(d.bit_length() - 1), mat)
    except ValueError as exc:
        raise ConfigError(f"state file {path}: invalid density matrix: {exc}") from exc


def save_state_file(path: str | Path, rho: DensityOperator) -> None:
    lines = [f"dim {rho.dim}", *format_matrix(rho.matrix)]
    Path(path).write_text("\n".join(lines) + "\n")


def _gate_set(cfg: argparse.Namespace) -> GateSet:
    if cfg.gate_set:
        try:
            return parse_gate_set(Path(cfg.gate_set).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load gate set: {exc}") from exc
    return default_gate_set(getattr(cfg, "connectivity", "all-to-all"))


# entropy and work columns: handlers build rows in nats, `_in_units` converts
_NAT_COLUMNS = frozenset({
    "value", "primal", "dual", "beta_work", "mean_entropy", "min_entropy",
    "mean_entropy_lower", "max_abs_delta", "E", "dE_dt", "bound",
    "relative_entropy", "threshold", "min_slack",
})


def _in_units(cfg: argparse.Namespace, rows: list[dict]) -> list[dict]:
    if cfg.units != "bits":
        return rows
    scale = 1.0 / LOG2
    return [{k: v * scale if k in _NAT_COLUMNS else v for k, v in row.items()} for row in rows]


def _emit(cfg: argparse.Namespace, rows: list[dict]) -> None:
    """Write the table to --output; experiments default to <subcommand>-<seed>.csv."""
    out = cfg.output
    if out is None and cfg.subcommand in (
        "transition", "quench", "entangle", "decouple", "probe-conjecture"
    ):
        out = f"{cfg.subcommand}-{cfg.seed}.csv"
    if out:
        emit(rows, _meta(cfg), out)
        print(f"wrote {out}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_entropy(cfg: argparse.Namespace) -> int:
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    res = hyp_entropy(rho, cfg.eta)
    [row] = _in_units(cfg, [{
        "value": res.value, "primal": res.primal_value, "dual": res.dual_value, "eta": cfg.eta,
    }])
    print(f"H_hyp = {canonical_value(row['value'])} {cfg.units}")
    _emit(cfg, [row])
    return 0


def _cmd_cx_entropy(cfg: argparse.Namespace) -> int:
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    est = cx_entropy(rho, _gate_set(cfg), cfg.r, cfg.eta, reduced=cfg.reduced, threads=cfg.threads)
    [row] = _in_units(cfg, [{
        "value": est.value, "certainty": est.certainty, "r": cfg.r, "eta": cfg.eta,
        "reduced": cfg.reduced,
    }])
    print(f"H = {canonical_value(row['value'])} {cfg.units} ({est.certainty})")
    _emit(cfg, [row])
    return 0


def _cmd_erasure(cfg: argparse.Namespace) -> int:
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    model = thermo.ThermalModel.degenerate(rho.n)
    res = thermo.erasure_search(rho, model, _gate_set(cfg), cfg.r, cfg.eta)
    [row] = _in_units(cfg, [{
        "beta_work": res.beta_work,
        "resets": " ".join(map(str, res.reset_set)),
        "gates": sum(1 for s in res.protocol.steps if isinstance(s, thermo.GateStep)),
        "success_probability": res.success_probability,
        "protocol": thermo.format_protocol(res.protocol).replace("\n", ";"),
    }])
    print(f"beta*W = {canonical_value(row['beta_work'])} {cfg.units}")
    _emit(cfg, [row])
    return 0


def _cmd_compress(cfg: argparse.Namespace) -> int:
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    res = thermo.compression_search(rho, _gate_set(cfg), cfg.r, cfg.epsilon)
    print(f"m_opt = {res.m} qubits (success {canonical_value(res.success_probability)})")
    _emit(cfg, [{
        "m": res.m,
        "kept_qubits": " ".join(map(str, res.kept_qubits)),
        "success_probability": res.success_probability,
    }])
    return 0


def _cmd_transition(cfg: argparse.Namespace) -> int:
    gs = _gate_set(cfg)
    depths = [int(x) for x in str(cfg.depths).split(",") if x != ""]
    scan = experiments.transition_scan(
        cfg.n, depths, cfg.r, cfg.eta, gs, cfg.samples, cfg.seed, threads=cfg.threads
    )
    rows = _in_units(cfg, [asdict(row) for row in scan])
    for row in rows:
        print(f"depth {row['depth']}: certified-zero {row['zero_certified_fraction']:.2f}, "
              f"min H {canonical_value(row['min_entropy'])} {cfg.units}")
    _emit(cfg, rows)
    return 0


def _cmd_entangle(cfg: argparse.Namespace) -> int:
    rep = experiments.continuity_trial(cfg.n, cfg.samples, cfg.seed, threads=cfg.threads)
    [row] = _in_units(cfg, [asdict(rep)])
    print(f"max |dE| = {canonical_value(row['max_abs_delta'])} {cfg.units}; "
          f"violations coarse={rep.coarse_violations} refined={rep.refined_violations}")
    _emit(cfg, [row])
    return 0


def _cmd_quench(cfg: argparse.Namespace) -> int:
    usage = f"--times must be start:stop:count, finite numbers and an integer count >= 0, got {cfg.times!r}"
    try:
        start, stop, count = str(cfg.times).split(":")
        start, stop, count = float(start), float(stop), int(count)
    except ValueError:
        raise ConfigError(usage) from None
    if count < 0 or not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError(usage)
    times = list(np.linspace(start, stop, count))
    trace = experiments.ising_quench(cfg.n, cfg.coupling, cfg.transverse, times)
    rows = _in_units(cfg, [
        {"t": t, "E": e, "dE_dt": d, "bound": trace.bound}
        for t, e, d in zip(trace.times, trace.values, trace.derivatives)
    ])
    worst = max(row["dE_dt"] for row in rows)
    print(f"max dE/dt = {canonical_value(worst)} vs bound "
          f"{canonical_value(rows[0]['bound'])} {cfg.units}")
    _emit(cfg, rows)
    return 0


def _cmd_decouple(cfg: argparse.Namespace) -> int:
    gs = _gate_set(cfg)
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    # the last qubit of the loaded state is the reference
    res = experiments.decoupling_simulate(
        rho, rho.n - 1, gs, cfg.r0, cfg.r1, cfg.k, cfg.eta, cfg.delta, cfg.seed,
        threads=cfg.threads,
    )
    [row] = _in_units(cfg, [{
        "success": res.success,
        "relative_entropy": res.relative_entropy,
        "threshold": res.threshold,
        "bound_k_bits": res.bound_k_bits,
        "conditional_on_conjecture": res.bound_conditional_on_conjecture,
    }])
    print(f"success={res.success} D={canonical_value(row['relative_entropy'])} "
          f"{cfg.units}; k-bound (conditional on the chain-rule conjecture) = "
          f"{canonical_value(res.bound_k_bits)} qubits")
    _emit(cfg, [row])
    return 0


def _cmd_probe_conjecture(cfg: argparse.Namespace) -> int:
    res = experiments.decoupling_probe(
        (1, 1, 1), _gate_set(cfg), cfg.r, cfg.eta, cfg.samples, cfg.seed, threads=cfg.threads
    )
    [row] = _in_units(cfg, [{"trials": res.trials, "min_slack": res.min_slack,
                             "violation": res.violation is not None}])
    print(f"min slack = {canonical_value(row['min_slack'])} {cfg.units} over {res.trials} trials")
    _emit(cfg, [row])
    if res.violation is not None:
        path = f"conjecture-violation-{cfg.seed}.json"
        Path(path).write_text(json.dumps(res.violation, indent=2, sort_keys=True) + "\n")
        print(f"CONJECTURE VIOLATION CANDIDATE serialized to {path}")
        return 4
    return 0


def _cmd_selftest(cfg: argparse.Namespace) -> int:
    report = run_selftest(seed=cfg.seed, threads=cfg.threads)
    text = "\n".join(report) + "\n"
    sys.stdout.write(text)
    if cfg.output:
        Path(cfg.output).write_text(text)
    return 0 if all(line.startswith("ok ") for line in report) else 1


# each subcommand's handler and the fields it reads
_SUBCOMMANDS = {
    "entropy": (_cmd_entropy, ["n", "state", "eta", "seed", "output", "units"]),
    "cx-entropy": (_cmd_cx_entropy, ["n", "state", "gate_set", "connectivity", "r", "eta", "seed",
                                     "threads", "output", "units", "reduced"]),
    "erasure": (_cmd_erasure, ["n", "state", "gate_set", "connectivity", "r", "eta", "seed",
                               "threads", "output", "units"]),
    "compress": (_cmd_compress, ["n", "state", "gate_set", "connectivity", "r", "epsilon", "seed",
                                 "threads", "output", "units"]),
    "transition": (_cmd_transition, ["n", "gate_set", "connectivity", "r", "eta", "seed", "samples",
                                     "threads", "output", "units", "depths"]),
    "entangle": (_cmd_entangle, ["n", "seed", "samples", "threads", "output", "units"]),
    "quench": (_cmd_quench, ["n", "coupling", "transverse", "times", "seed", "output", "units"]),
    "decouple": (_cmd_decouple, ["n", "state", "gate_set", "r0", "r1", "k", "eta", "delta", "seed",
                                 "threads", "output", "units"]),
    "probe-conjecture": (_cmd_probe_conjecture, ["gate_set", "r", "eta", "seed", "samples", "threads",
                                                 "output", "units"]),
    "selftest": (_cmd_selftest, ["seed", "threads", "output"]),
}


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(ns)
        return _SUBCOMMANDS[cfg.subcommand][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
