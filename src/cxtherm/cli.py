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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import experiments, thermo
from .cxentropy import cx_entropy
from .entropies import hyp_entropy
from .errors import BudgetExceededError, ConfigError
from .gates import GateSet, default_gate_set, parse_gate_set
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

LOG2 = math.log(2.0)

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

_SUBCOMMANDS = {
    "entropy": ["n", "state", "eta", "seed", "output", "units"],
    "cx-entropy": ["n", "state", "gate_set", "connectivity", "r", "eta", "seed",
                   "threads", "output", "units", "reduced"],
    "erasure": ["n", "state", "gate_set", "connectivity", "r", "eta", "seed",
                "threads", "output", "units"],
    "compress": ["n", "state", "gate_set", "connectivity", "r", "epsilon", "seed",
                 "threads", "output", "units"],
    "transition": ["n", "gate_set", "connectivity", "r", "eta", "seed", "samples",
                   "threads", "output", "units", "depths"],
    "entangle": ["n", "seed", "samples", "threads", "output", "units"],
    "quench": ["n", "coupling", "transverse", "times", "seed", "output", "units"],
    "decouple": ["n", "state", "gate_set", "r0", "r1", "k", "eta", "delta", "seed",
                 "threads", "output", "units"],
    "probe-conjecture": ["gate_set", "r", "eta", "seed", "samples", "threads",
                         "output", "units"],
    "selftest": ["seed", "threads", "output"],
}


@dataclass(frozen=True)
class RunConfig:
    subcommand: str
    values: dict

    def __getattr__(self, name):
        try:
            return self.values[name]
        except KeyError:
            raise AttributeError(name) from None

    def as_meta(self) -> dict:
        # threads and output location never change computed values, so the
        # replay hash ignores them
        cfg = {"subcommand": self.subcommand, **self.values}
        cfg.pop("threads", None)
        cfg.pop("output", None)
        return {
            "units": self.values.get("units", "nats"),
            "seed": self.values.get("seed", 0),
            "config_hash": config_hash(cfg),
        }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cxtherm")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, fields in _SUBCOMMANDS.items():
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


def load_config(ns: argparse.Namespace) -> RunConfig:
    fields = _SUBCOMMANDS[ns.subcommand]
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
    return RunConfig(ns.subcommand, values)


# ---------------------------------------------------------------------------
# state loading and matrix files

_STATE_RE = re.compile(r"^([a-z]+)(\d*)$")


def load_state(spec: str, n: int, seed: int) -> DensityOperator:
    """Builtin names (zero, ones, ghz, maxmixed, haar(seed), mixture(eps, seed),
    trailing digits override n) or a matrix file path."""
    spec = spec.strip()
    if spec.startswith("haar"):
        arg = spec[4:].strip("()")
        s = int(arg) if arg else seed
        return sample_pure_state(n, s)
    if spec.startswith("mixture"):
        arg = spec[7:].strip("()")
        parts = [p.strip() for p in arg.split(",")] if arg else []
        eps = float(parts[0]) if parts else 0.1
        s = int(parts[1]) if len(parts) > 1 else seed
        psi = sample_pure_state(n, s)
        mat = (1.0 - eps) * zero_state(n).matrix + eps * psi.matrix
        return DensityOperator(register(n), mat)
    m = _STATE_RE.match(spec)
    if m and m.group(1) in ("zero", "ones", "ghz", "maxmixed", "mixed"):
        name = m.group(1)
        if m.group(2):
            n = int(m.group(2))
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
    if not lines or not lines[0].startswith("dim "):
        raise ConfigError("state file must start with 'dim d'")
    d = int(lines[0].split()[1])
    if len(lines) != 1 + d * d:
        raise ConfigError(f"state file needs {d * d} entry lines, found {len(lines) - 1}")
    vals = []
    for ln in lines[1:]:
        re_s, im_s = ln.split()
        vals.append(complex(float(re_s), float(im_s)))
    mat = np.array(vals, dtype=complex).reshape(d, d)
    n = int(round(math.log2(d)))
    if 2 ** n != d:
        raise ConfigError("state dimension must be a power of two")
    try:
        return DensityOperator(register(n), mat)
    except ValueError as exc:
        raise ConfigError(f"invalid density matrix: {exc}") from exc


def save_state_file(path: str | Path, rho: DensityOperator) -> None:
    lines = [f"dim {rho.dim}"]
    for z in rho.matrix.ravel():
        lines.append("%.17g %.17g" % (z.real, z.imag))
    Path(path).write_text("\n".join(lines) + "\n")


def _gate_set(cfg: RunConfig) -> GateSet:
    if cfg.values.get("gate_set"):
        try:
            return parse_gate_set(Path(cfg.gate_set).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load gate set: {exc}") from exc
    return default_gate_set(cfg.values.get("connectivity", "all-to-all"))


def _unit_factor(units: str) -> float:
    return 1.0 / LOG2 if units == "bits" else 1.0


def _print_and_emit(cfg: RunConfig, rows: list[dict], columns: list[str], default_name: str):
    meta = cfg.as_meta()
    out = cfg.values.get("output")
    if out is None and cfg.subcommand in (
        "transition", "quench", "entangle", "decouple", "probe-conjecture"
    ):
        out = f"{default_name}-{cfg.seed}.csv"
    if out:
        fmt = "json" if str(out).endswith(".json") else "csv"
        emit(rows, columns, meta, out, fmt)
        print(f"wrote {out}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_entropy(cfg: RunConfig) -> int:
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    res = hyp_entropy(rho, cfg.eta)
    scale = _unit_factor(cfg.units)
    print(f"H_hyp = {canonical_value(res.value * scale)} {cfg.units}")
    rows = [{
        "value": res.value * scale,
        "primal": res.primal_value * scale,
        "dual": res.dual_value * scale,
        "eta": cfg.eta,
    }]
    _print_and_emit(cfg, rows, ["value", "primal", "dual", "eta"], "entropy")
    return 0


def _cmd_cx_entropy(cfg: RunConfig) -> int:
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    gs = _gate_set(cfg)
    est = cx_entropy(
        rho, gs, cfg.r, cfg.eta,
        reduced=bool(cfg.values.get("reduced")), threads=cfg.threads,
    )
    scale = _unit_factor(cfg.units)
    print(f"H = {canonical_value(est.value * scale)} {cfg.units} ({est.certainty})")
    rows = [{
        "value": est.value * scale,
        "certainty": est.certainty,
        "r": cfg.r,
        "eta": cfg.eta,
        "reduced": bool(cfg.values.get("reduced")),
    }]
    _print_and_emit(cfg, rows, ["value", "certainty", "r", "eta", "reduced"], "cx-entropy")
    return 0


def _cmd_erasure(cfg: RunConfig) -> int:
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    gs = _gate_set(cfg)
    model = thermo.ThermalModel.degenerate(rho.n)
    res = thermo.erasure_search(rho, model, gs, cfg.r, cfg.eta)
    scale = _unit_factor(cfg.units)
    print(f"beta*W = {canonical_value(res.beta_work * scale)} {cfg.units}")
    rows = [{
        "beta_work": res.beta_work * scale,
        "resets": " ".join(map(str, res.reset_set)),
        "gates": sum(1 for s in res.protocol.steps if isinstance(s, thermo.GateStep)),
        "success_probability": res.success_probability,
        "protocol": thermo.format_protocol(res.protocol).replace("\n", ";"),
    }]
    _print_and_emit(
        cfg, rows, ["beta_work", "resets", "gates", "success_probability", "protocol"], "erasure"
    )
    return 0


def _cmd_compress(cfg: RunConfig) -> int:
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    gs = _gate_set(cfg)
    res = thermo.compression_search(rho, gs, cfg.r, cfg.epsilon)
    print(f"m_opt = {res.m} qubits (success {canonical_value(res.success_probability)})")
    rows = [{
        "m": res.m,
        "kept_qubits": " ".join(map(str, res.kept_qubits)),
        "success_probability": res.success_probability,
    }]
    _print_and_emit(cfg, rows, ["m", "kept_qubits", "success_probability"], "compress")
    return 0


def _cmd_transition(cfg: RunConfig) -> int:
    gs = _gate_set(cfg)
    depths = [int(x) for x in str(cfg.depths).split(",") if x != ""]
    rows_t = experiments.transition_scan(
        cfg.n, depths, cfg.r, cfg.eta, gs, cfg.samples, cfg.seed, threads=cfg.threads
    )
    scale = _unit_factor(cfg.units)
    rows = []
    for row in rows_t:
        rows.append({
            "depth": row.depth,
            "gate_count": row.gate_count,
            "samples": row.samples,
            "zero_certified_fraction": row.zero_certified_fraction,
            "mean_entropy": row.mean_entropy * scale,
            "min_entropy": row.min_entropy * scale,
            "mean_entropy_lower": row.mean_entropy_lower * scale,
            "certainty": row.certainty,
        })
        print(f"depth {row.depth}: certified-zero {row.zero_certified_fraction:.2f}, "
              f"min H {canonical_value(row.min_entropy * scale)} {cfg.units}")
    _print_and_emit(
        cfg, rows,
        ["depth", "gate_count", "samples", "zero_certified_fraction",
         "mean_entropy", "min_entropy", "mean_entropy_lower", "certainty"],
        "transition",
    )
    return 0


def _cmd_entangle(cfg: RunConfig) -> int:
    rep = experiments.continuity_trial(cfg.n, cfg.samples, cfg.seed, threads=cfg.threads)
    scale = _unit_factor(cfg.units)
    print(f"max |dE| = {canonical_value(rep.max_abs_delta * scale)} {cfg.units}; "
          f"violations coarse={rep.coarse_violations} refined={rep.refined_violations}")
    rows = [{
        "trials": rep.trials,
        "max_abs_delta": rep.max_abs_delta * scale,
        "coarse_violations": rep.coarse_violations,
        "refined_violations": rep.refined_violations,
    }]
    _print_and_emit(
        cfg, rows,
        ["trials", "max_abs_delta", "coarse_violations", "refined_violations"],
        "entangle",
    )
    return 0


def _cmd_quench(cfg: RunConfig) -> int:
    start, stop, count = (float(x) for x in str(cfg.times).split(":"))
    times = list(np.linspace(start, stop, int(count)))
    trace = experiments.ising_quench(cfg.n, cfg.coupling, cfg.transverse, times)
    scale = _unit_factor(cfg.units)
    rows = [
        {"t": t, "E": e * scale, "dE_dt": d * scale, "bound": trace.bound * scale}
        for t, e, d in zip(trace.times, trace.values, trace.derivatives)
    ]
    worst = max(trace.derivatives)
    print(f"max dE/dt = {canonical_value(worst * scale)} vs bound "
          f"{canonical_value(trace.bound * scale)} {cfg.units}")
    _print_and_emit(cfg, rows, ["t", "E", "dE_dt", "bound"], "quench")
    return 0


def _cmd_decouple(cfg: RunConfig) -> int:
    gs = _gate_set(cfg)
    n_a = cfg.n - 1  # last qubit is the reference
    rho = load_state(cfg.state, cfg.n, cfg.seed)
    res = experiments.decoupling_simulate(
        rho, n_a, gs, cfg.r0, cfg.r1, cfg.k, cfg.eta, cfg.delta, cfg.seed,
        threads=cfg.threads,
    )
    scale = _unit_factor(cfg.units)
    print(f"success={res.success} D={canonical_value(res.relative_entropy * scale)} "
          f"{cfg.units}; k-bound (conditional on the chain-rule conjecture) = "
          f"{canonical_value(res.bound_k_bits)} qubits")
    rows = [{
        "success": res.success,
        "relative_entropy": res.relative_entropy * scale,
        "threshold": res.threshold * scale,
        "bound_k_bits": res.bound_k_bits,
        "conditional_on_conjecture": res.bound_conditional_on_conjecture,
    }]
    _print_and_emit(
        cfg, rows,
        ["success", "relative_entropy", "threshold", "bound_k_bits",
         "conditional_on_conjecture"],
        "decouple",
    )
    return 0


def _cmd_probe_conjecture(cfg: RunConfig) -> int:
    gs = _gate_set(cfg)
    res = experiments.decoupling_probe(
        (1, 1, 1), gs, cfg.r, cfg.eta, cfg.samples, cfg.seed, threads=cfg.threads
    )
    print(f"min slack = {canonical_value(res.min_slack)} nats over {res.trials} trials")
    rows = [{"trials": res.trials, "min_slack": res.min_slack,
             "violation": res.violation is not None}]
    _print_and_emit(cfg, rows, ["trials", "min_slack", "violation"], "probe-conjecture")
    if res.violation is not None:
        path = f"conjecture-violation-{cfg.seed}.json"
        Path(path).write_text(json.dumps(res.violation, indent=2, sort_keys=True) + "\n")
        print(f"CONJECTURE VIOLATION CANDIDATE serialized to {path}")
        return 4
    return 0


def _cmd_selftest(cfg: RunConfig) -> int:
    report = run_selftest(seed=cfg.seed, threads=cfg.threads)
    text = "\n".join(report) + "\n"
    sys.stdout.write(text)
    if cfg.values.get("output"):
        Path(cfg.output).write_text(text)
    return 0 if all(line.startswith("ok ") for line in report) else 1


_HANDLERS = {
    "entropy": _cmd_entropy,
    "cx-entropy": _cmd_cx_entropy,
    "erasure": _cmd_erasure,
    "compress": _cmd_compress,
    "transition": _cmd_transition,
    "entangle": _cmd_entangle,
    "quench": _cmd_quench,
    "decouple": _cmd_decouple,
    "probe-conjecture": _cmd_probe_conjecture,
    "selftest": _cmd_selftest,
}


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(ns)
        return _HANDLERS[cfg.subcommand](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (AssertionError, ArithmeticError) as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    except (ValueError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
