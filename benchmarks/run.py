"""cxtherm benchmark: four workloads, every output checked, one JSON line out.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload exact_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats whole rounds of the workload's operations for
``--seconds`` and reports the end-to-end metrics.  ``--trace 1`` runs one
warm-up round, then each operation of a round untraced and again with spans
around cxtherm's layers, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; a result file with the
machine facts goes to ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

now = time.perf_counter

ROOT = Path(__file__).resolve().parent.parent
RESULTS = ROOT / "benchmarks" / "results"
SETUP_SAMPLES = 5

END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("op_p50_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# name, unit, better.  "<span>.calls"/".s" count and time the spans and hot
# calls the tracer records; "<layer>.self_s" is the layer's self time.
PER_LAYER = [
    ("search.minimize_over_effects.calls", "count", "lower"),
    ("search.minimize_over_effects.s", "s", "lower"),
    ("search.candidates", "count", "lower"),
    ("search.candidates_per_s", "1/s", "higher"),
    ("search.expanded_share", "share", "lower"),
    ("search.score_fn.calls", "count", "lower"),
    ("search.score_fn.s", "s", "lower"),
    ("gates.apply.calls", "count", "lower"),
    ("gates.apply.s", "s", "lower"),
    ("gates.placed_alphabet.calls", "count", "lower"),
    ("gates.placed_alphabet.s", "s", "lower"),
    ("gates.expand_operator.calls", "count", "lower"),
    ("gates.expand_operator.s", "s", "lower"),
    ("registers.operator_init.calls", "count", "lower"),
    ("registers.operator_init.s", "s", "lower"),
    ("registers.partial_trace.calls", "count", "lower"),
    ("registers.partial_trace.s", "s", "lower"),
    ("entropies.von_neumann.calls", "count", "lower"),
    ("entropies.von_neumann.s", "s", "lower"),
    ("entropies.hyp_relative_entropy.calls", "count", "lower"),
    ("entropies.hyp_relative_entropy.s", "s", "lower"),
    ("cxentropy.cx_relative_entropy.calls", "count", "lower"),
    ("cxentropy.cx_relative_entropy.s", "s", "lower"),
    ("thermo.erasure_search.s", "s", "lower"),
    ("thermo.compression_search.s", "s", "lower"),
    ("thermo.run_protocol.calls", "count", "lower"),
    ("thermo.run_protocol.s", "s", "lower"),
    ("experiments.ising_quench.s", "s", "lower"),
    ("experiments.transition_scan.s", "s", "lower"),
    ("experiments.continuity_trial.s", "s", "lower"),
    ("heuristic.heuristic_search.calls", "count", "lower"),
    ("heuristic.heuristic_search.s", "s", "lower"),
    ("heuristic.gate_exponentials", "count", "lower"),
    ("heuristic.optimizer_iterations", "count", "lower"),
    ("heuristic.objective_evals", "count", "lower"),
    ("parallel.deterministic_map.calls", "count", "lower"),
    ("parallel.deterministic_map.s", "s", "lower"),
    ("cli.dispatch.s", "s", "lower"),
    ("op.self_s", "s", "lower"),
    ("search.self_s", "s", "lower"),
    ("gates.self_s", "s", "lower"),
    ("registers.self_s", "s", "lower"),
    ("entropies.self_s", "s", "lower"),
    ("cxentropy.self_s", "s", "lower"),
    ("thermo.self_s", "s", "lower"),
    ("experiments.self_s", "s", "lower"),
    ("heuristic.self_s", "s", "lower"),
    ("parallel.self_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_share", "share", "lower"),
    ("trace.spans", "count", "lower"),
]


# ---------------------------------------------------------------------------
# machine facts


def _blas_threads():
    """OpenBLAS's thread count, asked from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def _caches():
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        out[f"L{level} {kind}"] = size
    return out


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha1()
    for path in sorted((ROOT / "src" / "cxtherm").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
        "source_sha1": src.hexdigest(),
    }


# ---------------------------------------------------------------------------
# running operations


class Tally:
    def __init__(self):
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.failures: list[str] = []

    def _fail(self, op, kind, exc):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{op.name} [{op.key}] {kind}: {exc!r}")

    def run_op(self, op, tracer=None, op_id=None):
        span = None
        if tracer is not None:
            tracer.op_id = op_id
            span = tracer.open(f"op.{op.name}", "op")
            tracer.current_op_span = span
        self.attempted += 1
        t0 = now()
        try:
            result = op.run()
        except Exception as exc:  # the program failed: count it, keep going
            self.times.append(now() - t0)
            if span is not None:
                tracer.close(span)
            self._fail(op, "raised", exc)
            traceback.print_exc(file=sys.stderr)
            return
        self.times.append(now() - t0)
        if span is not None:
            tracer.close(span)
        try:
            op.check(result)
        except Exception as exc:  # a wrong value counts as a failed operation
            self.wrong += 1
            self._fail(op, "wrong", exc)


def setup_seconds(name: str, seed: int, env: dict) -> list[float]:
    samples = []
    for _ in range(SETUP_SAMPLES):
        if name == "cold_query":
            t0 = now()
            proc = subprocess.run([sys.executable, "-m", "cxtherm", "entropy", "--n", "1", "--state", "zero"],
                                  env=env, cwd=RESULTS, capture_output=True, text=True, timeout=120)
            elapsed = now() - t0
            if proc.returncode != 0 or "H_hyp = 0.0 nats" not in proc.stdout:
                raise RuntimeError(f"trivial CLI query failed: {proc.stderr.strip()[-300:]}")
        else:
            proc = subprocess.run([sys.executable, str(ROOT / "benchmarks" / "setup_probe.py"), name, str(seed)],
                                  env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-300:]}")
            elapsed = float(proc.stdout.strip().splitlines()[-1])
        samples.append(elapsed)
    return samples


def peak_rss_mb(name: str) -> float:
    who = resource.RUSAGE_CHILDREN if name == "cold_query" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB on Linux


def per_layer_metrics(tracer_mod, tr, untraced_s: float, traced_s: float) -> dict:
    red = tracer_mod.reduce_spans(tr)
    calls, total, self_time = red["calls"], red["total"], red["self"]
    values = {}
    for name, unit, _ in PER_LAYER:
        if name.endswith(".calls"):
            values[name] = calls.get(name[: -len(".calls")], 0)
        elif name.endswith(".self_s"):
            values[name] = self_time.get(name[: -len(".self_s")], 0.0)
        elif name.endswith(".s"):
            values[name] = total.get(name[: -len(".s")], 0.0)
    candidates = calls.get("search.score_fn", 0)
    search_s = total.get("search.minimize_over_effects", 0.0)
    circuits = tr.counters.get("search.circuit_count", 0)
    values["search.candidates"] = candidates
    values["search.candidates_per_s"] = candidates / search_s if search_s else 0.0
    values["search.expanded_share"] = candidates / circuits if circuits else 0.0
    values["heuristic.gate_exponentials"] = calls.get("heuristic.gate_exponentials", 0)
    for name in ("heuristic.optimizer_iterations", "heuristic.objective_evals"):
        values[name] = int(tr.counters.get(name, 0))
    values["trace.overhead_share"] = traced_s / untraced_s - 1.0
    values["trace.spans"] = len(tr.spans)
    return {name: values[name] for name, _, _ in PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cxtherm" / "__init__.py").is_file():
        print(f"benchmark: no cxtherm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"benchmark: unknown workload {args.workload!r}; choose from {workloads.NAMES}", file=sys.stderr)
        return 2
    RESULTS.mkdir(exist_ok=True)
    env = workloads.cli_env(ROOT)
    facts = machine_facts()

    setup = setup_seconds(args.workload, args.seed, env) if args.trace == 0 else []
    wl = workloads.build(args.workload, args.seed, ROOT)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": facts, "inputs": wl.facts}
    try:
        if args.trace == 0:
            tally = Tally()
            start = now()
            rounds = 0
            while rounds == 0 or now() - start < args.seconds:
                for op in wl.ops:
                    tally.run_op(op)
                rounds += 1
            # each operation's median over the rounds, so that a round run
            # while the host was busy does not carry the throughput
            per_op = [statistics.median(tally.times[i::len(wl.ops)]) for i in range(len(wl.ops))]
            metrics = {
                "setup_s": statistics.median(setup),
                "ops_per_s": (tally.attempted - tally.failed) / rounds / sum(per_op),
                "op_p50_ms": statistics.median(tally.times) * 1e3,
                "peak_rss_mb": peak_rss_mb(args.workload),
            }
            units = {name: unit for name, unit, _ in END_TO_END}
            record.update({"rounds": rounds, "wall_s": now() - start, "setup_samples_s": setup,
                           "op_times_s": [tally.times[k:k + len(wl.ops)] for k in range(0, len(tally.times), len(wl.ops))]})
        else:
            import tracer as tracer_mod

            # a warm-up round fills lazy imports and caches; then each
            # operation runs untraced and traced back to back, so that both
            # sides of the overhead see the same host load
            plain, tally, warm = Tally(), Tally(), Tally()
            for op in wl.ops:
                warm.run_op(op)
            tr = tracer_mod.Tracer()
            for op_id, op in enumerate(wl.ops):
                plain.run_op(op)
                if args.workload == "cold_query":
                    wl.tracer = tr
                else:
                    tr.install()
                try:
                    tally.run_op(op, tr, op_id)
                finally:
                    tr.uninstall()
                    wl.tracer = None
            metrics = per_layer_metrics(tracer_mod, tr, sum(plain.times), sum(tally.times))
            units = {name: unit for name, unit, _ in PER_LAYER}
            for other in (warm, plain):
                tally.attempted += other.attempted
                tally.failed += other.failed
                tally.wrong += other.wrong
                tally.failures += other.failures
            spans_file = RESULTS / f"spans-{args.workload}-seed{args.seed}.json"
            tr.dump(str(spans_file))
            record.update({"rounds": 1, "spans_file": spans_file.name,
                           "early_stops": int(tr.counters.get("search.early_stops", 0)),
                           "untraced_s": sum(plain.times), "traced_s": sum(tally.times)})
    finally:
        wl.close()

    keys: dict[str, int] = {}
    for op in wl.ops:
        if op.key is not None:
            keys[op.key] = keys.get(op.key, 0) + 1
    by_name: dict[str, list[float]] = {}
    for op, t in zip(wl.ops * (len(tally.times) // len(wl.ops)), tally.times):
        by_name.setdefault(op.name, []).append(t)
    record.update({
        "ops_per_round": len(wl.ops),
        "queries_per_key_per_round": keys,
        "op_median_s": {k: statistics.median(v) for k, v in sorted(by_name.items())},
        "failures": tally.failures,
    })
    result = {
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    record["result"] = result
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
