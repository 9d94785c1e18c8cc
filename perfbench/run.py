#!/usr/bin/env python3
"""cycloscheme benchmark.

Runs the real CLI (``python -m cycloscheme ... --json PATH``) one process
at a time, from this one process, with no threads or pools, and checks
every catalog against ``references.json``.

    python3 perfbench/run.py --workload all_s4 --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --record

Run it from the repository root. ``--trace 0`` reports the end-to-end
metrics (run time, set-up time, peak RSS); ``--trace 1`` alternates an
untraced CLI pass with a traced replica of it (``traced.py``) and reports
per-layer times and work counts read from the replica's span files.
``--record`` re-records the reference outputs. The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
the lines before it give each metric by name with its unit, the stamp of
what ran, and where the detail files are.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCES = HERE / "references.json"

ALL = ("fields", "partition", "lemma2", "gauss", "thm1", "thm2i", "thm2ii",
       "duals", "im10", "appendix")
NO_THM2II = tuple(t for t in ALL if t != "thm2ii")

# One workload is a pass of CLI invocations (s, targets, --big). Each
# stresses one part of the program and hardly touches the others; the
# reasons are in README.md.
WORKLOADS = {
    "big_s3": [(3, ALL, True)],
    "all_s4": [(4, NO_THM2II, False)],
    "fpart_s5": [(5, ("fields", "partition", "lemma2", "thm1", "appendix"), False)],
    "small_sweep": [(1, ALL, False), (2, ALL, False), (3, NO_THM2II, False)],
}

SETUP_REPEATS = 9
DEADLINE_S = 170.0  # a run never outlives this, whatever the program does


def cli_args(inv) -> list[str]:
    s, targets, big = inv
    args = ["--s", str(s)]
    args += ["--all"] if targets == ALL else ["--targets", ",".join(targets)]
    return args + (["--big"] if big else [])


def inv_key(inv) -> str:
    return " ".join(cli_args(inv))


class Runner:
    """Starts one child process at a time and reaps it with its own rusage."""

    def __init__(self, started: float):
        self.deadline = started + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))

    def spawn(self, argv: list[str], log: Path) -> tuple[float, float, int]:
        """Run ``argv`` to completion; returns (wall s, peak RSS MB, exit code).

        Exit code -9 means the run was killed at the deadline."""
        with open(log, "w") as fh:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fh, stderr=subprocess.STDOUT,
                                    env=self.env, cwd=ROOT)
            # a blocking wait4 keeps this process asleep while the child
            # runs; the alarm kills the child if it outlives the deadline
            signal.signal(signal.SIGALRM,
                          lambda *_: os.kill(proc.pid, signal.SIGKILL))
            signal.setitimer(signal.ITIMER_REAL, max(self.deadline - t0, 0.001))
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, usage.ru_maxrss / 1024.0, proc.returncode


def catalog_digest(path: Path) -> tuple[str, int, int]:
    """(SHA-256 of the schemes section, number of checks, number failed)."""
    with open(path) as fh:
        payload = json.load(fh)
    schemes = json.dumps(payload["schemes"], sort_keys=True,
                         separators=(",", ":")).encode()
    checks = [c for r in payload["reports"] for c in r["checks"]]
    return (hashlib.sha256(schemes).hexdigest(), len(checks),
            sum(1 for c in checks if c["passed"] is False))


def verdict(code: int, catalog: Path, ref: dict | None,
            compare_checks: bool = True) -> str:
    """Empty when the run is correct, else the reason it failed."""
    if code != 0:
        return f"exit code {code}"
    if ref is None:
        return "no reference recorded"
    try:
        digest, checks, failed = catalog_digest(catalog)
    except (OSError, ValueError, KeyError) as exc:
        return f"unreadable catalog: {exc!r}"
    if failed:
        return f"{failed} check(s) report passed: false"
    if digest != ref["schemes_sha256"]:
        return "schemes section differs from the reference"
    if compare_checks and checks != ref["checks"]:
        return f"{checks} checks, reference has {ref['checks']}"
    return ""


def tail(values: list[float]) -> tuple[float | None, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct).

    None below 22 samples, where that percentile is not above the median."""
    n = len(values)
    if n < 22:
        return None, 0.0
    k = n - 11
    return sorted(values)[k], 100.0 * (k + 1) / n


def stamp() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    tree = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            tree.update(str(path.relative_to(SRC)).encode() + b"\0")
            tree.update(path.read_bytes())
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {"commit": commit, "src_sha256": tree.hexdigest(),
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy_version}


# --------------------------------------------------------------------------
# per-layer metrics from span files
# --------------------------------------------------------------------------

# span name -> per-layer time metric it adds to
SPAN_METRIC = {
    "binfield.build_tower": "binfield.build_tower_s",
    "cycpart.get_partition": "cycpart.partition_s",
    "cycpart.d_class_check": "cycpart.d_class_check_s",
    "zmring.verify_lemma2": "zmring.identities_s",
    "zmring.verify_remark_eqs": "zmring.identities_s",
    "zmring.delta_square_check": "zmring.identities_s",
    "zmring.doubling_check": "zmring.identities_s",
    "charsum.verify_t1_gauss_identity": "charsum.t1_identity_s",
    "charsum.gauss_sum_modulus_check": "charsum.modulus_s",
    "charsum.conjugation_symmetry_check": "charsum.conj_s",
    "charsum.period_expansion_check": "charsum.period_expansion_s",
    "charsum.eta_prime_law_check": "charsum.eta_prime_s",
    "schemecore.build_scheme": "schemecore.build_scheme_s",
    "schemecore.dual_scheme_tables_check": "schemecore.duals_s",
    "schemecore.build_dual_scheme": "schemecore.duals_s",
    "schemecore.two_class_scheme": "schemecore.element_scheme_s",
    "schemecore.im10_construct": "schemecore.element_scheme_s",
    "paperbook.reconcile": "paperbook.reconcile_s",
    "paperbook.integrality_check": "paperbook.appendix_s",
    "paperbook.row_sum_identity_check": "paperbook.appendix_s",
    "cli.export_catalog": "cli.catalog_write_s",
}


def layer_metrics(span_files: list[Path]) -> dict[str, float]:
    """Sum the spans of one traced pass into per-layer metrics."""
    m: dict[str, float] = {name: 0.0 for name in SPAN_METRIC.values()}
    m.update({"charsum.hasse_davenport_s.2": 0.0, "charsum.hasse_davenport_s.3": 0.0,
              "charsum.walk_s": 0.0, "charsum.walk_elems": 0,
              "charsum.ring_mults": 0, "zmring.convolutions": 0})
    partition_pairs = 0
    for path in span_files:
        with open(path) as fh:
            spans = json.load(fh)["spans"]
        for sp in spans:
            name, attrs = sp["name"], sp["attrs"]
            dur = sp["end"] - sp["start"]
            if name in SPAN_METRIC:
                m[SPAN_METRIC[name]] += dur
            elif name == "charsum.verify_hasse_davenport":
                m[f"charsum.hasse_davenport_s.{attrs['degree']}"] += dur
            elif name == "charsum.gauss_periods":
                label = attrs["label"]
                m[f"charsum.walk_s.{label}"] = m.get(f"charsum.walk_s.{label}", 0.0) + dur
                m[f"charsum.walk_elems.{label}"] = \
                    m.get(f"charsum.walk_elems.{label}", 0) + attrs["elems"]
                m["charsum.walk_s"] += dur
                m["charsum.walk_elems"] += attrs["elems"]
            elif name == "cli.run":
                partition_pairs += attrs["M"] * (attrs["q"] ** 2 - 1)
            m["charsum.ring_mults"] += attrs.get("ring_mults", 0)
            m["zmring.convolutions"] += attrs.get("convolutions", 0)
    m["cycpart.ns_per_pair"] = 1e9 * m["cycpart.partition_s"] / partition_pairs
    for suffix in ("", ".F", ".G", ".H"):
        if m.get("charsum.walk_elems" + suffix):
            m["charsum.walk_ns_per_elem" + suffix] = \
                1e9 * m["charsum.walk_s" + suffix] / m["charsum.walk_elems" + suffix]
    return m


def unit_of(name: str) -> str:
    if "ns_per" in name:
        return "ns"
    if name.endswith("_bytes"):
        return "B"
    if name.endswith(("_elems", "_mults", "convolutions")) or "_elems." in name:
        return "count"
    return "s"


# --------------------------------------------------------------------------
# runs
# --------------------------------------------------------------------------

def load_references() -> dict:
    with open(REFERENCES) as fh:
        return json.load(fh)["invocations"]


def setup_argv(svalues) -> list[str]:
    code = ("import cycloscheme\n"
            f"for s in {tuple(svalues)!r}:\n"
            "    cycloscheme.build_tower(s)\n")
    return [sys.executable, "-c", code]


def cli_pass(runner: Runner, invs, seed: int, refs: dict, tag: str) -> list[dict]:
    """One untraced pass of the workload's CLI invocations."""
    out = []
    for i, inv in enumerate(invs):
        catalog = OUT / f"{tag}-{i}.json"
        catalog.unlink(missing_ok=True)
        argv = [sys.executable, "-m", "cycloscheme", *cli_args(inv),
                "--seed", str(seed), "--json", str(catalog)]
        wall, rss, code = runner.spawn(argv, OUT / f"{tag}-{i}.log")
        out.append({"wall": wall, "rss": rss, "bytes": catalog.stat().st_size
                    if catalog.exists() else 0,
                    "error": verdict(code, catalog, refs.get(inv_key(inv)))})
    return out


def traced_pass(runner: Runner, invs, seed: int, refs: dict, tag: str) -> list[dict]:
    """One pass of the traced replica; the spans go to ``<tag>-<i>.spans.json``."""
    out = []
    for i, inv in enumerate(invs):
        s, targets, big = inv
        catalog = OUT / f"{tag}-{i}.json"
        spans = OUT / f"{tag}-{i}.spans.json"
        catalog.unlink(missing_ok=True)
        spans.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "traced.py"), "--s", str(s),
                "--targets", ",".join(targets), "--seed", str(seed),
                "--json", str(catalog), "--spans", str(spans)]
        if big:
            argv.append("--big")
        wall, rss, code = runner.spawn(argv, OUT / f"{tag}-{i}.log")
        # the replica leaves out two CLI-only reports, so its check count
        # is not compared; its schemes section must still match
        out.append({"wall": wall, "spans": spans,
                    "error": verdict(code, catalog, refs.get(inv_key(inv)),
                                     compare_checks=False)})
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool,
            runner: Runner) -> tuple[dict, list[str], int, dict]:
    """Returns (metrics name -> (value, unit), failure reasons, attempted, detail)."""
    invs = WORKLOADS[workload]
    refs = load_references()
    errors: list[str] = []
    attempted = 0
    detail: dict = {"workload": workload, "seed": seed, "seconds": seconds,
                    "trace": trace, "invocations": [inv_key(i) for i in invs]}

    def account(results):
        nonlocal attempted
        attempted += len(results)
        errors.extend(r["error"] for r in results if r["error"])

    t0 = time.perf_counter()
    if not trace:
        # set-up runs are spread between the passes, so that they sample
        # the machine's speed over the run rather than over a few seconds
        svalues = sorted({inv[0] for inv in invs})
        setups, passes = [], []
        while time.perf_counter() - t0 < seconds or len(setups) < SETUP_REPEATS:
            if len(setups) < SETUP_REPEATS:
                wall, _, code = runner.spawn(setup_argv(svalues), OUT / "setup.log")
                if code != 0:
                    raise RuntimeError(f"set-up process exited with code {code}; "
                                       f"see {OUT / 'setup.log'}")
                setups.append(wall)
            if time.perf_counter() - t0 < seconds or not passes:
                results = cli_pass(runner, invs, seed, refs, f"{workload}-cli")
                account(results)
                passes.append(results)
        walls = [sum(r["wall"] for r in p) for p in passes]
        rss = [max(r["rss"] for r in p) for p in passes]
        value, pct = tail(walls)
        detail.update(setup_s=setups, run_s=walls, peak_rss_mb=rss,
                      run_s_tail={"value": value, "percentile": pct,
                                  "samples": len(walls)})
        metrics = {"run_s": (statistics.median(walls), "s"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (statistics.median(rss), "MB")}
        return metrics, errors, attempted, detail

    # traced: alternate an untraced pass with a traced one until time is up
    pairs = []
    while True:
        plain = cli_pass(runner, invs, seed, refs, f"{workload}-cli")
        traced = traced_pass(runner, invs, seed, refs, f"{workload}-traced")
        account(plain)
        account(traced)
        if any(r["error"] for r in plain + traced):
            break
        m = layer_metrics([r["spans"] for r in traced])
        untraced_s = sum(r["wall"] for r in plain)
        m["trace.total_s"] = sum(r["wall"] for r in traced)
        m["trace.untraced_s"] = untraced_s
        m["trace.overhead_s"] = m["trace.total_s"] - untraced_s
        m["cli.catalog_bytes"] = sum(r["bytes"] for r in plain)
        pairs.append(m)
        if time.perf_counter() - t0 >= seconds:
            break
    if not pairs:
        return {}, errors, attempted, detail
    names = sorted(set().union(*pairs))
    metrics = {n: (statistics.median(p.get(n, 0.0) for p in pairs), unit_of(n))
               for n in names}
    detail["pairs"] = pairs
    return metrics, errors, attempted, detail


def run_workloads(names, seed, seconds, trace) -> int:
    runner = Runner(time.perf_counter())
    OUT.mkdir(exist_ok=True)
    if not (SRC / "cycloscheme" / "__init__.py").is_file():
        print(f"error: no cycloscheme package under {SRC}", file=sys.stderr)
        return 2
    # compile the package's bytecode before anything is timed
    _, _, code = runner.spawn([sys.executable, "-c", "import cycloscheme"],
                              OUT / "warmup.log")
    if code != 0:
        print(f"error: cannot import cycloscheme; see {OUT / 'warmup.log'}",
              file=sys.stderr)
        return 2
    info = stamp()
    print("stamp: " + json.dumps(info, sort_keys=True))
    with open(ROOT / "BENCHMARK.json") as fh:
        wanted = [m["name"] for m in
                  json.load(fh)["per_layer" if trace else "end_to_end"]]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            metrics, errors, attempted, detail = measure(
                name, seed, seconds, trace,
                runner if len(names) == 1 else Runner(time.perf_counter()))
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        detail["stamp"] = info
        detail["metrics"] = {k: {"value": v, "unit": u}
                             for k, (v, u) in metrics.items()}
        detail["errors"] = errors
        detail_path = OUT / f"{name}-trace{int(trace)}.json"
        with open(detail_path, "w") as fh:
            json.dump(detail, fh, indent=1)
        for key, (value, unit) in metrics.items():
            print(f"{name}: {key} = {value:.6g} {unit}")
        if not trace:
            t = detail["run_s_tail"]
            print(f"{name}: run_s_tail = " +
                  (f"{t['value']:.6g} s (p{t['percentile']:.0f} of "
                   f"{t['samples']} samples)" if t["value"] is not None else
                   f"n/a ({t['samples']} samples; needs at least 22)"))
        print(f"{name}: failed_frac = {len(errors)}/{attempted}")
        for err in sorted(set(errors)):
            print(f"{name}: FAILED: {err}", file=sys.stderr)
        print(f"{name}: detail in {detail_path.relative_to(ROOT)}")
        result["attempted"] += attempted
        result["failed"] += len(errors)
        result["correct"] &= not errors
        for key in wanted:
            if key in metrics:
                value, unit = metrics[key]
                out_key = key if len(names) == 1 else f"{name}.{key}"
                result["metrics"][out_key] = {"value": value, "unit": unit}
            else:
                result["correct"] = False
    print(json.dumps(result))
    return 0


def record(seeds=(0, 1)) -> int:
    """Record each invocation's reference under two seeds, which must agree."""
    OUT.mkdir(exist_ok=True)
    invocations = {}
    for invs in WORKLOADS.values():
        for inv in invs:
            key = inv_key(inv)
            if key in invocations:
                continue
            seen = set()
            for seed in seeds:
                catalog = OUT / "record.json"
                argv = [sys.executable, "-m", "cycloscheme", *cli_args(inv),
                        "--seed", str(seed), "--json", str(catalog)]
                _, _, code = Runner(time.perf_counter()).spawn(argv, OUT / "record.log")
                digest, checks, failed = catalog_digest(catalog)
                if code != 0 or failed:
                    print(f"error: {key} --seed {seed}: exit code {code}, "
                          f"{failed} failed check(s)", file=sys.stderr)
                    return 1
                seen.add((digest, checks))
                print(f"{key} --seed {seed}: schemes {digest[:16]}, {checks} checks")
            if len(seen) != 1:
                print(f"error: {key}: the reference depends on --seed", file=sys.stderr)
                return 1
            digest, checks = seen.pop()
            invocations[key] = {"schemes_sha256": digest, "checks": checks}
    with open(REFERENCES, "w") as fh:
        json.dump({"recorded_with": stamp(), "seeds_checked": list(seeds),
                   "invocations": invocations}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cycloscheme benchmark")
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="passed to every CLI run as --seed")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measuring time; each run is finished, not cut")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="re-record references.json from this checkout")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    return run_workloads(names, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
