"""Command-line driver: run verification targets, render reports, write a
deterministic JSON catalog of the verified schemes."""

import argparse
import json
import random
import sys
import time
from typing import NamedTuple

from . import charsum, paperbook, schemecore, zmring
from .binfield import FieldError, _prime_factors, build_tower
from .cycpart import d_class_check, get_partition
from .reporting import Report

TARGETS = ("fields", "partition", "lemma2", "gauss", "thm1", "thm2i",
           "thm2ii", "duals", "im10", "appendix")

USAGE_ERROR = 2


class RunConfig(NamedTuple):
    s: int
    targets: tuple = TARGETS
    poly_f: int | None = None
    poly_g: int | None = None
    poly_h: int | None = None
    json_path: str | None = None
    big: bool = False
    seed: int = 0
    verbose: bool = False


def _target_fields(tower, config) -> tuple[list, list]:
    report = Report(f"field tower (s={config.s})")
    report.add("tower constructed with primitive moduli", True,
               str(tower.moduli_hex()))
    report.add(f"M = 2^{2 * config.s} + 2^{config.s} + 1 divides |F*|",
               tower.F.order % tower.M == 0)
    rng = random.Random(config.seed)
    ok = True
    for _ in range(64):
        a = rng.randrange(tower.F.size)
        b = rng.randrange(tower.F.size)
        c = rng.randrange(tower.F.size)
        if tower.F.mul(a, tower.F.mul(b, c)) != tower.F.mul(tower.F.mul(a, b), c):
            ok = False
        if tower.F.mul(a, b ^ c) != tower.F.mul(a, b) ^ tower.F.mul(a, c):
            ok = False
    report.add("random multiplication associativity/distributivity spot-check", ok)
    order = tower.F.order
    cofactors = [order // p for p in _prime_factors(order)]
    for label, w in tower.roots.items():
        K = tower.field(label)
        report.add(f"embedded omega keeps its order in {label}",
                   K.pow(w, order) == 1 and all(K.pow(w, c) != 1 for c in cofactors))
    return [report], []


def _target_partition(tower, config):
    part = get_partition(tower)
    q = 1 << config.s
    report = Report(f"index partition (s={config.s})")
    report.add("both derivations agree (cross-checked internally)", True,
               f"sizes {(len(part.T1), len(part.T2), len(part.T3))}")
    report.add("sizes are (q+1, (q^2+q)/2, (q^2-q)/2)",
               (len(part.T1), len(part.T2), len(part.T3)) ==
               (q + 1, (q * q + q) // 2, (q * q - q) // 2))
    report.extend(d_class_check(tower))
    report.extend(zmring.doubling_check(part))
    return [report], []


def _target_lemma2(tower, config):
    part = get_partition(tower)
    reports = [zmring.verify_lemma2(part, config.s),
               zmring.verify_remark_eqs(part, config.s),
               zmring.delta_square_check(part, config.s)]
    return reports, []


def _streams_h(config) -> bool:
    return config.s < 3 or config.big


def _target_gauss(tower, config):
    reports = [charsum.verify_t1_gauss_identity(tower),
               charsum.gauss_sum_modulus_check(tower, "F"),
               charsum.conjugation_symmetry_check(tower, "F"),
               charsum.period_expansion_check(tower, "F"),
               charsum.verify_hasse_davenport(tower, 2),
               charsum.eta_prime_law_check(tower)]
    if _streams_h(config):
        reports.append(charsum.verify_hasse_davenport(tower, 3))
    else:
        skipped = Report(f"Hasse-Davenport lift degree 3 (s={config.s})")
        skipped.skip("skipped: needs --big to stream the degree-9s field")
        reports.append(skipped)
    return reports, []


def _scheme_target(scheme_id):
    def runner(tower, config):
        record = schemecore.build_scheme(tower, scheme_id)
        report = Report(f"{scheme_id} scheme (s={config.s})")
        report.add("Bannai-Muzychuk census has exactly 3 nonprincipal rows",
                   record.is_scheme,
                   f"{len(record.row_census)} distinct rows")
        if record.is_scheme:
            flags = record.flags
            report.add("flags", True,
                       f"primitive={flags['is_primitive']} "
                       f"self_dual={flags['is_self_dual']} "
                       f"srg={flags['srg_relations']}")
        reports = [report, paperbook.reconcile(tower, scheme_id)]
        return reports, [record]
    return runner


def _target_duals(tower, config):
    reports = [schemecore.dual_scheme_tables_check(tower, "thm1"),
               schemecore.dual_scheme_tables_check(tower, "thm2i")]
    records = []
    for sid in ("thm1", "thm2i"):
        primal = schemecore.build_scheme(tower, sid)
        if primal.is_scheme:
            records.append(schemecore.build_dual_scheme(tower, primal))
    return reports, records


def _target_im10(tower, config):
    report = Report(f"two-class refinement construction (s={config.s})")
    two = schemecore.two_class_scheme(tower)
    report.add("trace-hyperplane Cayley graph gives a 2-class scheme",
               two.is_scheme)
    if not two.is_scheme:
        return [report], []
    record = schemecore.im10_construct(tower, two)
    report.add("refinement verifies as a 3-class scheme", record.is_scheme)
    report.add("refinement is self-dual", record.flags.get("is_self_dual", False))
    thm1 = schemecore.build_scheme(tower, "thm1")
    # informational: the construction may or may not reproduce the F-scheme
    report.add("first eigenmatrix comparison with the F-scheme", True,
               "P differs" if record.P != thm1.P else "P identical")
    return [report], [record]


def _target_appendix(tower, config):
    return [paperbook.integrality_check(),
            paperbook.row_sum_identity_check()], []


_RUNNERS = {
    "fields": _target_fields,
    "partition": _target_partition,
    "lemma2": _target_lemma2,
    "gauss": _target_gauss,
    "thm1": _scheme_target("thm1"),
    "thm2i": _scheme_target("thm2i"),
    "thm2ii": _scheme_target("thm2ii"),
    "duals": _target_duals,
    "im10": _target_im10,
    "appendix": _target_appendix,
}


def _progress(step: str, start: float) -> None:
    """A ``-v`` line on stderr: wall time since ``start``, peak RSS so far."""
    import resource  # only under -v, so a plain run loads no extra module
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    print(f"{step}: {time.perf_counter() - start:.3f} s, peak RSS {peak:.1f} MB", file=sys.stderr)


def run(config: RunConfig, out=None) -> int:
    out = out if out is not None else sys.stdout
    if config.s < 1:
        print("error: --s must be >= 1", file=out)
        return USAGE_ERROR
    if not config.targets:
        print("error: the target list is empty", file=out)
        return USAGE_ERROR
    bad = [t for t in config.targets if t not in TARGETS]
    if bad:
        print(f"error: unknown targets {bad}", file=out)
        return USAGE_ERROR
    if "thm2ii" in config.targets and not _streams_h(config):
        print("error: thm2ii at s >= 3 streams a 2^(9s)-element field; "
              "pass --big to opt in", file=out)
        return USAGE_ERROR
    # |F| = 2^(3s) > limit, compared by exponent so that no s sizes an int
    if "im10" in config.targets and \
            3 * config.s >= schemecore._ORACLE_SIZE_LIMIT.bit_length():
        print(f"error: im10 verifies GF(2^{3 * config.s}) element by element, "
              f"which is limited to {schemecore._ORACLE_SIZE_LIMIT} elements",
              file=out)
        return USAGE_ERROR
    start = time.perf_counter()
    try:
        tower = build_tower(config.s, config.poly_f, config.poly_g, config.poly_h)
    except FieldError as exc:
        print(f"error: {exc}", file=out)
        return USAGE_ERROR
    if config.verbose:
        _progress("tower", start)

    ordered = [t for t in TARGETS if t in config.targets]
    reports: list[Report] = []
    records = []
    for target in ordered:
        start = time.perf_counter()
        target_reports, target_records = _RUNNERS[target](tower, config)
        if config.verbose:
            _progress(target, start)
        reports.extend(target_reports)
        records.extend(target_records)
    for report in reports:
        print(report, file=out)
        print(file=out)
    failures = [c for r in reports for c in r.failures()]
    skipped = sum(len(r.skipped()) for r in reports)
    if config.json_path is not None:
        try:
            export_catalog(config, tower, reports, records, config.json_path)
        except OSError as exc:
            print(f"error: cannot write the catalog: {exc}", file=out)
            return USAGE_ERROR
    note = f", {skipped} skipped" if skipped else ""
    if failures:
        print(f"{len(failures)} check(s) FAILED{note}", file=out)
        return 1
    print(f"all checks passed{note}", file=out)
    return 0


def export_catalog(config: RunConfig, tower, reports, records, path: str) -> None:
    """Deterministic catalog: same config always yields identical bytes
    (run metadata lives in the header object, never timestamps)."""
    payload = {
        "header": {
            "s": config.s,
            "q": 1 << config.s,
            "M": tower.M,
            "targets": [t for t in TARGETS if t in config.targets],
            "moduli": tower.moduli_hex(),
            "seed": config.seed,
        },
        "reports": [r.to_json() for r in reports],
        "schemes": [rec.to_json() for rec in records],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(text)


def _parse_args(argv) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="cycloscheme",
        description="Exact verification of the three fused cyclotomic "
                    "3-class association schemes.")
    parser.add_argument("--s", type=int, required=True,
                        help="tower parameter; fields have degrees 3s, 6s, 9s")
    chosen = parser.add_mutually_exclusive_group()
    chosen.add_argument("--targets", type=str, default=None,
                        help=f"comma-separated subset of {','.join(TARGETS)}")
    chosen.add_argument("--all", action="store_true",
                        help="run every target (default when --targets is omitted)")
    parser.add_argument("--poly-f", type=str, default=None, metavar="HEX",
                        help="modulus override for the degree-3s field")
    parser.add_argument("--poly-g", type=str, default=None, metavar="HEX",
                        help="modulus override for the degree-6s field")
    parser.add_argument("--poly-h", type=str, default=None, metavar="HEX",
                        help="modulus override for the degree-9s field")
    parser.add_argument("--json", type=str, default=None, metavar="PATH",
                        help="write the JSON catalog here")
    parser.add_argument("--big", action="store_true",
                        help="allow 2^(9s)-element streaming at s >= 3")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for randomized spot-checks")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="print each step's wall time and the peak RSS on stderr")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    targets = TARGETS
    if args.targets is not None:
        targets = tuple(t.strip() for t in args.targets.split(",") if t.strip())
    try:
        config = RunConfig(
            s=args.s, targets=targets,
            poly_f=int(args.poly_f, 16) if args.poly_f is not None else None,
            poly_g=int(args.poly_g, 16) if args.poly_g is not None else None,
            poly_h=int(args.poly_h, 16) if args.poly_h is not None else None,
            json_path=args.json, big=args.big, seed=args.seed,
            verbose=args.verbose)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return run(config)
