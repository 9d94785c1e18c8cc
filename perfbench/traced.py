"""Traced replica of one ``python -m cycloscheme`` run.

Makes the calls that ``cycloscheme.cli.run`` makes into the package's
public functions, in the same order, and records a span (name, start,
end, parent) around each one. Nothing inside the package is patched, so a
call's span is its self time. Each Gauss-period walk is called first and
on its own, so the walk's time is kept apart from the Gauss-sum checks
that reuse the cached periods.

Three reports the CLI writes itself are not replayed: the ``fields``
target's (its random multiplication spot-checks take under a
millisecond), the one-line census report of each ``thm*`` target, and the
placeholder for a skipped degree-3 Hasse-Davenport check. None of them
changes the catalog's ``schemes`` section, which the benchmark checks
against its reference.

    PYTHONPATH=src python3 perfbench/traced.py --s 2 --targets thm1,gauss \
        --seed 0 --json out.json --spans spans.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager


class Tracer:
    """Spans kept in memory and written out when the run ends."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans: list[dict] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._open[-1] if self._open else None,
                  "start": time.perf_counter() - self.origin, "end": None,
                  "attrs": attrs}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter() - self.origin
            self._open.pop()

    def call(self, name: str, fn, *args, **attrs):
        with self.span(name, **attrs):
            return fn(*args)


def replay(t: Tracer, s: int, targets: tuple, big: bool, seed: int,
           json_path: str) -> bool:
    """Run the CLI's targets under spans; returns whether every check passed."""
    with t.span("import.cycloscheme"):
        from cycloscheme import (binfield, charsum, cli, cycpart, paperbook,
                                 schemecore, zmring)
    tower = t.call("binfield.build_tower", binfield.build_tower, s)
    M = tower.M
    walked = set()

    def walk(label):
        if label not in walked:
            walked.add(label)
            t.call("charsum.gauss_periods", charsum.gauss_periods, tower, label,
                   label=label, elems=tower.field(label).order)

    def partition():
        return t.call("cycpart.get_partition", cycpart.get_partition, tower)

    reports, records = [], []
    for target in (x for x in cli.TARGETS if x in targets):
        with t.span("target." + target):
            if target == "partition":
                part = partition()
                reports.append(t.call("cycpart.d_class_check",
                                      cycpart.d_class_check, tower))
                reports.append(t.call("zmring.doubling_check",
                                      zmring.doubling_check, part))
            elif target == "lemma2":
                part = partition()
                for fn, convolutions in ((zmring.verify_lemma2, 3),
                                         (zmring.verify_remark_eqs, 7),
                                         (zmring.delta_square_check, 1)):
                    reports.append(t.call("zmring." + fn.__name__, fn, part, s,
                                          convolutions=convolutions))
            elif target == "gauss":
                walk("F")
                walk("G")
                reports.append(t.call("charsum.verify_t1_gauss_identity",
                                      charsum.verify_t1_gauss_identity, tower))
                # G * conj(G) is one ring product per character; x**2 and
                # x**3 by square-and-multiply take 3 and 4.
                reports.append(t.call("charsum.gauss_sum_modulus_check",
                                      charsum.gauss_sum_modulus_check, tower, "F",
                                      ring_mults=M - 1))
                reports.append(t.call("charsum.conjugation_symmetry_check",
                                      charsum.conjugation_symmetry_check, tower, "F"))
                reports.append(t.call("charsum.period_expansion_check",
                                      charsum.period_expansion_check, tower, "F"))
                reports.append(t.call("charsum.verify_hasse_davenport",
                                      charsum.verify_hasse_davenport, tower, 2,
                                      degree=2, ring_mults=3 * (M - 1)))
                reports.append(t.call("charsum.eta_prime_law_check",
                                      charsum.eta_prime_law_check, tower))
                if s < 3 or big:
                    walk("H")
                    reports.append(t.call("charsum.verify_hasse_davenport",
                                          charsum.verify_hasse_davenport, tower, 3,
                                          degree=3, ring_mults=4 * (M - 1)))
            elif target in ("thm1", "thm2i", "thm2ii"):
                walk(schemecore.scheme_id_field(target))
                records.append(t.call("schemecore.build_scheme",
                                      schemecore.build_scheme, tower, target))
                reports.append(t.call("paperbook.reconcile",
                                      paperbook.reconcile, tower, target))
            elif target == "duals":
                walk("F")
                walk("G")
                for sid in ("thm1", "thm2i"):
                    reports.append(t.call("schemecore.dual_scheme_tables_check",
                                          schemecore.dual_scheme_tables_check,
                                          tower, sid))
                for sid in ("thm1", "thm2i"):
                    primal = t.call("schemecore.build_scheme",
                                    schemecore.build_scheme, tower, sid)
                    if primal.is_scheme:
                        records.append(t.call("schemecore.build_dual_scheme",
                                              schemecore.build_dual_scheme,
                                              tower, primal))
            elif target == "im10":
                two = t.call("schemecore.two_class_scheme",
                             schemecore.two_class_scheme, tower)
                records.append(t.call("schemecore.im10_construct",
                                      schemecore.im10_construct, tower, two))
                walk("F")
                t.call("schemecore.build_scheme", schemecore.build_scheme,
                       tower, "thm1")
            elif target == "appendix":
                reports.append(t.call("paperbook.integrality_check",
                                      paperbook.integrality_check))
                reports.append(t.call("paperbook.row_sum_identity_check",
                                      paperbook.row_sum_identity_check))
    config = cli.RunConfig(s=s, targets=targets, json_path=json_path, big=big,
                           seed=seed)
    t.call("cli.export_catalog", cli.export_catalog, config, tower, reports,
           records, json_path)
    return all(r.passed for r in reports)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--s", type=int, required=True)
    parser.add_argument("--targets", required=True)
    parser.add_argument("--big", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--json", required=True)
    parser.add_argument("--spans", required=True)
    args = parser.parse_args(argv)
    targets = tuple(x for x in args.targets.split(",") if x)
    t = Tracer()
    q = 1 << args.s
    with t.span("cli.run", s=args.s, M=q * q + q + 1, q=q):
        passed = replay(t, args.s, targets, args.big, args.seed, args.json)
    with open(args.spans, "w") as fh:
        json.dump({"argv": sys.argv[1:], "spans": t.spans}, fh, indent=1)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
