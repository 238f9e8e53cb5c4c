"""One workload in one fresh process: set-up, warm-up, timed closed loop, checks.

Started by ``run.py``; prints one JSON line with ``setup_s``, ``attempted``,
``failed``, ``errors`` and ``metrics`` (name -> [value, unit]).  Set-up
runs from the first line of this file to the end of the warm-up operation:
imports, input generation and one untimed operation.  The loop then runs
whole rounds of operations, one caller waiting on each, until ``--seconds``
have passed; outputs are kept and checked after the loop so checking costs
no loop time.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402

POOL = 64  # distinct seeded inputs per run; a faster program cycles through them
CLITRACE = str(Path(__file__).resolve().with_name("clitrace.py"))
CLI_TIMEOUT_S = 120
IMPORT_REPEATS = 7
CLI_LABELS = ("eval", "derive", "expand", "realize-scan", "verify", "verify-poly", "eval-structured")


@dataclass
class Record:
    label: str
    seconds: float
    failed: bool
    output: object
    index: int  # which pool entry (or cycle) produced it


class TaylorPoly:
    """taylor_expand(from_poly(p), 5) on a fresh d=3 polynomial, 40 terms, degree <= 5."""

    D, MAXDEG = 3, 5
    PER_DEGREE = (1, 2, 3, 6, 10, 18)  # 40 terms

    def __init__(self, seed: int, work: Path):
        import ncfuncalc

        self.nc = ncfuncalc
        rng = np.random.default_rng([seed, 1])
        self.pool = [inputs.random_terms(rng, self.D, self.PER_DEGREE) for _ in range(POOL)]

    def round(self, i: int, tracer_dir=None) -> list[Record]:
        nc = self.nc
        terms = self.pool[i % POOL]
        t = time.perf_counter()
        expansion = nc.taylor_expand(nc.from_poly(nc.FreePoly(self.D, terms)), self.MAXDEG)
        dt = time.perf_counter() - t
        return [Record("taylor-poly", dt, False, expansion.as_poly().terms, i % POOL)]

    def warm_up(self) -> None:
        self.round(0)

    def check(self, records: list[Record]) -> list[str]:
        errors = []
        for rec in records:
            errors += [f"poly {rec.index}: {e}" for e in checks.check_coeffs(self.pool[rec.index], rec.output)]
        first = records[0]
        return errors + checks.control_failures("coeffs", self.pool[first.index], first.output)


class Scan:
    """contractivity_scan(r, n=16, samples=40) on a fresh unitary d=2, m=3 colligation."""

    D, M, N, SAMPLES, CHECK_N = 2, 3, 16, 40, 8

    def __init__(self, seed: int, work: Path):
        import ncfuncalc

        self.nc = ncfuncalc
        self.seed = seed
        rng = np.random.default_rng([seed, 2])
        self.pool = [inputs.unitary_colligation(rng, self.D, self.M) for _ in range(POOL)]
        self.scan_seeds = [int(s) for s in rng.integers(0, 2**31, size=POOL)]

    def realization(self, col: dict):
        nc = self.nc
        return nc.Realization(
            delta=nc.delta_polydisk(col["d"]), m=col["m"], A=col["A"], B=col["B"], C=col["C"], D=col["D"]
        )

    def round(self, i: int, tracer_dir=None) -> list[Record]:
        k = i % POOL
        t = time.perf_counter()
        report = self.nc.contractivity_scan(
            self.realization(self.pool[k]), self.N, self.SAMPLES, self.scan_seeds[k]
        )
        dt = time.perf_counter() - t
        return [Record("scan", dt, False, report.as_dict(), k)]

    def warm_up(self) -> None:
        self.round(0)

    def check(self, records: list[Record]) -> list[str]:
        errors = []
        for rec in records:
            errors += [f"scan {rec.index}: {e}" for e in checks.check_scan(self.SAMPLES, rec.output)]
        errors += checks.control_failures("scan", self.SAMPLES, records[0].output)
        # The transfer value itself, at an in-ball point the benchmark draws,
        # against the benchmark's own solve of the transfer formula.
        for k in sorted({rec.index for rec in records}):
            col = self.pool[k]
            x = inputs.random_point(np.random.default_rng([self.seed, 3, k]), self.D, self.CHECK_N, 0.9)
            got = self.nc.eval_realization(self.realization(col), self.nc.MatrixTuple(x))
            ref = checks.transfer(col, x)
            errors += [f"transfer {k}: {e}" for e in checks.check_matrix(ref, got)]
        return errors + checks.control_failures("matrix", ref, got)


class Cli:
    """A fixed cycle of ``python -m ncfuncalc.cli`` processes on seeded files."""

    def __init__(self, seed: int, work: Path):
        rng = np.random.default_rng([seed, 4])
        self.work = work
        self.terms = inputs.random_terms(rng, 3, (1, 2, 3, 6, 12))
        self.x = inputs.random_point(rng, 3, 8, 0.9)
        self.hs = [inputs.random_point(rng, 3, 8, 0.9) for _ in range(2)]
        self.col = inputs.unitary_colligation(rng, 2, 3)
        scan_seed, suite_seed = (str(int(s)) for s in rng.integers(0, 2**31, size=2))

        def put(name, obj):
            inputs.write_json(work / name, obj)
            return name

        poly = put("poly.json", {"kind": "poly", "payload": inputs.poly_obj(3, self.terms)})
        point = put("point.json", inputs.tuple_obj(self.x))
        dirs = put("dirs.json", {"directions": [inputs.tuple_obj(h) for h in self.hs]})
        real = put("real.json", inputs.realization_obj(self.col))
        real_handle = put("real_handle.json", {"kind": "realization", "payload": inputs.realization_obj(self.col)})
        # The structured point does not depend on the seed: x0 has norm 1.5,
        # outside polydisk(1), so the documented outcome is exit 3.
        struct_handle = put(
            "struct_handle.json",
            {
                "kind": "poly",
                "payload": inputs.poly_obj(1, {(0,): 1.0}),
                "domain": {"kind": "polydisk", "radius": 1.0, "norm_cap": None},
            },
        )
        struct_point = put("struct_point.json", inputs.tuple_obj([inputs.structured_point()]))
        # (label, argv, expected exit code)
        self.cycle = [
            ("eval", ["eval", "--handle", poly, "--point", point], 0),
            ("derive", ["derive", "--handle", poly, "--point", point, "--directions", dirs,
                        "--k", "2", "--method", "polarized"], 0),
            ("expand", ["expand", "--handle", real_handle, "--maxdeg", "6"], 0),
            ("realize-scan", ["realize-scan", "--handle", real, "--n", "8", "--samples", "50",
                              "--seed", scan_seed], 0),
            ("verify", ["verify", "--handle", real_handle, "--seed", suite_seed], 0),
            ("verify-poly", ["verify", "--handle", poly, "--seed", suite_seed], 0),
            ("eval-structured", ["eval", "--handle", struct_handle, "--point", struct_point], 3),
        ]
        self.traces = 0

    def run(self, argv: list[str], tracer_dir) -> tuple[float, subprocess.CompletedProcess]:
        if tracer_dir is None:
            cmd = [sys.executable, "-m", "ncfuncalc.cli", *argv]
        else:
            self.traces += 1
            cmd = [sys.executable, CLITRACE, str(tracer_dir / f"{self.traces}.json"), *argv]
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.work, capture_output=True, timeout=CLI_TIMEOUT_S)
        return time.perf_counter() - t, proc

    def warm_up(self) -> None:
        self.run(self.cycle[0][1], None)

    def round(self, i: int, tracer_dir=None) -> list[Record]:
        out = []
        for label, argv, expected in self.cycle:
            dt, proc = self.run(argv, tracer_dir)
            out.append(Record(label, dt, proc.returncode != expected, proc.stdout, i))
        return out

    def references(self) -> dict:
        return {
            "eval": ("matrix", checks.poly_eval(self.terms, self.x)),
            "derive": ("matrix", checks.second_derivative(self.terms, self.x, *self.hs)),
            "expand": ("coeffs", checks.realization_coefficients(self.col, 6)),
            "realize-scan": ("scan", 50),
            "verify": ("suite", None),
            "verify-poly": ("suite", None),
        }

    @staticmethod
    def parse(kind: str, stdout: bytes):
        obj = json.loads(stdout)
        if kind == "matrix":
            return inputs.matrix_from_obj(obj)
        if kind == "coeffs":
            return inputs.terms_from_obj(obj)
        return obj

    def check(self, records: list[Record]) -> list[str]:
        refs = self.references()
        errors, controlled = [], set()
        for rec in records:
            if rec.failed or rec.label not in refs:
                continue
            kind, ref = refs[rec.label]
            try:
                got = self.parse(kind, rec.output)
            except (ValueError, KeyError, TypeError) as exc:
                errors.append(f"{rec.label}: unreadable output ({exc})")
                continue
            errors += [f"{rec.label}: {e}" for e in checks.CHECKS[kind](ref, got)]
            if rec.label not in controlled:
                controlled.add(rec.label)
                errors += checks.control_failures(kind, ref, got)
        return errors


WORKLOADS = {"taylor-poly": TaylorPoly, "scan": Scan, "cli": Cli}


def timed_loop(wl, seconds: float, tracer_dir=None) -> tuple[list[Record], float]:
    records: list[Record] = []
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        records += wl.round(i, tracer_dir)
        i += 1
    return records, time.perf_counter() - start


def median_ms(records: list[Record]) -> float:
    return 1e3 * statistics.median(r.seconds for r in records)


def import_ms(work: Path) -> float:
    """Median process time of ``import ncfuncalc.cli`` minus that of ``import numpy``."""

    def once(stmt: str) -> float:
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", stmt], cwd=work, check=True, timeout=CLI_TIMEOUT_S)
        return time.perf_counter() - t

    base, full = [], []
    for _ in range(IMPORT_REPEATS):
        base.append(once("import numpy"))
        full.append(once("import ncfuncalc.cli"))
    return 1e3 * (statistics.median(full) - statistics.median(base))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work", type=Path, required=True, help="scratch directory for files")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    wl = WORKLOADS[args.workload](args.seed, args.work)
    wl.warm_up()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    metrics: dict[str, list] = {}
    if args.trace == 0:
        records, wall = timed_loop(wl, args.seconds)
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        metrics["ops_per_s"] = [len(records) / wall, "1/s"]
        metrics["op_p50_ms"] = [median_ms(records), "ms"]
        metrics["peak_rss_mb"] = [resource.getrusage(who).ru_maxrss / 1024.0, "MB"]
    else:
        from layers import Tracer, layer_metrics, merge

        verbs = dict.fromkeys(CLI_LABELS, 0.0)
        cli_import = 0.0
        if args.workload == "cli":
            plain, _ = timed_loop(wl, args.seconds)
            for label in verbs:
                verbs[label] = median_ms([r for r in plain if r.label == label])
            tracer_dir = args.work / "traces"
            tracer_dir.mkdir()
            traced, _ = timed_loop(wl, args.seconds, tracer_dir)
            state = merge(json.loads(p.read_text()) for p in sorted(tracer_dir.iterdir()))
            cli_import = import_ms(args.work)
            records = plain + traced
        else:
            tracer = Tracer().install()
            traced, _ = timed_loop(wl, args.seconds)
            state = tracer.state()
            records = traced
        for name, (value, unit) in layer_metrics(state, len(traced)).items():
            metrics[name] = [value, unit]
        metrics["cli.import.ms"] = [cli_import, "ms"]
        for label, value in verbs.items():
            metrics[f"cli.{label}.ms"] = [value, "ms"]
        metrics["traced.op_p50_ms"] = [median_ms(traced), "ms"]

    errors = wl.check(records)
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "attempted": len(records),
                "failed": sum(r.failed for r in records),
                "errors": len(errors),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
