#!/usr/bin/env python3
"""ergolab benchmark: one workload, one process, a closed loop of passes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
A pass is the workload's run list (see workloads.py), each run starting
when the previous one returns.  Passes repeat until ``--seconds`` have gone
by, at least one.  Every output is checked outside the timed region: the
manifest lists exactly the files present, exact values match the
independent references in oracle.py, and output bytes are identical across
passes (and, for montecarlo, across thread counts).

``--trace 0`` reports the end-to-end metrics pass_s, setup_s and
peak_rss_mb.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of tracer.py plus the tracing overhead.  The
last stdout line is the JSON result; lines before it are a readable summary.
The full report (samples, provenance, problems, spans) goes to
``perfbench/out/``.
"""

import time

_PROCESS_START = time.perf_counter()  # set-up is timed from here, before any import of ergolab

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORK = HERE / ".work"
BLAS_THREADS = 1  # with the pool threads this stays within nproc on any machine
SETUP_SAMPLES = 3  # this process plus two fresh set-up processes
PROBE_TIMEOUT_S = 150


def _median_quartiles(values) -> dict:
    """Median, quartiles and count; ``samples`` keeps the order they were taken in."""
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values), "samples": list(values)}


def _digest(run_dir: Path) -> dict:
    """sha256 of every output file except the manifest, which holds timestamps."""
    return {
        f.name: hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(run_dir.iterdir())
        if f.name != "manifest.json"
    }


def _git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    path = ROOT / ".git" / ref[5:]
    if path.is_file():
        return path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "ergolab").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


class Bench:
    """State of one benchmark invocation."""

    def __init__(self, args):
        import numpy
        import ergolab
        from ergolab import acceptance, arith, averaging, dynsys, experiments, gc_stats, harness

        if Path(ergolab.__file__).resolve().parent != SRC / "ergolab":
            raise RuntimeError(f"imported ergolab from {ergolab.__file__}, not from {SRC}")
        import oracle

        self.args = args
        self.numpy = numpy
        self.ergolab = ergolab
        self.harness = harness
        self.acceptance = acceptance
        self.modules = {"arith": arith, "harness": harness, "experiments": experiments,
                        "acceptance": acceptance, "gc_stats": gc_stats, "averaging": averaging,
                        "dynsys": dynsys}
        self.oracle = oracle
        self.wl = workloads.build(args.workload)
        self.work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.run_seconds: list[list[float]] = []  # per pass run by run_pass, in order
        self.problems: list[str] = []
        self.tracer = None

    # -- running -------------------------------------------------------------

    def _call(self, name, fn, *args, **kwargs):
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.call(name, fn, args, kwargs)

    def run_pass(self, out: Path, cache: Path, threads: int) -> list:
        """One pass; each entry is a run directory, a suite result, or None
        for a run that raised."""
        if self.wl.suite is not None:
            for value in vars(self.acceptance).values():
                if hasattr(value, "cache_clear"):  # memos must not carry over between passes
                    value.cache_clear()
            try:
                return [self._call("acceptance.run_suite", self.acceptance.run_suite, self.wl.suite)]
            except Exception:
                self.problems.append(traceback.format_exc())
                return [None]
        outcomes, seconds = [], []
        for name, config in self.wl.runs:
            t0 = time.perf_counter()
            try:
                outcomes.append(self._call(
                    "harness.run", self.harness.run_experiment, name, config,
                    seed=self.args.seed, out=out, threads=threads, cache=cache,
                ))
            except Exception:
                self.problems.append(f"{name} raised:\n{traceback.format_exc()}")
                outcomes.append(None)
            seconds.append(time.perf_counter() - t0)
        self.run_seconds.append(seconds)
        return outcomes

    def inspect(self, label, outcomes) -> list:
        """Untimed checks of one pass; counts attempted and failed runs (each
        criterion of a suite is one) and returns per-run fingerprints."""
        prints = []
        for i, outcome in enumerate(outcomes):
            if outcome is None:
                units, problems, fingerprint = 1, ["raised"], None
            elif self.wl.suite is not None:
                fingerprint = [(r.cid, r.name, r.passed, r.detail) for r in outcome]
                units = len(fingerprint)
                problems = [f"criterion {c} failed: {d}" for c, _, ok, d in fingerprint if not ok]
                if [r[0] for r in fingerprint] != list(self.acceptance.QUICK):
                    problems.append(f"suite ran criteria {[r[0] for r in fingerprint]}")
            else:
                units, fingerprint = 1, _digest(outcome)
                problems = self._checked(self.oracle.manifest_problems, outcome)
            self.attempted += units
            self.failed += min(units, len(problems))
            self.problems += [f"pass {label} run {i}: {p}" for p in problems]
            prints.append(fingerprint)
        self.passes += 1
        return prints

    @staticmethod
    def _checked(check, *args) -> list:
        """A check's problems; a check that raises (say, on a malformed CSV) is one more."""
        try:
            return check(*args)
        except Exception as exc:
            return [f"{check.__name__} raised {exc!r}"]

    def compare(self, label, prints, reference) -> None:
        """Outputs must be byte-identical to the first timed pass."""
        for i, (got, want) in enumerate(zip(prints, reference)):
            if got is not None and want is not None and got != want:
                self.failed += 1
                self.problems.append(f"pass {label} run {i}: output differs from pass 0")

    def setup(self) -> dict:
        """Config generation plus, for a warm workload, the pass that fills
        the sieve cache; returns the set-up seconds and the warm-up outcomes."""
        self.work.mkdir(parents=True, exist_ok=True)
        warm = None
        if self.wl.warm_cache:
            warm = self.run_pass(self.work / "warmup", self.work / "cache", self.wl.threads)
        return {"setup_s": time.perf_counter() - _PROCESS_START, "warm": warm}

    def probe_setup(self) -> float | None:
        """Set-up time of a fresh process running this same set-up."""
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--trace", "0", "--setup-probe"]
        self.attempted += 1
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROBE_TIMEOUT_S, check=True)
            return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]
        except (subprocess.SubprocessError, ValueError, KeyError, IndexError) as exc:
            self.failed += 1
            self.problems.append(f"set-up probe failed: {exc!r}")
            return None

    def timed_passes(self, trace: bool) -> dict:
        """Passes until --seconds have gone by, at least one; with tracing,
        untraced and traced passes alternate, at least one of each."""
        import tracer as tracing

        kept = {}
        samples = {"untraced": [], "traced": [], "cpu": []}
        layers, spans, missing = [], [], []
        first = time.perf_counter()
        k = 0
        while k < (2 if trace else 1) or time.perf_counter() - first < self.args.seconds:
            traced = trace and k % 2 == 1
            out = self.work / f"pass-{k}"
            cache = self.work / (f"cache-{k}" if self.wl.cold_cache else "cache")
            if traced:
                self.tracer = tracing.Tracer()
                missing = self.tracer.install(self.modules)
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                outcomes = self.run_pass(out, cache, self.wl.threads)
            finally:
                pass_s, cpu_s = time.perf_counter() - t0, time.process_time() - c0
                if traced:
                    self.tracer.uninstall()
            if traced:
                layers.append({**tracing.layer_metrics(self.tracer.spans), "process.cpu_s": cpu_s,
                               "trace.spans": len(self.tracer.spans)})
                spans += [dict(s.to_json(), passno=k) for s in self.tracer.spans]
                self.tracer = None
            samples["traced" if traced else "untraced"].append(pass_s)
            samples["cpu"].append(cpu_s)
            prints = self.inspect(k, outcomes)
            if k == 0:
                kept = {"outcomes": outcomes, "prints": prints, "cache": cache}
            else:
                self.compare(k, prints, kept["prints"])
                shutil.rmtree(out, ignore_errors=True)
                if self.wl.cold_cache:
                    shutil.rmtree(cache, ignore_errors=True)
            k += 1
        return {"samples": samples, "kept": kept, "layers": layers, "spans": spans,
                "missing_sites": missing}

    def check_outputs(self, kept, warm) -> None:
        """Exact values of the first timed pass against the references,
        then the warm-up and thread-count reruns against its bytes."""
        if warm is not None:
            self.compare("warmup", self.inspect("warmup", warm), kept["prints"])
        if self.wl.determinism_threads is not None:
            outcomes = self.run_pass(self.work / "threads", self.work / "cache-threads",
                                     self.wl.determinism_threads)
            self.compare(f"threads={self.wl.determinism_threads}",
                         self.inspect("threads", outcomes), kept["prints"])
        if self.wl.suite is not None:
            return
        ref = self.oracle.Reference(self.oracle.reference_limit(self.wl.runs))
        for i, run_dir in enumerate(kept["outcomes"]):
            if run_dir is None:
                continue
            problems = self._checked(self.oracle.check_run, run_dir, ref)
            if problems:
                # bytes match across passes, so a wrong value is wrong in every pass
                self.failed += self.passes
                self.problems += [f"run {i} ({run_dir.parent.name}): {p}" for p in problems]
        # the reference itself and the cache files are audited as one more check each
        for problems in (ref.self_check(), self._checked(self.oracle.check_cache, kept["cache"], ref)):
            self.attempted += 1
            self.failed += bool(problems)
            self.problems += problems

    def provenance(self) -> dict:
        np = self.numpy
        try:
            blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas = f"{blas.get('name')} {blas.get('version')}"
        except (TypeError, KeyError):
            blas = None
        return {
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "blas": blas,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "git_commit": _git_commit(),
            "source_sha256": _source_sha256(),
            "ergolab_version": self.ergolab.__version__,
            "workload": self.wl.name,
            "seed": self.args.seed,
            "threads": self.wl.threads,
            "determinism_threads": self.wl.determinism_threads,
            "run_list": [{"experiment": n, "config": c} for n, c in self.wl.runs]
            or [{"suite": self.wl.suite}],
        }


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _layer_unit(name: str) -> str:
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("entries_per_s"):
        return "1/s"
    if name.endswith("mb_per_s"):
        return "MB/s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def run(args) -> int:
    bench = Bench(args)
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": bench.setup()["setup_s"]}))
            return 0
        setup = bench.setup()
        phases = {"setup": setup["setup_s"]}
        t = time.perf_counter()
        timed = bench.timed_passes(trace=bool(args.trace))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        phases["passes"], t = time.perf_counter() - t, time.perf_counter()
        bench.check_outputs(timed["kept"], setup["warm"])
        phases["checks"], t = time.perf_counter() - t, time.perf_counter()
        setup_samples = [setup["setup_s"]]
        if not args.trace:
            setup_samples += [s for s in (bench.probe_setup() for _ in range(SETUP_SAMPLES - 1))
                              if s is not None]
        phases["setup_probes"] = time.perf_counter() - t
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)

    samples = timed["samples"]
    report = {
        "provenance": bench.provenance(),
        "pass_s": _median_quartiles(samples["untraced"]),
        "setup_s": _median_quartiles(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "cpu_s": _median_quartiles(samples["cpu"]),
        "attempted": bench.attempted,
        "failed": bench.failed,
        "failed_ratio": bench.failed / bench.attempted,
        "problems": bench.problems,
        "phase_s": phases,
        "run_s": bench.run_seconds,
    }
    if args.trace:
        traced = _median_quartiles(samples["traced"])
        layers = {
            name: statistics.median(p[name] for p in timed["layers"]) for name in timed["layers"][0]
        }
        layers["trace.pass_s"] = traced["median"]
        layers["trace.untraced_pass_s"] = report["pass_s"]["median"]
        layers["trace.overhead_s"] = traced["median"] - report["pass_s"]["median"]
        report.update(traced_pass_s=traced, layers=layers, missing_sites=timed["missing_sites"])
        metrics = {name: _metric(v, _layer_unit(name)) for name, v in layers.items()}
    else:
        metrics = {
            "pass_s": _metric(report["pass_s"]["median"], "s"),
            "setup_s": _metric(report["setup_s"]["median"], "s"),
            "peak_rss_mb": _metric(peak_rss_mb, "MiB"),
        }

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trace:
        with open(OUT / f"{stem}-spans.jsonl", "w") as fh:
            for span in timed["spans"]:
                fh.write(json.dumps(span) + "\n")

    for problem in bench.problems:
        print(problem, file=sys.stderr)
    p = report["pass_s"]
    print(f"workload {args.workload}  seed {args.seed}  threads {bench.wl.threads}  "
          f"blas_threads {BLAS_THREADS}  nproc {os.cpu_count()}")
    print(f"pass_s        {p['median']:.4f} s    q1 {p['q1']:.4f}  q3 {p['q3']:.4f}  n {p['n']}")
    if args.trace:
        print(f"traced pass_s {traced['median']:.4f} s    overhead {layers['trace.overhead_s']:+.4f} s")
    else:
        s = report["setup_s"]
        print(f"setup_s       {s['median']:.4f} s    q1 {s['q1']:.4f}  q3 {s['q3']:.4f}  n {s['n']}")
    print(f"peak_rss_mb   {peak_rss_mb:.1f} MiB")
    print(f"failed_ratio  {report['failed_ratio']:.4f} ratio  ({bench.failed} of {bench.attempted})")
    print(f"report        {(OUT / stem).relative_to(ROOT)}.json")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (SRC / "ergolab" / "__init__.py").is_file():
        print(f"error: {SRC / 'ergolab'} not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)  # read when numpy loads
    sys.path.insert(0, str(SRC))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
