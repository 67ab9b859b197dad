"""Output hashes of the byte-identity run list (95 runs).

    python tests/byte_identity.py [--only GROUP ...] [--out MAP.json] [--compare FILE]

Runs every experiment of the list in one process, on one fresh sieve cache,
and prints ``{run: {file: sha256}}`` (every output but ``manifest.json``)
as JSON, then the sha256 of that map dumped with sorted keys.  The groups:

- ``RUNS t1`` / ``RUNS t2``: ``acceptance.RUNS`` at seed 0, threads 1 and 2;
- ``default``: every registry experiment at its defaults (admissible with
  block [1, 2], its one required key), seed 0;
- ``montecarlo t1`` / ``montecarlo t2``, ``nt-warm``, ``tables-cold``: the
  benchmark's run lists (``perfbench/workloads.py``) at seed 1;
- ``veech``: the four sign rules at the defaults and at w 3, budget 64, and
  one explicit spec (``VEECH_EXPLICIT``).

``--only`` keeps the runs whose label starts with one of the given groups.
``--compare FILE`` reads a map written by ``--out`` or a ``BENCH_<n>.json``
whose ``byte_identity.hashes`` holds one, lists every selected run whose
hashes differ or that FILE lacks, and exits 1 if there is any.  pytest does
not collect this file (its name does not start with ``test_``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from ergolab.acceptance import RUNS  # noqa: E402
from ergolab.harness import REGISTRY, run_experiment  # noqa: E402
from workloads import build  # noqa: E402

SIGN_RULES = ("alternating", "plus", "minus", "mertens")
DEFAULT_CONFIGS = {"admissible": {"block": [1, 2]}}
# the explicit veech spec of the "veech explicit" run: triangular starts and
# alternating signs, one sign per gap between starts
VEECH_EXPLICIT = {
    "spec": {"starts": [1, 3, 6, 10, 15, 21, 28, 36], "signs": [1, -1, 1, -1, 1, -1, 1]},
    "w": 1,
    "budget": 64,
}


def run_list() -> list:
    """(label, experiment, config, seed, threads) for every run, in order."""
    runs = []
    for threads in (1, 2):
        runs += [(f"RUNS t{threads} {label}", name, config, 0, threads) for label, (name, config) in RUNS.items()]
    runs += [(f"default {name}", name, DEFAULT_CONFIGS.get(name), 0, 1) for name in REGISTRY]
    for threads in (1, 2):
        runs += [(f"montecarlo t{threads} {i} {name}", name, config, 1, threads)
                 for i, (name, config) in enumerate(build("montecarlo").runs)]
    for workload in ("nt-warm", "tables-cold"):
        runs += [(f"{workload} {i} {name}", name, config, 1, 1) for i, (name, config) in enumerate(build(workload).runs)]
    for rule in SIGN_RULES:
        spec = {"spec": {"generator": "triangular", "sign_rule": rule}}
        runs += [(f"veech {rule}", "veech", spec, 0, 1), (f"veech {rule} w3 b64", "veech", {**spec, "w": 3, "budget": 64}, 0, 1)]
    runs.append(("veech explicit", "veech", VEECH_EXPLICIT, 0, 1))
    return runs


def hashes(runs) -> dict:
    """{label: {file: sha256}} of every output but the manifest of each run."""
    out = {}
    with tempfile.TemporaryDirectory(prefix="byte-identity-") as tmp:
        for label, name, config, seed, threads in runs:
            run_dir = run_experiment(name, config, seed=seed, out=Path(tmp) / "runs", threads=threads,
                                     cache=Path(tmp) / "cache")
            out[label] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                          for p in sorted(run_dir.iterdir()) if p.name != "manifest.json"}
    return out


def map_digest(mapping: dict) -> str:
    return hashlib.sha256(json.dumps(mapping, sort_keys=True).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", metavar="GROUP", help="keep runs whose label starts with a GROUP")
    parser.add_argument("--out", type=Path, help="also write the map to this JSON file")
    parser.add_argument("--compare", type=Path, help="a map from --out, or a BENCH_<n>.json with byte_identity")
    args = parser.parse_args(argv)
    runs = [r for r in run_list() if not args.only or r[0].startswith(tuple(args.only))]
    if not runs:
        parser.error("no run matches --only")
    got = hashes(runs)
    print(json.dumps(got, indent=1, sort_keys=True))
    print(f"{len(got)} runs, sha256 of the sorted map: {map_digest(got)}")
    if args.out:
        args.out.write_text(json.dumps(got, sort_keys=True) + "\n")
    if args.compare is None:
        return 0
    doc = json.loads(args.compare.read_text())
    expected = doc["byte_identity"]["hashes"] if "byte_identity" in doc else doc
    differ = [label for label in got if expected.get(label) != got[label]]
    for label in differ:
        print(f"differs: {label}" if label in expected else f"missing in {args.compare}: {label}")
    print(f"{len(got) - len(differ)} of {len(got)} runs match {args.compare}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
