"""Detection-quality gate: the Table IX variants against the committed F1.

Runs all six Table IX variants (``bench_table9_ablation.VARIANTS``) on
smd and j-d1 at the small bench scale and checks two things:

* **F1 per cell** against ``results/table9.json``: bitwise equal by
  default, or within ``--tolerance`` (absolute F1) for a change that
  states one;
* **the claims that hold here**, in either mode: MACE beats every
  baseline F1 of ``results/table5.json`` on both datasets, and each of
  the context-aware DFT, dualistic conv (freq), characterization and
  pattern-extraction ablations scores below MACE on both datasets.

It does not check what does not hold in this reproduction: MACE ranks
low on j-d2 and smap, and removing the time amplifier raises F1.

    python benchmarks/quality.py                      # bitwise
    python benchmarks/quality.py --tolerance 0.01     # absolute F1
    python benchmarks/quality.py --table9 old.json --tolerance 0.01

Exit status 0 when every check passes, 1 otherwise.  Writes no file.
Like every bench it runs with one BLAS thread (``common`` pins it), so
``python -m pytest benchmarks/bench_table9_ablation.py`` regenerates a
``table9.json`` this gate reproduces bitwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_table9_ablation import compute_table  # noqa: E402
from common import RESULTS_DIR, SCALE  # noqa: E402

DATASETS = ("smd", "j-d1")
ABLATIONS = ("no context-aware DFT/IDFT", "no dualistic conv (freq)",
             "no frequency characterization", "no pattern extraction")


def check(measured: dict, table9: dict, table5: dict,
          tolerance: float | None) -> list:
    """Failure messages of the F1 comparison and the claims."""
    failures = []
    for dataset, per_variant in measured.items():
        for variant, f1 in per_variant.items():
            expected = table9[dataset][variant]
            if tolerance is None:
                ok = f1 == expected
            else:
                ok = abs(f1 - expected) <= tolerance
            if not ok:
                failures.append(f"{dataset} / {variant}: F1 {f1!r} vs "
                                f"committed {expected!r}")
        mace = per_variant["MACE"]
        for name, row in table5[dataset].items():
            if name != "MACE" and not mace > row["f1"]:
                failures.append(f"{dataset}: MACE F1 {mace:.4f} does not "
                                f"beat {name} ({row['f1']:.4f})")
        for variant in ABLATIONS:
            if not per_variant[variant] < mace:
                failures.append(f"{dataset}: ablation '{variant}' "
                                f"({per_variant[variant]:.4f}) does not "
                                f"score below MACE ({mace:.4f})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--tolerance", type=float, default=None,
                        help="absolute F1 tolerance per cell "
                             "(default: bitwise equality)")
    parser.add_argument("--table9", type=Path,
                        default=RESULTS_DIR / "table9.json")
    args = parser.parse_args(argv)
    if SCALE != "small":
        parser.error("the committed tables are at the small bench scale; "
                     "unset REPRO_BENCH_SCALE")
    table9 = json.loads(args.table9.read_text())["measured"]
    table5_path = RESULTS_DIR / "table5.json"
    table5 = json.loads(table5_path.read_text())["measured"]

    started = time.perf_counter()
    results = compute_table(DATASETS)
    elapsed = time.perf_counter() - started
    measured = {dataset: {variant: outcome.f1
                          for variant, outcome in per_variant.items()}
                for dataset, per_variant in results.items()}

    for dataset, per_variant in measured.items():
        for variant, f1 in per_variant.items():
            expected = table9[dataset][variant]
            print(f"{dataset:5s} {variant:31s} F1 {f1:.6f}  committed "
                  f"{expected:.6f}  diff {f1 - expected:+.2e}")
    failures = check(measured, table9, table5, args.tolerance)
    mode = ("bitwise" if args.tolerance is None
            else f"tolerance {args.tolerance:g}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    verdict = "FAIL" if failures else "ok"
    print(f"quality {verdict} ({mode}, against {args.table9}): "
          f"{len(DATASETS) * len(measured[DATASETS[0]])} cells, "
          f"{elapsed:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
