"""Table IX — ablation: remove each MACE module in turn.

Variants (matching the paper's rows):

* Context-aware DFT & IDFT → vanilla full-spectrum DFT/IDFT;
* Dualistic Convolution (F) → standard convolution in the autoencoder;
* Dualistic Convolution (T) → no stage-1 amplifier;
* Frequency Characterization → drop the marked-basis channels;
* Pattern extraction → vanilla DFT/IDFT *and* no characterization markers.

The MACE row is Table V's MACE run (same detector, groups and protocol),
so it matches the MACE rows ``bench_table5_unified`` writes.
"""

from common import (
    PAPER_TABLE9_F1,
    TABLE_DATASETS,
    bench_dataset,
    mace_factory,
    run_once,
    save_results,
    scale_params,
)
from repro.data import unified_groups
from repro.eval import format_table, run_unified

VARIANTS = {
    "no context-aware DFT/IDFT": dict(context_aware=False),
    "no dualistic conv (freq)": dict(use_dualistic_freq=False),
    "no dualistic conv (time)": dict(use_time_amplifier=False),
    "no frequency characterization": dict(use_characterization_markers=False),
    "no pattern extraction": dict(context_aware=False,
                                  use_characterization_markers=False),
    "MACE": {},
}


def compute_table(datasets=TABLE_DATASETS):
    params = scale_params()
    results = {}
    for dataset_name in datasets:
        dataset = bench_dataset(dataset_name)
        groups = unified_groups(dataset, params["group_size"])
        per_variant = {}
        for variant_name, overrides in VARIANTS.items():
            per_variant[variant_name] = run_unified(
                mace_factory(**overrides), groups
            )
        results[dataset_name] = per_variant
    return results


def test_table9_ablation(benchmark):
    results = run_once(benchmark, compute_table)
    print()
    measured = {}
    for dataset_name, per_variant in results.items():
        rows = []
        measured[dataset_name] = {}
        for variant_name, outcome in per_variant.items():
            measured[dataset_name][variant_name] = outcome.f1
            rows.append((variant_name, outcome.precision, outcome.recall,
                         outcome.f1,
                         PAPER_TABLE9_F1[variant_name][dataset_name]))
        print(format_table(
            ("variant", "precision", "recall", "F1", "paper F1"), rows,
            title=f"Table IX [{dataset_name}] — module ablation",
        ))
        print()
    save_results("table9", {"measured": measured, "paper": PAPER_TABLE9_F1})

    # Shape: the full model is at least as good as (almost) every ablation
    # on the diverse dataset, and the pattern-extraction ablation hurts most
    # where patterns are diverse (smd) and least where they are similar
    # (j-d2) — the paper's central ablation claim.
    smd = results["smd"]
    full = smd["MACE"].f1
    degraded = [name for name, outcome in smd.items()
                if name != "MACE" and outcome.f1 < full + 0.02]
    assert len(degraded) >= 3, (
        f"expected most ablations to hurt on smd; only {degraded} did"
    )
    drop_smd = results["smd"]["MACE"].f1 - results["smd"]["no pattern extraction"].f1
    drop_jd2 = results["j-d2"]["MACE"].f1 - results["j-d2"]["no pattern extraction"].f1
    assert drop_smd > drop_jd2 - 0.02, (
        "pattern extraction should matter more on diverse patterns"
    )
