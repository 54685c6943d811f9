"""Fig. 6(a) — time and memory overhead of every method.

The paper profiles training on one SMD subset group.  We do the same on
the shared NumPy substrate: wall-clock seconds to fit one unified group and
peak traced memory.  The claims to preserve: MACE's cost is in the
VAE/ProS class, far below the recurrent (OmniAnomaly/MSCRED) and
attention (DCdetector/AnomalyTransformer/TranAD) baselines; JumpStarter's
*inference* is disproportionately slow.

MACE runs in float64 here, like every baseline (``BaselineConfig`` has no
precision knob), so the comparison is like for like; its float32 default
is faster still (EXPERIMENTS.md).
"""

import time

from common import (
    baseline_factory,
    bench_dataset,
    mace_factory,
    run_once,
    save_results,
    scale_params,
)
from repro.eval import ResourceProfile, format_table, profile_call

METHODS = ("DCdetector", "AnomalyTransformer", "DVGCRN", "OmniAnomaly",
           "MSCRED", "TranAD", "ProS", "VAE", "JumpStarter")


def compute():
    params = scale_params()
    dataset = bench_dataset("smd")
    group = dataset.services[:params["group_size"]]
    ids = [s.service_id for s in group]
    trains = [s.train for s in group]
    probe = group[0]

    profiles = {}
    for method in METHODS + ("MACE",):
        factory = (mace_factory(dtype="float64") if method == "MACE"
                   else baseline_factory(method))
        detector = factory()
        fit_profile = profile_call(detector.fit, ids, trains)
        started = time.perf_counter()
        detector.score(probe.service_id, probe.test)
        inference = time.perf_counter() - started
        profiles[method] = {
            "train_seconds": fit_profile.wall_seconds,
            "peak_memory_mb": fit_profile.peak_memory_mb,
            "inference_seconds": inference,
        }
    return profiles


def test_fig6a_efficiency(benchmark):
    profiles = run_once(benchmark, compute)
    print()
    rows = [
        (method, stats["train_seconds"], stats["inference_seconds"],
         stats["peak_memory_mb"])
        for method, stats in sorted(profiles.items(),
                                    key=lambda kv: kv[1]["train_seconds"])
    ]
    print(format_table(
        ("method", "train s", "inference s", "peak MB"), rows,
        title="Fig. 6(a) — training time / inference time / peak memory "
              "(one SMD group)",
    ))
    save_results("fig6a", profiles)

    # Shape claims from the paper:
    # 1. MACE trains faster than the recurrent and attention baselines.
    heavy = ("OmniAnomaly", "MSCRED", "DCdetector", "AnomalyTransformer",
             "TranAD", "DVGCRN")
    mace_time = profiles["MACE"]["train_seconds"]
    slower = [m for m in heavy
              if profiles[m]["train_seconds"] > mace_time]
    assert len(slower) >= 4, (
        f"MACE ({mace_time:.1f}s) should undercut most heavy baselines; "
        f"only {slower} were slower"
    )
    # 2. JumpStarter is the one method whose cost sits at inference time
    #    rather than training time (paper §II: "rapid initialization" but
    #    "significant inference time overhead").  Our lite reconstruction
    #    (batched least squares) is absolutely faster than the original's
    #    iterative compressed-sensing solver, so the preserved claim is the
    #    *ratio*: inference dwarfs training for JumpStarter and for no one
    #    else by as much.
    ratios = {
        method: stats["inference_seconds"] / max(stats["train_seconds"], 1e-9)
        for method, stats in profiles.items()
    }
    assert max(ratios, key=ratios.get) == "JumpStarter", (
        f"JumpStarter should have the highest inference/train ratio: {ratios}"
    )
