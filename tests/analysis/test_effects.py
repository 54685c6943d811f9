"""repro.analysis.effects + purity: effect inference, contract, baseline.

Synthetic packages exercise each effect atom and the interprocedural
machinery in isolation; the final classes run the analyzer over the real
``repro`` package and pin the shipped contract (zero unaudited findings,
byte-identical reports, the DET/FS part of analysis_baseline.json
round-tripping through the one gate).
"""

import json
import os

import pytest

from repro.analysis.audit import gate, load_baseline, write_baseline
from repro.analysis.effects import analyze_package, parse_annotations
from repro.analysis.purity import DETERMINISM_ROOTS, check_roots, effects_report


def make_pkg(tmp_path, files):
    """Write ``files`` (relative path -> source) as package ``pkg``."""
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return analyze_package(root=root)


def atoms_of(model, qname):
    return set(model.signature(qname))


class TestIntrinsicSites:
    def test_time_call_and_bare_reference(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "def stamp():\n"
            "    return time.time()\n"
            "def indirect():\n"
            "    clock = time.perf_counter\n"
            "    return clock\n"
        )})
        assert atoms_of(model, "pkg.mod.stamp") == {"TIME"}
        assert atoms_of(model, "pkg.mod.indirect") == {"TIME"}

    def test_datetime_now(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import datetime\n"
            "def stamp():\n"
            "    return datetime.datetime.now()\n"
        )})
        assert atoms_of(model, "pkg.mod.stamp") == {"TIME"}

    def test_sleep_is_not_a_time_read(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "def wait():\n"
            "    time.sleep(0.1)\n"
        )})
        assert atoms_of(model, "pkg.mod.wait") == set()

    def test_global_rng_numpy_and_stdlib(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import numpy as np\n"
            "import random\n"
            "def a():\n"
            "    return np.random.rand(3)\n"
            "def b():\n"
            "    return random.random()\n"
        )})
        assert atoms_of(model, "pkg.mod.a") == {"RNG_GLOBAL"}
        assert atoms_of(model, "pkg.mod.b") == {"RNG_GLOBAL"}

    def test_from_numpy_random_import_alias(self, tmp_path):
        # the REP101 lint cannot see this alias form; the effect
        # analyzer resolves the import map instead of pattern matching
        model = make_pkg(tmp_path, {"mod.py": (
            "from numpy.random import rand\n"
            "def a():\n"
            "    return rand(3)\n"
        )})
        assert atoms_of(model, "pkg.mod.a") == {"RNG_GLOBAL"}

    def test_seeded_generator_is_the_allowed_atom(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import numpy as np\n"
            "def a(rng):\n"
            "    return rng.standard_normal(3)\n"
            "def b():\n"
            "    rng = np.random.default_rng(0)\n"
            "    return rng\n"
        )})
        assert atoms_of(model, "pkg.mod.a") == {"RNG_SEEDED"}
        assert atoms_of(model, "pkg.mod.b") == {"RNG_SEEDED"}

    def test_fs_order_flagged_and_sorted_cleared(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import glob\n"
            "import os\n"
            "def bad(root):\n"
            "    return glob.glob(root)\n"
            "def good(root):\n"
            "    return sorted(os.listdir(root))\n"
            "def assigned(root):\n"
            "    found = glob.glob(root)\n"
            "    return sorted(found)\n"
        )})
        assert atoms_of(model, "pkg.mod.bad") == {"FS_ORDER"}
        assert atoms_of(model, "pkg.mod.good") == set()
        assert atoms_of(model, "pkg.mod.assigned") == set()

    def test_pathlib_iterdir(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "def bad(path):\n"
            "    return [p for p in path.iterdir()]\n"
            "def good(path):\n"
            "    return sorted(path.iterdir())\n"
        )})
        assert atoms_of(model, "pkg.mod.bad") == {"FS_ORDER"}
        assert atoms_of(model, "pkg.mod.good") == set()

    def test_unordered_iteration_over_sets(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "def for_loop(items):\n"
            "    pool = set(items)\n"
            "    out = []\n"
            "    for item in pool:\n"
            "        out.append(item)\n"
            "    return out\n"
            "def float_sum(items):\n"
            "    pool = set(items)\n"
            "    return sum(pool)\n"
            "def sorted_ok(items):\n"
            "    pool = set(items)\n"
            "    return sorted(pool)\n"
            "def literal_union(a, b):\n"
            "    return list(set(a) | set(b))\n"
        )})
        assert atoms_of(model, "pkg.mod.for_loop") == {"UNORDERED_ITER"}
        assert atoms_of(model, "pkg.mod.float_sum") == {"UNORDERED_ITER"}
        assert atoms_of(model, "pkg.mod.sorted_ok") == set()
        assert atoms_of(model, "pkg.mod.literal_union") == {"UNORDERED_ITER"}

    def test_dict_iteration_is_exempt(self, tmp_path):
        # CPython dicts are insertion-ordered; only set order depends on
        # PYTHONHASHSEED across processes
        model = make_pkg(tmp_path, {"mod.py": (
            "def over_dict(mapping):\n"
            "    return [key for key in mapping.keys()]\n"
        )})
        assert atoms_of(model, "pkg.mod.over_dict") == set()

    def test_env_reads(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import os\n"
            "def a():\n"
            "    return os.environ.get('HOME')\n"
            "def b():\n"
            "    return os.getenv('HOME')\n"
        )})
        assert atoms_of(model, "pkg.mod.a") == {"ENV"}
        assert atoms_of(model, "pkg.mod.b") == {"ENV"}

    def test_id_hash(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "def key(obj):\n"
            "    return id(obj)\n"
        )})
        assert atoms_of(model, "pkg.mod.key") == {"ID_HASH"}


class TestCallGraph:
    def test_effects_propagate_through_calls(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "def leaf():\n"
            "    return time.time()\n"
            "def middle():\n"
            "    return leaf()\n"
            "def root():\n"
            "    return middle()\n"
        )})
        assert atoms_of(model, "pkg.mod.root") == {"TIME"}

    def test_cross_module_propagation(self, tmp_path):
        model = make_pkg(tmp_path, {
            "clock.py": ("import time\n"
                         "def stamp():\n"
                         "    return time.time()\n"),
            "mod.py": ("from pkg.clock import stamp\n"
                       "def root():\n"
                       "    return stamp()\n"),
        })
        assert atoms_of(model, "pkg.mod.root") == {"TIME"}

    def test_method_dispatch_through_attribute_type(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "class Clock:\n"
            "    def now(self):\n"
            "        return time.time()\n"
            "class Holder:\n"
            "    def __init__(self):\n"
            "        self.clock = Clock()\n"
            "    def run(self):\n"
            "        return self.clock.now()\n"
        )})
        assert atoms_of(model, "pkg.mod.Holder.run") == {"TIME"}

    def test_instance_call_dispatches_to_dunder_call(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "class Model:\n"
            "    def __call__(self):\n"
            "        return self.forward()\n"
            "    def forward(self):\n"
            "        return time.time()\n"
            "class Trainer:\n"
            "    def __init__(self):\n"
            "        self.model = Model()\n"
            "    def fit(self):\n"
            "        return self.model()\n"
        )})
        assert atoms_of(model, "pkg.mod.Trainer.fit") == {"TIME"}

    def test_subclass_override_dispatch(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "class Base:\n"
            "    def forward(self):\n"
            "        raise NotImplementedError\n"
            "    def run(self):\n"
            "        return self.forward()\n"
            "class Timed(Base):\n"
            "    def forward(self):\n"
            "        return time.time()\n"
            "def drive(item: Base):\n"
            "    return item.run()\n"
        )})
        assert atoms_of(model, "pkg.mod.drive") == {"TIME"}

    def test_attribute_of_a_typed_call_result(self, tmp_path):
        # the StreamingDetector pattern: ``self._require(id).spot.step()``
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "class Spot:\n"
            "    def step(self):\n"
            "        return time.time()\n"
            "class Stream:\n"
            "    def __init__(self, spot: Spot):\n"
            "        self.spot = spot\n"
            "class Detector:\n"
            "    def _require(self, key) -> Stream:\n"
            "        return Stream(Spot())\n"
            "    def update(self, key):\n"
            "        stream = self._require(key)\n"
            "        return stream.spot.step() + self._require(key).spot.step()\n"
        )})
        assert atoms_of(model, "pkg.mod.Detector.update") == {"TIME"}

    def test_function_passed_to_a_repo_function(self, tmp_path):
        # the fit_gpd pattern: ``_fmin(_objective, x0, data)``
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "def objective(x):\n"
            "    return time.time() + x\n"
            "def minimise(func, x0):\n"
            "    return func(x0)\n"
            "def fit():\n"
            "    return minimise(objective, 1.0)\n"
            "def fit_by_keyword():\n"
            "    return minimise(func=objective, x0=1.0)\n"
        )})
        assert atoms_of(model, "pkg.mod.fit") == {"TIME"}
        assert atoms_of(model, "pkg.mod.fit_by_keyword") == {"TIME"}

    def test_function_handed_outside_the_repo_is_not_an_edge(self,
                                                              tmp_path):
        # process and thread targets run under their own roots
        model = make_pkg(tmp_path, {"mod.py": (
            "import threading\n"
            "import time\n"
            "def job():\n"
            "    return time.time()\n"
            "def launch():\n"
            "    return threading.Thread(target=job)\n"
        )})
        assert atoms_of(model, "pkg.mod.launch") == set()

    def test_with_statement_reaches_enter_and_exit(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "class Span:\n"
            "    def __enter__(self):\n"
            "        self.start = time.perf_counter()\n"
            "        return self\n"
            "    def __exit__(self, *exc):\n"
            "        return False\n"
            "def span() -> Span:\n"
            "    return Span()\n"
            "def root():\n"
            "    with span():\n"
            "        return 1\n"
        )})
        assert atoms_of(model, "pkg.mod.root") == {"TIME"}

    def test_nested_function_is_part_of_parent(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "def outer():\n"
            "    def inner():\n"
            "        return time.time()\n"
            "    return inner\n"
        )})
        assert atoms_of(model, "pkg.mod.outer") == {"TIME"}

    def test_function_local_import(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "def root():\n"
            "    import time\n"
            "    return time.time()\n"
        )})
        assert atoms_of(model, "pkg.mod.root") == {"TIME"}

    def test_clock_stored_from_parameter_default(self, tmp_path):
        # the EventLog(clock=time.time) pattern: the wall-clock read
        # hides behind a stored callable parameter default
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "class Log:\n"
            "    def __init__(self, clock=time.time):\n"
            "        self._clock = clock\n"
            "    def emit(self):\n"
            "        return self._clock()\n"
        )})
        assert "TIME" in atoms_of(model, "pkg.mod.Log.emit")


class TestAnnotations:
    def test_audited_site_is_suppressed_not_silenced(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "def root():\n"
            "    return time.time()  # effects: ok TIME reason=telemetry\n"
        )})
        assert model.signature("pkg.mod.root") == {"TIME": "audited"}
        findings = check_roots(model, roots=("pkg.mod.root",))
        assert len(findings) == 1
        assert findings[0].suppressed
        assert "telemetry" in findings[0].message

    def test_marker_in_docstring_is_inert(self):
        source = ('"""Docs mention # effects: ok TIME reason=x here."""\n'
                  "X = 1\n")
        assert parse_annotations(source, "mod.py") == {}

    def test_malformed_annotation(self):
        notes = parse_annotations("x = 1  # effects: ok\n", "mod.py")
        assert notes[1].malformed

    def test_unknown_atom_is_malformed(self):
        notes = parse_annotations(
            "x = 1  # effects: ok WARP reason=n/a\n", "mod.py")
        assert notes[1].malformed
        assert "WARP" in notes[1].problem

    def test_stale_annotation_becomes_det508(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "def pure():\n"
            "    return 1  # effects: ok TIME reason=left behind\n"
        )})
        findings = check_roots(model, roots=("pkg.mod.pure",))
        assert [f.rule for f in findings] == ["DET508"]
        assert not findings[0].suppressed

    def test_wrong_atom_does_not_audit(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "def root():\n"
            "    return time.time()  # effects: ok ENV reason=wrong\n"
        )})
        findings = check_roots(model, roots=("pkg.mod.root",))
        rules = sorted(f.rule for f in findings)
        # the TIME site stays active AND the ENV annotation is stale
        assert rules == ["DET502", "DET508"]
        assert not any(f.suppressed for f in findings)


class TestContract:
    def test_provenance_chain_in_message(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "def leaf():\n"
            "    return time.time()\n"
            "def middle():\n"
            "    return leaf()\n"
            "def root():\n"
            "    return middle()\n"
        )})
        findings = check_roots(model, roots=("pkg.mod.root",))
        assert len(findings) == 1
        assert "root -> middle -> leaf reads time.time" in \
            findings[0].message
        hops = [frame[2].split(".")[-1]
                for frame in findings[0].frames[:-1]]
        assert hops == ["root", "middle", "leaf"]
        assert findings[0].frames[-1][2] == "reads time.time"

    def test_missing_root_is_det507(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": "X = 1\n"})
        findings = check_roots(model, roots=("pkg.mod.nope",))
        assert [f.rule for f in findings] == ["DET507"]
        assert findings[0].severity == "error"

    def test_rng_seeded_never_fires(self, tmp_path):
        model = make_pkg(tmp_path, {"mod.py": (
            "def root(rng):\n"
            "    return rng.standard_normal(3)\n"
        )})
        assert check_roots(model, roots=("pkg.mod.root",)) == []


class TestBaseline:
    def _report(self, tmp_path, audited=True):
        marker = "  # effects: ok TIME reason=telemetry" if audited else ""
        model = make_pkg(tmp_path, {"mod.py": (
            "import time\n"
            "def root():\n"
            f"    return time.time(){marker}\n"
        )})
        report = effects_report(model, roots=("pkg.mod.root",))
        return report

    def test_roundtrip_and_exact_match(self, tmp_path):
        report = self._report(tmp_path)
        path = tmp_path / "analysis_baseline.json"
        write_baseline(str(path), report)
        baseline = load_baseline(str(path))
        assert len(baseline) == 1
        assert gate(report, baseline) == ([], [], [])

    def test_unaudited_always_fails(self, tmp_path):
        report = self._report(tmp_path, audited=False)
        unaudited, _, _ = gate(report)
        assert [f.rule for f in unaudited] == ["DET502"]

    def test_new_audited_finding_fails(self, tmp_path):
        report = self._report(tmp_path)
        _, new, _ = gate(report, [])
        assert len(new) == 1

    def test_vanished_finding_fails(self, tmp_path):
        report = self._report(tmp_path)
        _, _, vanished = gate(report, ["DET999|gone|x|y|z.py"])
        assert len(vanished) == 1

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "analysis_baseline.json"
        path.write_text(json.dumps({"version": 99, "audited": []}),
                        encoding="utf-8")
        with pytest.raises(ValueError):
            load_baseline(str(path))


@pytest.fixture(scope="module")
def repo_report():
    return effects_report()


def _committed_effect_fingerprints():
    """The DET/FS entries of the one baseline (graph entries are DFxxx)."""
    return [fp for fp in load_baseline("analysis_baseline.json")
            if fp.startswith(("DET", "FS"))]


class TestRealRepository:
    """The shipped contract: the repo passes its own determinism gate."""

    def test_all_roots_found(self, repo_report):
        assert all(row["found"] for row in repo_report["roots"])
        assert len(repo_report["roots"]) == len(DETERMINISM_ROOTS)

    def test_zero_unaudited_findings(self, repo_report):
        active = [f for f in repo_report["_findings"] if not f.suppressed]
        assert active == []

    def test_trainer_fit_reaches_telemetry_clock(self, repo_report):
        # the canonical audited chain: fit -> span -> perf_counter
        messages = [f.message for f in repo_report["_findings"]
                    if f.rule == "DET502" and f.model == "MaceTrainer.fit"]
        assert any("__enter__ reads time.perf_counter" in m
                   for m in messages)

    def test_serving_update_reaches_the_gpd_fit(self):
        # SPOT refits inside ServingRuntime.update; the objective is
        # passed to the simplex by name
        model = analyze_package()
        order, _ = model.reachable(
            "repro.runtime.serving.ServingRuntime.update")
        assert {"repro.eval.spot.Spot._refit", "repro.eval.gpd.fit_gpd",
                "repro.eval.gpd._penalized_nll",
                "repro.eval.gpd._log"} <= set(order)

    def test_matches_committed_baseline(self, repo_report):
        expected = _committed_effect_fingerprints()
        assert gate(repo_report, expected) == ([], [], [])

    def test_rewrite_reproduces_committed_baseline(self, repo_report,
                                                   tmp_path):
        path = tmp_path / "analysis_baseline.json"
        write_baseline(str(path), repo_report)
        assert load_baseline(str(path)) == _committed_effect_fingerprints()

    def test_report_is_byte_identical_across_runs(self, repo_report):
        # the analyzer must pass its own determinism bar: no timing, no
        # hash-order dependence anywhere in the report path
        def render(report):
            payload = {key: value for key, value in report.items()
                       if not key.startswith("_")}
            return json.dumps(payload, indent=2, sort_keys=True)

        assert render(repo_report) == render(effects_report())

    def test_report_paths_are_repo_relative(self, repo_report):
        # ``repro analyze --json`` must read the same from any checkout
        import repro

        payload = json.dumps({key: value for key, value in repo_report.items()
                              if not key.startswith("_")})
        checkout = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__))))
        assert checkout not in payload
        files = {row["file"] for row in repo_report["findings"]}
        assert files and all(path.startswith("src/repro/") for path in files)
