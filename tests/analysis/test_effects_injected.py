"""Injected nondeterminism bugs: the effect analyzer catches what the
lint, the contract checker, and the graph dataflow analyzer cannot.

Four seeded bug classes, each written the way the mistake actually
appears in review (the bug is injected into a synthetic package, and
the test proves (a) the effect analyzer reports it with the right rule
and a correct provenance chain, and (b) what the AST lint makes of the
same source).  The lint resolves imports through the effect analyzer's
own resolver, so it flags the aliased global-RNG draw too; the other
three bugs live in dataflow the lint's per-call matching cannot see:

1. global RNG in a scorer, hidden behind ``from numpy.random import``
2. ``time.time()`` leaking into a checkpoint payload
3. unsorted ``glob`` feeding dataset loading order
4. a float reduction folded in set iteration order
"""

from repro.analysis.effects import analyze_package
from repro.analysis.lint import lint_source
from repro.analysis.purity import check_roots


def make_pkg(tmp_path, files):
    root = tmp_path / "pkg"
    root.mkdir(exist_ok=True)
    (root / "__init__.py").write_text("", encoding="utf-8")
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return analyze_package(root=root)


class TestGlobalRngInScorer:
    SOURCE = (
        "import numpy as np\n"
        "from numpy.random import rand\n"
        "\n"
        "__all__ = ['Scorer']\n"
        "\n"
        "\n"
        "class Scorer:\n"
        "    def _perturb(self, windows):\n"
        "        return windows + 1e-6 * rand(*windows.shape)\n"
        "\n"
        "    def score(self, windows):\n"
        "        return np.abs(self._perturb(windows)).mean(axis=-1)\n"
    )

    def test_analyzer_catches_with_provenance(self, tmp_path):
        model = make_pkg(tmp_path, {"scorer.py": self.SOURCE})
        findings = check_roots(model, roots=("pkg.scorer.Scorer.score",))
        rng = [f for f in findings if f.rule == "DET501"]
        assert len(rng) == 1
        assert rng[0].severity == "error"
        assert "Scorer.score -> _perturb" in rng[0].message
        assert "np.random.rand" in rng[0].message

    def test_lint_catches_the_aliased_import(self):
        # REP101 resolves `rand` through the imports to numpy.random.rand
        violations = lint_source(self.SOURCE, "src/mod.py")
        assert [(v.code, v.line) for v in violations] == [("REP101", 9)]


class TestWallClockInCheckpointPayload:
    SOURCE = (
        "import time\n"
        "\n"
        "__all__ = ['save_checkpoint']\n"
        "\n"
        "\n"
        "def _payload(step, state):\n"
        "    return {'step': step, 'state': state,\n"
        "            'saved_at': time.time()}\n"
        "\n"
        "\n"
        "def save_checkpoint(step, state):\n"
        "    return _payload(step, state)\n"
    )

    def test_analyzer_catches_with_provenance(self, tmp_path):
        model = make_pkg(tmp_path, {"ckpt.py": self.SOURCE})
        findings = check_roots(model,
                               roots=("pkg.ckpt.save_checkpoint",))
        clock = [f for f in findings if f.rule == "DET502"]
        assert len(clock) == 1
        assert "save_checkpoint -> _payload reads time.time" in \
            clock[0].message

    def test_lint_has_no_wall_clock_rule(self):
        codes = {v.code for v in lint_source(self.SOURCE, "src/mod.py")}
        assert not codes & {"REP101", "REP112"}


class TestUnsortedGlobInLoader:
    SOURCE = (
        "import glob\n"
        "import os\n"
        "\n"
        "__all__ = ['load_services']\n"
        "\n"
        "\n"
        "def _service_files(root):\n"
        "    return glob.glob(os.path.join(root, '*.csv'))\n"
        "\n"
        "\n"
        "def load_services(root):\n"
        "    return [name for name in _service_files(root)]\n"
    )

    def test_analyzer_catches_with_provenance(self, tmp_path):
        model = make_pkg(tmp_path, {"loader.py": self.SOURCE})
        findings = check_roots(model, roots=("pkg.loader.load_services",))
        order = [f for f in findings if f.rule == "DET503"]
        assert len(order) == 1
        assert order[0].severity == "error"
        assert "load_services -> _service_files" in order[0].message
        # the sorted() discipline fixes it
        fixed = self.SOURCE.replace(
            "return glob.glob", "return sorted(glob.glob")
        fixed = fixed.replace("'*.csv'))", "'*.csv')))")
        model = make_pkg(tmp_path, {"loader.py": fixed})
        findings = check_roots(model, roots=("pkg.loader.load_services",))
        assert [f for f in findings if f.rule == "DET503"] == []

    def test_lint_misses_listing_order(self):
        assert not {v.code for v in
                    lint_source(self.SOURCE, "src/mod.py")}


class TestSetOrderedFloatReduction:
    SOURCE = (
        "__all__ = ['aggregate_scores']\n"
        "\n"
        "\n"
        "def _dedupe(scores):\n"
        "    pool = set(scores)\n"
        "    return sum(pool)\n"
        "\n"
        "\n"
        "def aggregate_scores(scores):\n"
        "    return _dedupe(scores) / max(len(scores), 1)\n"
    )

    def test_analyzer_catches_with_provenance(self, tmp_path):
        # float addition is not associative: folding a set in hash
        # order makes the total depend on PYTHONHASHSEED
        model = make_pkg(tmp_path, {"agg.py": self.SOURCE})
        findings = check_roots(model, roots=("pkg.agg.aggregate_scores",))
        iteration = [f for f in findings if f.rule == "DET504"]
        assert len(iteration) == 1
        assert iteration[0].severity == "error"
        assert "aggregate_scores -> _dedupe" in iteration[0].message
        assert "sum() over a set" in iteration[0].message

    def test_lint_misses_set_iteration(self):
        assert not {v.code for v in
                    lint_source(self.SOURCE, "src/mod.py")}
