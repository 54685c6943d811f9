"""repro.analysis.lint: each rule fires on a crafted violation, clean passes."""

import pytest

from repro.analysis.lint import RULES, Violation, lint_paths, lint_source, main


def _codes(violations):
    return [v.code for v in violations]


class TestBareRandom:
    def test_np_random_call_fires(self):
        source = "import numpy as np\nx = np.random.rand(3)\n"
        violations = lint_source(source, "src/mod.py")
        assert "REP101" in _codes(violations)

    def test_respects_import_alias(self):
        source = "import numpy\ny = numpy.random.normal()\n"
        assert "REP101" in _codes(lint_source(source, "src/mod.py"))

    def test_from_numpy_import_random(self):
        source = "from numpy import random\nz = random.uniform()\n"
        assert "REP101" in _codes(lint_source(source, "src/mod.py"))

    def test_default_rng_is_sanctioned(self):
        source = "import numpy as np\nrng = np.random.default_rng(0)\n"
        assert not lint_source(source, "src/mod.py")

    def test_unrelated_random_attribute_ignored(self):
        source = "import numpy as np\nclass C:\n    random = 1\nC().random\n"
        assert "REP101" not in _codes(lint_source(source, "src/mod.py"))

    def test_from_numpy_random_import_name(self):
        source = "from numpy.random import rand\nx = rand(3)\n"
        violations = lint_source(source, "src/mod.py")
        assert [(v.code, v.line) for v in violations] == [("REP101", 2)]

    def test_numpy_random_module_alias(self):
        source = "import numpy.random as npr\nx = npr.rand(3)\n"
        violations = lint_source(source, "src/mod.py")
        assert [(v.code, v.line) for v in violations] == [("REP101", 2)]

    def test_from_numpy_random_constructor_is_sanctioned(self):
        source = "from numpy.random import default_rng\nrng = default_rng(0)\n"
        assert not lint_source(source, "src/mod.py")


class TestDataMutation:
    def test_plain_assignment_fires(self):
        source = "def f(t):\n    t.data = 0\n"
        assert "REP102" in _codes(lint_source(source, "src/mod.py"))

    def test_augmented_assignment_fires(self):
        source = "def step(p, lr):\n    p.data -= lr * p.grad\n"
        assert "REP102" in _codes(lint_source(source, "src/mod.py"))

    def test_slice_assignment_fires(self):
        source = "def f(t):\n    t.data[2:] = 1.0\n"
        assert "REP102" in _codes(lint_source(source, "src/mod.py"))

    def test_sanctioned_file_exempt(self):
        source = "def step(p, lr):\n    p.data -= lr * p.grad\n"
        assert "REP102" not in _codes(
            lint_source(source, "src/repro/nn/optim.py")
        )

    def test_plain_self_data_attribute_allowed(self):
        # dataclass-style ``self.data = ...`` in a constructor is unrelated.
        source = "class Box:\n    def __init__(self, data):\n        self.data = data\n"
        assert "REP102" not in _codes(lint_source(source, "src/mod.py"))


class TestFloat32:
    def test_np_float32_fires_in_src(self):
        source = "import numpy as np\nx = np.float32(1.0)\n"
        assert "REP103" in _codes(lint_source(source, "src/mod.py"))

    def test_dtype_string_fires_in_src(self):
        source = 'import numpy as np\nx = np.zeros(3, dtype="float32")\n'
        assert "REP103" in _codes(lint_source(source, "src/mod.py"))

    def test_from_numpy_import_float32(self):
        source = ("from numpy import empty, float32, single\n"
                  "def f(x):\n    return x.astype(float32), single\n")
        violations = lint_source(source, "src/mod.py", select=["REP103"])
        assert [(v.code, v.line) for v in violations] == [("REP103", 3)] * 2

    def test_numpy_module_alias(self):
        source = "import numpy as xp\nx = xp.float32(1.0)\n"
        violations = lint_source(source, "src/mod.py")
        assert [(v.code, v.line) for v in violations] == [("REP103", 2)]

    def test_unrelated_float32_attribute_ignored(self):
        source = "import numpy as np\ndef f(t):\n    return t.float32\n"
        assert "REP103" not in _codes(lint_source(source, "src/mod.py"))

    def test_tests_are_exempt(self):
        source = "import numpy as np\nx = np.float32(1.0)\n"
        assert "REP103" not in _codes(lint_source(source, "tests/test_x.py"))


class TestMissingAll:
    def test_public_module_without_all_fires(self):
        source = "def public_api():\n    pass\n"
        assert "REP104" in _codes(lint_source(source, "src/repro/mod.py"))

    def test_module_with_all_passes(self):
        source = '__all__ = ["public_api"]\n\ndef public_api():\n    pass\n'
        assert not lint_source(source, "src/repro/mod.py")

    def test_private_module_exempt(self):
        source = "def public_api():\n    pass\n"
        assert not lint_source(source, "src/repro/_internal.py")

    def test_definition_free_module_exempt(self):
        source = "CONSTANT = 3\n"
        assert not lint_source(source, "src/repro/mod.py")

    def test_tests_are_exempt(self):
        source = "def test_something():\n    pass\n"
        assert "REP104" not in _codes(lint_source(source, "tests/test_x.py"))


class TestBareExcept:
    def test_bare_except_fires_in_src(self):
        source = "try:\n    x = 1\nexcept:\n    pass\n"
        assert "REP105" in _codes(lint_source(source, "src/mod.py"))

    def test_concrete_type_passes(self):
        source = "try:\n    x = 1\nexcept ValueError:\n    pass\n"
        assert "REP105" not in _codes(lint_source(source, "src/mod.py"))

    def test_except_exception_passes(self):
        # Catch-all with a named type is still explicit — allowed.
        source = "try:\n    x = 1\nexcept Exception:\n    pass\n"
        assert "REP105" not in _codes(lint_source(source, "src/mod.py"))

    def test_tests_are_exempt(self):
        source = "try:\n    x = 1\nexcept:\n    pass\n"
        assert "REP105" not in _codes(lint_source(source, "tests/test_x.py"))

    def test_noqa_suppresses(self):
        source = "try:\n    x = 1\nexcept:  # noqa: REP105\n    pass\n"
        assert not lint_source(source, "src/mod.py")


class TestBlockingWithoutTimeout:
    def test_zero_arg_join_fires_in_src(self):
        source = "import multiprocessing\nworker.join()\n"
        assert "REP108" in _codes(lint_source(source, "src/mod.py"))

    def test_zero_arg_queue_get_fires(self):
        source = "import queue\nitem = jobs.get()\n"
        assert "REP108" in _codes(lint_source(source, "src/mod.py"))

    def test_timeout_argument_passes(self):
        source = (
            "import multiprocessing\n"
            "worker.join(5)\n"
            "item = jobs.get(timeout=1.0)\n"
            "ready = connection.wait(sentinels, timeout=0.05)\n"
        )
        assert "REP108" not in _codes(lint_source(source, "src/mod.py"))

    def test_str_join_with_argument_passes(self):
        # ''.join(parts) takes an argument, so it is never confused with
        # a blocking process join.
        source = "import threading\nline = ','.join(parts)\n"
        assert "REP108" not in _codes(lint_source(source, "src/mod.py"))

    def test_no_concurrency_import_passes(self):
        source = "worker.join()\nitem = jobs.get()\n"
        assert "REP108" not in _codes(lint_source(source, "src/mod.py"))

    def test_tests_are_exempt(self):
        source = "import multiprocessing\nworker.join()\n"
        assert "REP108" not in _codes(lint_source(source, "tests/test_x.py"))

    def test_noqa_suppresses(self):
        source = "import multiprocessing\nworker.join()  # noqa: REP108\n"
        assert not lint_source(source, "src/mod.py")


class TestUninitializedEmpty:
    def test_bare_np_empty_fires(self):
        source = "import numpy as np\ndef f():\n    buf = np.empty(4)\n    return buf\n"
        assert "REP110" in _codes(lint_source(source, "src/mod.py"))

    def test_empty_like_fires(self):
        source = "import numpy as np\ndef f(x):\n    buf = np.empty_like(x)\n    return buf\n"
        assert "REP110" in _codes(lint_source(source, "src/mod.py"))

    def test_full_slice_store_sanctions(self):
        source = ("import numpy as np\ndef f(x):\n"
                  "    buf = np.empty(4)\n    buf[:] = x\n    return buf\n")
        assert "REP110" not in _codes(lint_source(source, "src/mod.py"))

    def test_ellipsis_store_sanctions(self):
        source = ("import numpy as np\ndef f(x):\n"
                  "    buf = np.empty(4)\n    buf[...] = x\n    return buf\n")
        assert "REP110" not in _codes(lint_source(source, "src/mod.py"))

    def test_index_array_store_sanctions(self):
        # The ranking idiom: ``ranks[order] = arange(n)`` covers every slot.
        source = ("import numpy as np\ndef f(order, n):\n"
                  "    ranks = np.empty_like(order)\n"
                  "    ranks[order] = np.arange(n)\n    return ranks\n")
        assert "REP110" not in _codes(lint_source(source, "src/mod.py"))

    def test_fill_sanctions(self):
        source = ("import numpy as np\ndef f():\n"
                  "    buf = np.empty(4)\n    buf.fill(0.0)\n    return buf\n")
        assert "REP110" not in _codes(lint_source(source, "src/mod.py"))

    def test_unrelated_next_statement_fires(self):
        source = ("import numpy as np\ndef f(x):\n"
                  "    buf = np.empty(4)\n    y = x + 1\n"
                  "    buf[:] = y\n    return buf\n")
        assert "REP110" in _codes(lint_source(source, "src/mod.py"))

    def test_augmented_store_not_accepted(self):
        # ``buf[:] += x`` *reads* the uninitialized memory first.
        source = ("import numpy as np\ndef f(x):\n"
                  "    buf = np.empty(4)\n    buf[:] += x\n    return buf\n")
        assert "REP110" in _codes(lint_source(source, "src/mod.py"))

    def test_store_into_different_name_fires(self):
        source = ("import numpy as np\ndef f(x, other):\n"
                  "    buf = np.empty(4)\n    other[:] = x\n    return buf\n")
        assert "REP110" in _codes(lint_source(source, "src/mod.py"))

    def test_empty_as_bare_expression_fires(self):
        source = "import numpy as np\ndef f(g):\n    g(np.empty(3))\n"
        assert "REP110" in _codes(lint_source(source, "src/mod.py"))

    def test_outside_src_ignored(self):
        source = "import numpy as np\nbuf = np.empty(4)\n"
        assert "REP110" not in _codes(lint_source(source, "tests/mod.py"))

    def test_noqa_suppresses(self):
        source = ("import numpy as np\ndef f():\n"
                  "    buf = np.empty(4)  # noqa: REP110\n"
                  "    return buf\n")
        assert "REP110" not in _codes(lint_source(source, "src/mod.py"))

    def test_from_numpy_import_empty(self):
        source = ("from numpy import empty, empty_like\ndef f(x):\n"
                  "    buf = empty(4)\n    other = empty_like(x)\n"
                  "    return buf, other\n")
        violations = lint_source(source, "src/mod.py", select=["REP110"])
        assert [(v.code, v.line) for v in violations] == [("REP110", 3),
                                                          ("REP110", 4)]
        assert "numpy.empty()" in violations[0].message

    def test_numpy_module_alias_empty(self):
        source = "import numpy as xp\ndef f():\n    return xp.empty(4)\n"
        violations = lint_source(source, "src/mod.py", select=["REP110"])
        assert [(v.code, v.line) for v in violations] == [("REP110", 3)]

    def test_from_import_sanctioned_by_fill(self):
        source = ("from numpy import empty\ndef f():\n"
                  "    buf = empty(4)\n    buf.fill(0.0)\n    return buf\n")
        assert "REP110" not in _codes(lint_source(source, "src/mod.py"))

    def test_zeros_never_fires(self):
        source = "import numpy as np\nbuf = np.zeros(4)\n"
        assert "REP110" not in _codes(lint_source(source, "src/mod.py"))


class TestBareSleepRetryLoop:
    def test_literal_sleep_in_while_loop_fires(self):
        source = ("import time\n"
                  "def retry(f):\n"
                  "    while True:\n"
                  "        f()\n"
                  "        time.sleep(1.0)\n")
        assert "REP111" in _codes(lint_source(source, "src/mod.py"))

    def test_literal_sleep_in_for_loop_fires(self):
        source = ("import time\n"
                  "def retry(f):\n"
                  "    for _ in range(5):\n"
                  "        time.sleep(0.5)\n"
                  "        f()\n")
        assert "REP111" in _codes(lint_source(source, "src/mod.py"))

    def test_computed_backoff_passes(self):
        # An adaptive delay is a deliberate backoff, not a bare retry loop.
        source = ("import time\n"
                  "def retry(f, delay):\n"
                  "    for _ in range(5):\n"
                  "        time.sleep(delay)\n"
                  "        delay *= 2\n")
        assert "REP111" not in _codes(lint_source(source, "src/mod.py"))

    def test_from_time_import_sleep_in_loop_fires(self):
        source = ("from time import sleep\n"
                  "def retry(f):\n"
                  "    while True:\n"
                  "        f()\n"
                  "        sleep(1.0)\n")
        violations = lint_source(source, "src/mod.py", select=["REP111"])
        assert [(v.code, v.line) for v in violations] == [("REP111", 5)]

    def test_time_module_alias_in_loop_fires(self):
        source = ("import time as t\n"
                  "def retry(f):\n"
                  "    for _ in range(5):\n"
                  "        t.sleep(1)\n"
                  "        f()\n")
        violations = lint_source(source, "src/mod.py", select=["REP111"])
        assert [(v.code, v.line) for v in violations] == [("REP111", 4)]

    def test_sleep_outside_loop_passes(self):
        source = "import time\ndef pause():\n    time.sleep(1.0)\n"
        assert "REP111" not in _codes(lint_source(source, "src/mod.py"))

    def test_tests_are_exempt(self):
        source = ("import time\n"
                  "def retry(f):\n"
                  "    while True:\n"
                  "        time.sleep(1.0)\n")
        assert "REP111" not in _codes(lint_source(source, "tests/test_x.py"))

    def test_noqa_suppresses(self):
        source = ("import time\n"
                  "def retry(f):\n"
                  "    while True:\n"
                  "        time.sleep(1.0)  # noqa: REP111\n")
        assert "REP111" not in _codes(lint_source(source, "src/mod.py"))


class TestNoqa:
    def test_matching_code_suppresses(self):
        source = "import numpy as np\nx = np.random.rand()  # noqa: REP101\n"
        assert not lint_source(source, "src/mod.py")

    def test_bare_noqa_suppresses_everything_on_line(self):
        source = "import numpy as np\nx = np.random.rand()  # noqa\n"
        assert not lint_source(source, "src/mod.py")

    def test_mismatched_code_does_not_suppress(self):
        source = "import numpy as np\nx = np.random.rand()  # noqa: REP104\n"
        assert "REP101" in _codes(lint_source(source, "src/mod.py"))

    def test_noqa_on_other_line_does_not_suppress(self):
        source = "import numpy as np  # noqa\nx = np.random.rand()\n"
        assert "REP101" in _codes(lint_source(source, "src/mod.py"))


class TestBareStdRandom:
    def test_module_call_fires(self):
        source = "import random\nx = random.random()\n"
        assert "REP112" in _codes(lint_source(source, "src/mod.py"))

    def test_import_alias_fires(self):
        source = "import random as rnd\nx = rnd.choice([1, 2])\n"
        assert "REP112" in _codes(lint_source(source, "src/mod.py"))

    def test_from_import_flagged_at_the_import(self):
        source = "from random import shuffle\n"
        violations = lint_source(source, "src/mod.py")
        assert _codes(violations) == ["REP112"]
        assert violations[0].line == 1

    def test_local_random_instance_is_sanctioned(self):
        source = ("import random\n"
                  "def f(seed):\n"
                  "    return random.Random(seed).random()\n")
        assert "REP112" not in _codes(lint_source(source, "src/mod.py"))

    def test_system_random_is_sanctioned(self):
        source = "from random import SystemRandom\n"
        assert not lint_source(source, "src/mod.py")

    def test_repo_random_module_not_confused_with_stdlib(self):
        # `from repro.nn import random` binds the repo module to the
        # same bare name; its API must stay usable
        source = ("from repro.nn import random\n"
                  "__all__ = ['f']\n"
                  "def f():\n"
                  "    return random.default_rng()\n")
        assert not lint_source(source, "src/mod.py")

    def test_tests_and_benchmarks_exempt(self):
        source = "import random\nx = random.random()\n"
        assert not lint_source(source, "tests/mod.py")

    def test_noqa_suppresses(self):
        source = "import random\nx = random.random()  # noqa: REP112\n"
        assert not lint_source(source, "src/mod.py")


class TestUnboundedQueue:
    def test_bare_queue_fires(self):
        source = "import queue\nq = queue.Queue()\n"
        assert "REP113" in _codes(lint_source(source, "src/mod.py"))

    def test_bare_asyncio_queue_fires(self):
        source = "import asyncio\nq = asyncio.Queue()\n"
        assert "REP113" in _codes(lint_source(source, "src/mod.py"))

    def test_zero_maxsize_fires(self):
        # maxsize=0 is the stdlib's spelling of "unbounded".
        source = "import asyncio\nq = asyncio.Queue(maxsize=0)\n"
        assert "REP113" in _codes(lint_source(source, "src/mod.py"))

    def test_bounded_queue_passes(self):
        source = ("import queue\nimport asyncio\n"
                  "a = queue.Queue(maxsize=64)\n"
                  "b = asyncio.Queue(16)\n")
        assert "REP113" not in _codes(lint_source(source, "src/mod.py"))

    def test_from_import_tracked(self):
        source = "from asyncio import Queue\nq = Queue()\n"
        assert "REP113" in _codes(lint_source(source, "src/mod.py"))

    def test_simple_queue_always_fires(self):
        source = ("from multiprocessing import SimpleQueue\n"
                  "q = SimpleQueue()\n")
        assert "REP113" in _codes(lint_source(source, "src/mod.py"))

    def test_sync_put_without_timeout_fires(self):
        source = ("import queue\nq = queue.Queue(maxsize=4)\n"
                  "def feed(item):\n    q.put(item)\n")
        assert "REP113" in _codes(lint_source(source, "src/mod.py"))

    def test_put_with_timeout_or_nowait_passes(self):
        source = ("import queue\nq = queue.Queue(maxsize=4)\n"
                  "def feed(item):\n"
                  "    q.put(item, timeout=1.0)\n"
                  "    q.put(item, block=False)\n"
                  "    q.put_nowait(item)\n")
        assert "REP113" not in _codes(lint_source(source, "src/mod.py"))

    def test_awaited_put_in_async_code_exempt(self):
        source = ("import asyncio\nq = asyncio.Queue(maxsize=4)\n"
                  "async def feed(item):\n    await q.put(item)\n")
        assert "REP113" not in _codes(lint_source(source, "src/mod.py"))

    def test_relative_queue_module_not_confused_with_stdlib(self):
        # `from .queue import Queue` binds a package-local class
        source = "from .queue import Queue\nq = Queue()\n"
        assert "REP113" not in _codes(lint_source(source, "src/mod.py"))

    def test_unrelated_put_without_queue_import_exempt(self):
        source = "def store(cache, key):\n    cache.put(key)\n"
        assert "REP113" not in _codes(lint_source(source, "src/mod.py"))

    def test_tests_are_exempt(self):
        source = "import queue\nq = queue.Queue()\n"
        assert "REP113" not in _codes(lint_source(source, "tests/mod.py"))

    def test_noqa_suppresses(self):
        source = "import queue\nq = queue.Queue()  # noqa: REP113\n"
        assert "REP113" not in _codes(lint_source(source, "src/mod.py"))


class TestUndeclaredEventKind:
    def test_undeclared_kind_fires(self):
        source = ("from repro.obs.events import emit\n"
                  "emit('made_up_kind', service='svc-0')\n")
        assert "REP114" in _codes(lint_source(source, "src/mod.py"))

    def test_declared_kind_passes(self):
        source = ("from repro.obs.events import emit\n"
                  "emit('health_transition', service='svc-0')\n")
        assert "REP114" not in _codes(lint_source(source, "src/mod.py"))

    def test_emit_event_alias_and_wrapper_methods_fire(self):
        source = ("from repro.obs.events import emit as emit_event\n"
                  "class C:\n"
                  "    def go(self):\n"
                  "        emit_event('nope_a')\n"
                  "        self._emit('nope_b', x=1)\n"
                  "        self.log.emit('nope_c')\n")
        codes = _codes(lint_source(source, "src/mod.py"))
        assert codes.count("REP114") == 3

    def test_variable_kind_is_exempt(self):
        source = ("class C:\n"
                  "    def _emit(self, kind, **fields):\n"
                  "        self._events.emit(kind, **fields)\n")
        assert "REP114" not in _codes(lint_source(source, "src/mod.py"))

    def test_list_append_not_confused_for_event_log(self):
        source = "lines = []\nlines.append('header')\n"
        assert "REP114" not in _codes(lint_source(source, "src/mod.py"))

    def test_append_with_keywords_fires(self):
        source = "def f(log):\n    log.append('bad_kind', tick=3)\n"
        assert "REP114" in _codes(lint_source(source, "src/mod.py"))

    def test_tests_are_exempt(self):
        source = "from repro.obs.events import emit\nemit('made_up_kind')\n"
        assert "REP114" not in _codes(lint_source(source, "tests/mod.py"))

    def test_noqa_suppresses(self):
        source = ("from repro.obs.events import emit\n"
                  "emit('made_up_kind')  # noqa: REP114\n")
        assert "REP114" not in _codes(lint_source(source, "src/mod.py"))


class TestDriver:
    def test_syntax_error_reported_not_raised(self):
        violations = lint_source("def broken(:\n", "src/mod.py")
        assert _codes(violations) == ["REP000"]

    def test_select_filters_codes(self):
        source = "import numpy as np\ndef f():\n    np.random.seed(0)\n"
        only_all = lint_source(source, "src/mod.py", select=["REP104"])
        assert _codes(only_all) == ["REP104"]

    def test_violation_format_is_tool_style(self):
        violation = Violation("src/mod.py", 3, 4, "REP101", "boom")
        assert str(violation) == "src/mod.py:3:4: REP101 boom"

    def test_lint_paths_walks_directories(self, tmp_path):
        package = tmp_path / "src"
        package.mkdir()
        (package / "bad.py").write_text(
            "import numpy as np\nx = np.random.rand()\n"
        )
        (package / "good.py").write_text("VALUE = 1\n")
        violations = lint_paths([str(package)])
        assert _codes(violations) == ["REP101"]

    def test_lint_paths_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            lint_paths(["does/not/exist"])

    def test_main_exit_codes(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        assert main([str(bad)]) == 1
        assert "REP101" in capsys.readouterr().out
        good = tmp_path / "good.py"
        good.write_text("VALUE = 1\n")
        assert main([str(good)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_main_missing_path_is_clean_error(self, capsys):
        assert main(["does/not/exist.py"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_main_unknown_select_code_rejected(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\nx = np.random.rand()\n")
        assert main([str(bad), "--select", "BOGUS"]) == 2
        assert "unknown rule code" in capsys.readouterr().err

    def test_main_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULES:
            assert code in out


class TestRepoIsClean:
    def test_whole_repository_passes_its_own_linter(self):
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        paths = [str(root / name)
                 for name in ("src", "tests", "benchmarks", "examples")
                 if (root / name).is_dir()]
        violations = lint_paths(paths)
        assert violations == [], "\n".join(str(v) for v in violations)
