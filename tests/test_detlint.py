"""The per-line determinism rules (:mod:`simlint.perline`, the rule set
historically called detlint): per-rule positive/negative/suppression
fixtures, plus the assertion that the shipped ``src/repro`` tree lints
clean."""

import ast
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from simlint import perline  # noqa: E402
from simlint.perline import RULES, lint_source  # noqa: E402

#: the per-line rules alone, through the simlint command line
SIMLINT = [sys.executable, str(REPO / "tools" / "simlint"), "--only", "perline"]


def rules_of(code):
    return [f.rule for f in lint_source(code)]


class TestWallclock:
    def test_time_time_flagged(self):
        assert rules_of("import time\nt = time.time()\n") == ["wallclock"]

    def test_strftime_and_datetime_now_flagged(self):
        code = ("import time, datetime\n"
                "a = time.strftime('%Y')\n"
                "b = datetime.datetime.now()\n"
                "c = datetime.date.today()\n")
        assert rules_of(code) == ["wallclock"] * 3

    def test_perf_counter_allowed(self):
        code = ("import time\n"
                "t0 = time.perf_counter()\n"
                "t1 = time.monotonic()\n")
        assert rules_of(code) == []

    def test_suppressed(self):
        code = ("import time\n"
                "t = time.time()  # detlint: ignore[wallclock]\n")
        assert rules_of(code) == []


class TestWallclockSleep:
    def test_time_sleep_flagged(self):
        assert rules_of("import time\ntime.sleep(0.1)\n") == \
            ["wallclock-sleep"]

    def test_os_kill_and_signal_alarm_flagged(self):
        code = ("import os, signal\n"
                "os.kill(pid, signal.SIGKILL)\n"
                "signal.alarm(5)\n")
        assert rules_of(code) == ["wallclock-sleep"] * 2

    def test_monotonic_and_unrelated_kill_allowed(self):
        code = ("import time\n"
                "t = time.monotonic()\n"
                "proc.kill()\n")
        assert rules_of(code) == []

    def test_suppressed(self):
        code = ("import time\n"
                "time.sleep(0.1)  # detlint: ignore[wallclock-sleep]\n")
        assert rules_of(code) == []

    def test_batch_runner_carries_suppressions(self):
        # the one sanctioned home for these calls: every site in
        # repro.batch is individually marked, so the tree stays clean
        # while the raw pattern count is non-zero
        batch = REPO / "src" / "repro" / "batch"
        raw = []
        for path in perline.iter_python_files([str(batch)]):
            linter = perline._Linter(str(path))
            linter.visit(ast.parse(path.read_text()))
            raw.extend(f for f in linter.findings
                       if f.rule == "wallclock-sleep")
        assert raw, "expected wallclock-sleep sites inside repro.batch"
        for path in perline.iter_python_files([str(batch)]):
            assert [f for f in perline.lint_file(path)
                    if f.rule == "wallclock-sleep"] == []


class TestSocketIo:
    def test_server_and_client_constructors_flagged(self):
        code = ("import asyncio, socket\n"
                "srv = asyncio.start_server(cb, '::1', 0)\n"
                "conn = asyncio.open_connection('::1', 1)\n"
                "raw = socket.socket()\n"
                "out = socket.create_connection(('::1', 1))\n")
        assert rules_of(code) == ["socket-io"] * 4

    def test_unrelated_attribute_allowed(self):
        # a .socket attribute or local name is not the socket module
        code = ("srv.socket.close()\n"
                "sockets = server.sockets\n")
        assert rules_of(code) == []

    def test_suppressed(self):
        code = ("import asyncio\n"
                "srv = asyncio.start_server(cb)  "
                "# detlint: ignore[socket-io]\n")
        assert rules_of(code) == []

    def test_package_opens_no_socket(self):
        # repro.serve, once the one sanctioned home for real sockets,
        # is gone; nothing left in the package opens a socket, so
        # there is no sanctioned suppression either: the raw
        # (pre-suppression) finding count is zero
        assert not (REPO / "src" / "repro" / "serve").exists()
        raw = []
        for path in perline.iter_python_files([str(REPO / "src" / "repro")]):
            linter = perline._Linter(str(path))
            linter.visit(ast.parse(path.read_text()))
            raw.extend(f for f in linter.findings if f.rule == "socket-io")
        assert raw == []

    def test_package_wallclock_is_all_suppressed(self):
        # with repro.serve gone the host-time profiler is the remaining
        # wallclock escape hatch; every read in the package is marked,
        # so the tree lints clean while the raw pattern count is non-zero
        repro = REPO / "src" / "repro"
        raw = []
        for path in perline.iter_python_files([str(repro)]):
            linter = perline._Linter(str(path))
            linter.visit(ast.parse(path.read_text()))
            raw.extend(f for f in linter.findings if f.rule == "wallclock")
        assert raw, "expected wallclock sites inside repro"
        for path in perline.iter_python_files([str(repro)]):
            assert [f for f in perline.lint_file(path)
                    if f.rule == "wallclock"] == []


class TestUnseededRandom:
    def test_global_functions_flagged(self):
        code = ("import random\n"
                "a = random.random()\n"
                "b = random.randint(0, 9)\n"
                "random.shuffle(x)\n")
        assert rules_of(code) == ["unseeded-random"] * 3

    def test_unseeded_constructor_flagged(self):
        assert rules_of("import random\nr = random.Random()\n") == \
            ["unseeded-random"]

    def test_seeded_constructor_allowed(self):
        code = ("import random\n"
                "r = random.Random(42)\n"
                "s = random.Random(seed)\n")
        assert rules_of(code) == []

    def test_numpy_global_flagged_seeded_generator_allowed(self):
        code = ("import numpy as np\n"
                "bad = np.random.rand(3)\n"
                "worse = np.random.default_rng()\n"
                "good = np.random.default_rng(1234)\n")
        assert rules_of(code) == ["unseeded-random"] * 2

    def test_suppressed(self):
        code = ("import random\n"
                "r = random.random()  # detlint: ignore[unseeded-random]\n")
        assert rules_of(code) == []


class TestSetIteration:
    def test_for_over_set_display_flagged(self):
        assert rules_of("for x in {1, 2, 3}:\n    print(x)\n") == \
            ["set-iteration"]

    def test_for_over_set_call_flagged(self):
        assert rules_of("for x in set(items):\n    print(x)\n") == \
            ["set-iteration"]

    def test_comprehension_over_frozenset_flagged(self):
        assert rules_of("out = [x for x in frozenset(items)]\n") == \
            ["set-iteration"]

    def test_sorted_set_allowed(self):
        code = ("for x in sorted({1, 2, 3}):\n    print(x)\n"
                "out = [x for x in sorted(set(items))]\n")
        assert rules_of(code) == []

    def test_membership_and_ops_allowed(self):
        code = ("s = {1, 2}\n"
                "if 1 in s:\n    pass\n"
                "s.add(3)\n")
        assert rules_of(code) == []

    def test_suppressed(self):
        code = "for x in set(items):  # detlint: ignore[set-iteration]\n" \
               "    print(x)\n"
        assert rules_of(code) == []


class TestFloatCounter:
    def test_float_constant_flagged(self):
        assert rules_of("counters.add('x', 1.5)\n") == ["float-counter"]

    def test_true_division_flagged(self):
        assert rules_of("self.counters.add('x', n / 2)\n") == \
            ["float-counter"]

    def test_float_call_and_keyword_flagged(self):
        code = ("counters.add('x', float(n))\n"
                "counters.add('y', amount=2.0)\n")
        assert rules_of(code) == ["float-counter"] * 2

    def test_add_many_literal_pair_flagged(self):
        assert rules_of("c.add_many([('a', 1), ('b', 0.5)])\n") == \
            ["float-counter"]

    def test_int_amounts_allowed(self):
        code = ("counters.add('x')\n"
                "counters.add('x', 4)\n"
                "counters.add('x', n // 2)\n"
                "c.add_many([('a', 1), ('b', 2)])\n")
        assert rules_of(code) == []

    def test_set_add_not_confused(self):
        assert rules_of("seen.add(item)\nseen.add(1.5)\n") == []

    def test_suppressed(self):
        code = "counters.add('x', 0.5)  # detlint: ignore[float-counter]\n"
        assert rules_of(code) == []


class TestMutableClassAttr:
    def test_list_dict_set_literals_flagged(self):
        code = ("class C:\n"
                "    items = []\n"
                "    table = {}\n"
                "    seen = set()\n")
        assert rules_of(code) == ["mutable-class-attr"] * 3

    def test_upper_case_constants_allowed(self):
        code = ("class C:\n"
                "    WALK_LEVELS = {4096: 4}\n"
                "    _HIT_NAMES = ['a', 'b']\n")
        assert rules_of(code) == []

    def test_dataclass_exempt(self):
        code = ("from dataclasses import dataclass, field\n"
                "@dataclass\n"
                "class C:\n"
                "    items: list = field(default_factory=list)\n"
                "    meta = {}\n")
        assert rules_of(code) == []

    def test_immutable_defaults_allowed(self):
        code = ("class C:\n"
                "    name = 'x'\n"
                "    size = 0\n"
                "    pair = (1, 2)\n")
        assert rules_of(code) == []

    def test_instance_assignment_allowed(self):
        code = ("class C:\n"
                "    def __init__(self):\n"
                "        self.items = []\n")
        assert rules_of(code) == []

    def test_suppressed(self):
        code = ("class C:\n"
                "    items = []  # detlint: ignore[mutable-class-attr]\n")
        assert rules_of(code) == []


class TestInternStr:
    def test_variable_arg_flagged(self):
        assert rules_of("from sys import intern\nk = intern(name)\n") == \
            ["intern-str"]
        assert rules_of("import sys\nk = sys.intern(name)\n") == \
            ["intern-str"]

    def test_provably_str_allowed(self):
        code = ("import sys\n"
                "a = sys.intern('lit')\n"
                "b = sys.intern(f'x{i}')\n"
                "c = sys.intern(str(name))\n")
        assert rules_of(code) == []

    def test_suppressed(self):
        code = ("import sys\n"
                "k = sys.intern(name)  # detlint: ignore[intern-str]\n")
        assert rules_of(code) == []


class TestRefcountProbe:
    def test_dotted_call_flagged(self):
        assert rules_of("import sys\nif sys.getrefcount(ev) == 2:\n"
                        "    pool.append(ev)\n") == ["refcount-probe"]

    def test_bare_call_and_import_flagged(self):
        # the import alone is a finding, so smuggling the name in
        # costs one hit and the call a second
        code = ("from sys import getrefcount\n"
                "n = getrefcount(obj)\n")
        assert rules_of(code) == ["refcount-probe", "refcount-probe"]

    def test_unrelated_sys_use_allowed(self):
        code = ("import sys\n"
                "from sys import maxsize\n"
                "sys.exit(0)\n")
        assert rules_of(code) == []

    def test_suppressed(self):
        code = ("import sys\n"
                "n = sys.getrefcount(x)  # detlint: ignore[refcount-probe]\n")
        assert rules_of(code) == []


class TestSuppressionForms:
    def test_bare_ignore_silences_everything(self):
        code = "import time\nt = time.time()  # detlint: ignore\n"
        assert rules_of(code) == []

    def test_listed_ignore_only_silences_named_rules(self):
        code = ("import time\n"
                "t = time.time()  # detlint: ignore[set-iteration]\n")
        assert rules_of(code) == ["wallclock"]

    def test_multiple_rules_listed(self):
        code = ("counters.add('x', time.time())"
                "  # detlint: ignore[wallclock,float-counter]\n")
        assert rules_of(code) == []


class TestHarness:
    def test_every_rule_has_catalogue_entry(self):
        samples = {
            "wallclock": "t = time.time()\n",
            "wallclock-sleep": "time.sleep(0.1)\n",
            "unseeded-random": "r = random.random()\n",
            "set-iteration": "for x in set(y):\n    pass\n",
            "float-counter": "c.add('x', 0.5)\n",
            "socket-io": "s = socket.socket()\n",
            "mutable-class-attr": "class C:\n    xs = []\n",
            "intern-str": "k = sys.intern(v)\n",
            "refcount-probe": "n = sys.getrefcount(v)\n",
        }
        assert set(samples) == set(RULES)
        for rule, code in samples.items():
            assert rules_of(code) == [rule]

    def test_finding_render_format(self):
        f = lint_source("t = time.time()\n", path="pkg/mod.py")[0]
        assert f.render() == \
            f"pkg/mod.py:1:4: wallclock {f.message}"

    def test_findings_sorted_by_line(self):
        code = ("class C:\n"
                "    xs = []\n"
                "t = time.time()\n")
        findings = lint_source(code)
        assert [f.line for f in findings] == sorted(f.line for f in findings)

    def test_cli_list_rules(self):
        out = subprocess.run(SIMLINT + ["--list-rules"],
                             capture_output=True, text=True, cwd=REPO)
        assert out.returncode == 0
        for rule in RULES:
            assert rule in out.stdout

    def test_cli_exit_codes(self, tmp_path):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("import time\nt = time.time()\n")
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        r_dirty = subprocess.run(SIMLINT + [str(dirty)],
                                 capture_output=True, text=True)
        r_clean = subprocess.run(SIMLINT + [str(clean)],
                                 capture_output=True, text=True)
        assert r_dirty.returncode == 1
        assert "wallclock" in r_dirty.stdout
        assert r_clean.returncode == 0


class TestTreeIsClean:
    def test_src_repro_lints_clean(self):
        findings = []
        for path in perline.iter_python_files([str(REPO / "src" / "repro")]):
            findings.extend(perline.lint_file(path))
        assert findings == [], "\n".join(f.render() for f in findings)

    def test_perline_lints_itself(self):
        findings = perline.lint_file(REPO / "tools" / "simlint" / "perline.py")
        assert findings == [], "\n".join(f.render() for f in findings)
