"""Tests for the gate's own plumbing in the rootdir ``conftest.py``: the
stdlib hang guard that stands in for pytest-timeout — plus source gates
that keep the spine-only ``repro.core`` / ``repro._native`` stubs without
new users, the slow JSON encoder out of the store, the
per-cell journal records (and the second lease) from being written twice,
the backends' monitor step and the ready list from being hand-rolled
again, the PE handshake from going back to a lock per status read and
a notification per transition, the invocation rule from growing a
caller-settable switch again, and settings with one value in use (or
state nothing reads) from coming back."""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_pytest_in(
    tmp_path: Path, test_body: str, ini: str, **environ: str
) -> subprocess.CompletedProcess:
    """A child pytest over one throw-away test file, with the repo's
    rootdir conftest loaded as a plugin (the child's rootdir is
    ``tmp_path``)."""
    (tmp_path / "pytest.ini").write_text(f"[pytest]\n{ini}\n")
    (tmp_path / "test_child.py").write_text(test_body)
    env = {**os.environ, **environ}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT), str(ROOT / "src"), env.get("PYTHONPATH", "")]
    )
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest",
         "-p", "no:cacheprovider", "test_child.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.skipif(
    importlib.util.find_spec("pytest_timeout") is not None,
    reason="pytest-timeout owns the ini key when installed",
)
class TestHangGuardFallback:
    def test_hung_test_is_killed_with_a_traceback(self, tmp_path):
        proc = run_pytest_in(
            tmp_path,
            "import time\n\ndef test_hangs():\n    time.sleep(60)\n",
            "timeout = 1",
        )
        assert proc.returncode != 0
        assert "Timeout (0:00:01)!" in proc.stderr
        assert "test_hangs" in proc.stderr

    def test_guard_is_cancelled_between_tests(self, tmp_path):
        body = (
            "import time\n\n"
            "def test_a():\n    time.sleep(0.7)\n\n"
            "def test_b():\n    time.sleep(0.7)\n"
        )
        proc = run_pytest_in(tmp_path, body, "timeout = 1")
        assert proc.returncode == 0, proc.stderr
        assert "Unknown config option" not in proc.stdout + proc.stderr


def test_rootdir_conftest_serves_every_suite():
    """``pytest benchmarks/spine/tests`` used to run without the ini key
    and the hang guard: they lived in ``tests/conftest.py``."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "benchmarks/spine/tests/test_spec.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "Unknown config option" not in proc.stdout + proc.stderr



def _slow_json_encodes(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` for each ``json.dump(...)`` call and each
    ``json.dumps(..., indent=...)``: both run the pure-Python encoder."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id == "json"):
            continue
        if node.func.attr == "dump":
            found.append((node.lineno, "json.dump("))
        elif node.func.attr == "dumps" and any(
            kw.arg == "indent" for kw in node.keywords
        ):
            found.append((node.lineno, "json.dumps(indent=)"))
    return found


def test_store_code_stays_on_the_c_json_encoder():
    """``json.dump`` and any ``indent=`` take the chunked pure-Python
    encoder (3-5x the C one-shot ``json.dumps``); the campaign store was
    moved off it and must not drift back."""
    assert _slow_json_encodes(
        "import json\njson.dump(d, fh)\njson.dumps(d, indent=1)\n"
        "json.dumps(d, sort_keys=True)\n"
    ) == [(2, "json.dump("), (3, "json.dumps(indent=)")]
    offenders = []
    for package in ("dse", "common"):
        for path in sorted((ROOT / "src" / "repro" / package).rglob("*.py")):
            for line, what in _slow_json_encodes(path.read_text("utf-8")):
                offenders.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert offenders == []


def _second_record_writers(source: str) -> list[tuple[int, str]]:
    """``(line, what)`` for each ``append(`` / ``append_many(`` call whose
    first argument is an ``EVENT_CELL_*`` name, and each import of
    ``shared_cache``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""]
            names += [alias.name for alias in node.names]
            if any("shared_cache" in name.split(".") for name in names):
                found.append((node.lineno, "import shared_cache"))
        elif (isinstance(node, ast.Call) and node.args
                and isinstance(node.func, (ast.Attribute, ast.Name))):
            called = getattr(node.func, "attr", getattr(node.func, "id", ""))
            first = node.args[0]
            event = getattr(first, "attr", getattr(first, "id", ""))
            if called in ("append", "append_many") and event.startswith(
                "EVENT_CELL_"
            ):
                found.append((node.lineno, f"{called}({event}, ...)"))
    return found


def test_per_cell_records_have_one_writer_and_cells_one_lease():
    """``dse/journal.py`` is the only module that spells the five per-cell
    records (they were spelled at 17 call sites in three modules, and the
    copies had drifted), and the ``cache/locks/`` second lease per cell
    (``shared_cache.py``) stays deleted."""
    assert _second_record_writers(
        "from repro.dse.distrib import shared_cache\n"
        "import repro.dse.distrib.shared_cache as sc\n"
        "j.append(journal_mod.EVENT_CELL_START, cell_id=c)\n"
        "j.append_many(EVENT_CELL_CACHED, records)\n"
        "j.append(journal_mod.EVENT_CAMPAIGN_START)\nrows.append(row)\n"
        "j.append_many(kind, records)\n"
    ) == [(1, "import shared_cache"), (2, "import shared_cache"),
          (3, "append(EVENT_CELL_START, ...)"),
          (4, "append_many(EVENT_CELL_CACHED, ...)")]
    dse = ROOT / "src" / "repro" / "dse"
    offenders = []
    for path in sorted(dse.rglob("*.py")):
        if path == dse / "journal.py":
            continue
        for line, what in _second_record_writers(path.read_text("utf-8")):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert offenders == []
    assert not (dse / "distrib" / "shared_cache.py").exists()


def _hand_rolled_wm(source: str, calls=(), names=(), attrs=()) -> list[tuple[int, str]]:
    """``(line, what)`` for each call to a function or method named in
    ``calls``, each use or import of a name in ``names`` and each access to
    an attribute in ``attrs``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if called in calls:
                found.append((node.lineno, f"{called}("))
        if isinstance(node, ast.Attribute) and node.attr in attrs:
            found.append((node.lineno, f".{node.attr}"))
        elif isinstance(node, ast.Name) and node.id in names:
            found.append((node.lineno, node.id))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name in names:
                    found.append((node.lineno, f"import {alias.name}"))
    return sorted(found)


def test_monitor_step_has_one_body_and_the_ready_list_no_tombstones():
    """The backends' monitor step is ``core.absorb(...)`` — the completions
    → PE failures → requeues sequence used to be spelled four times (the
    watchdog's direct ``absorb_pe_failure`` stays legal) — and the ready
    list is one ordered map: no ``islice`` walk over a dead prefix, no
    ``_dead`` tombstone set, no ``_compact``."""
    monitor = ("process_completions", "absorb_requeues")
    assert _hand_rolled_wm(
        "n = core.process_completions(batch, now)\n"
        "core.absorb_pe_failure(h, orphans, now)\n"
        "core.absorb_requeues(list(requeues), now)\n"
        "core.absorb(batch, fails, requeues, now)\n",
        calls=monitor,
    ) == [(1, "process_completions("), (3, "absorb_requeues(")]
    assert _hand_rolled_wm(
        "from itertools import islice\nx = islice(items, start, None)\n"
        "self._dead |= ids\nself._compact()\nself._live.pop(i)\n",
        names=("islice",), attrs=("_dead", "_compact"),
    ) == [(1, "import islice"), (2, "islice"), (3, "._dead"), (4, "._compact")]
    runtime = ROOT / "src" / "repro" / "runtime"
    offenders = []
    for path in sorted((runtime / "backends").glob("*.py")):
        for line, what in _hand_rolled_wm(path.read_text("utf-8"), calls=monitor):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    path = runtime / "workload_manager.py"
    for line, what in _hand_rolled_wm(
        path.read_text("utf-8"), names=("islice",), attrs=("_dead", "_compact")
    ):
        offenders.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert offenders == []


def test_backends_keep_only_time_and_waiting():
    """Setup, the interrupt check, the pass, dispatch and the end-of-run
    verdict are ``WorkloadManagerCore`` steps that both backends call; no
    backend module spells one of their parts again."""
    parts = (
        "inject_due", "run_policy", "commit", "recover_failed_dispatch",
        "assign", "reserve", "mark_interrupted", "assert_all_complete",
        "WorkloadManagerCore", "PerfModelOracle",
    )
    assert _hand_rolled_wm(
        "core.commit(a, now)\nh.reserve(t)\ncore.dispatch(a, now)\n"
        "core = WorkloadManagerCore(src)\nx: WorkloadManagerCore\n",
        calls=parts,
    ) == [(1, "commit("), (2, "reserve("), (4, "WorkloadManagerCore(")]
    offenders = []
    for path in sorted((ROOT / "src" / "repro" / "runtime" / "backends").glob("*.py")):
        for line, what in _hand_rolled_wm(path.read_text("utf-8"), calls=parts):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert offenders == []


def _handshake_offences(source: str, *, handler_module: bool) -> list[tuple[int, str]]:
    """``(line, what)`` for each use of the deleted completion buffer
    (``finished_tasks`` / ``drain_finished``, any module) and, in the
    handler module, a ``status`` property, ``with self.condition`` outside
    ``wait_for_work`` and ``notify_all(`` outside ``_notify``."""
    found = []

    def visit(node: ast.AST, function: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if handler_module and node.name == "status" and any(
                getattr(d, "id", getattr(d, "attr", "")) == "property"
                for d in node.decorator_list
            ):
                found.append((node.lineno, "property status"))
            function = node.name
        for field in ("attr", "id", "name"):  # Attribute, Name, def
            if getattr(node, field, None) in ("finished_tasks", "drain_finished"):
                found.append((node.lineno, getattr(node, field)))
        if handler_module and isinstance(node, ast.With):
            for item in node.items:
                expr = item.context_expr
                if (isinstance(expr, ast.Attribute) and expr.attr == "condition"
                        and function != "wait_for_work"):
                    found.append((node.lineno, "with self.condition"))
        if (handler_module and isinstance(node, ast.Call)
                and getattr(node.func, "attr", "") == "notify_all"
                and function != "_notify"):
            found.append((node.lineno, "notify_all("))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(ast.parse(source), "")
    return sorted(found)


def test_status_reads_take_no_lock_and_only_a_waiter_is_notified():
    """``ResourceHandler.status`` is a plain attribute (a property that
    took the lock was read 8.8 times a pass), the never-read completion
    buffer stays deleted, the methods take the bare lock (``Condition``'s
    ``__enter__``/``__exit__`` are Python frames) and every notification
    goes through the one helper that skips it while nobody waits."""
    sample = (
        "class H:\n"
        "    @property\n"
        "    def status(self):\n"
        "        with self.lock:\n"
        "            return self._status\n"
        "    def assign(self, task):\n"
        "        with self.condition:\n"
        "            self.finished_tasks.append(task)\n"
        "            self.condition.notify_all()\n"
        "    def _notify(self):\n"
        "        if self._waiters:\n"
        "            self.condition.notify_all()\n"
        "    def wait_for_work(self):\n"
        "        with self.condition:\n"
        "            self.condition.wait()\n"
        "    def drain_finished(self):\n"
        "        return []\n"
    )
    assert _handshake_offences(sample, handler_module=True) == [
        (3, "property status"), (7, "with self.condition"),
        (8, "finished_tasks"), (9, "notify_all("), (16, "drain_finished"),
    ]
    assert _handshake_offences(sample, handler_module=False) == [
        (8, "finished_tasks"), (16, "drain_finished"),
    ]
    package = ROOT / "src" / "repro"
    handler = package / "runtime" / "handler.py"
    offenders = []
    for path in sorted(package.rglob("*.py")):
        for line, what in _handshake_offences(
            path.read_text("utf-8"), handler_module=path == handler
        ):
            offenders.append(f"{path.relative_to(ROOT)}:{line}: {what}")
    assert offenders == []


def _identifiers(source: str, wanted: tuple[str, ...]) -> list[tuple[int, str]]:
    """``(line, name)`` for each name, attribute, keyword, parameter,
    definition or import in ``source`` spelled exactly as one of ``wanted``
    (whole identifiers: ``monitor_cost_per_completion`` is not
    ``per_completion``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        for field in ("id", "attr", "arg", "name"):
            value = getattr(node, field, None)
            if isinstance(value, str) and value in wanted:
                found.append((getattr(node, "lineno", 0), value))
    return sorted(found)


def test_one_invocation_rule_and_one_pass_record():
    """How many invocations a WM pass stands for is
    ``SchedulerCostModel.invocations`` alone: no ``per_completion=`` switch
    for a caller to set, and the per-invocation ``invocation_cost`` and the
    uncalled ``scheduling_overhead_fraction`` stay deleted.  Each backend
    records a pass with one ``record_scheduling_pass`` call."""
    gone = ("per_completion", "invocation_cost", "scheduling_overhead_fraction")
    assert _identifiers(
        "m.pass_cost(p, 1, 5, 2, 1, per_completion=False)\n"
        "def invocation_cost(self, monitor_cost_per_completion): ...\n"
        "from repro.analysis.metrics import scheduling_overhead_fraction\n",
        gone,
    ) == [(1, "per_completion"), (2, "invocation_cost"),
          (3, "scheduling_overhead_fraction")]
    package = ROOT / "src" / "repro"
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {what}"
        for path in sorted(package.rglob("*.py"))
        for line, what in _identifiers(path.read_text("utf-8"), gone)
    ]
    assert offenders == []
    backends = sorted((package / "runtime" / "backends").glob("*.py"))
    records = {
        path.name: len(_hand_rolled_wm(
            path.read_text("utf-8"), calls=("record_scheduling_pass",)
        ))
        for path in backends
    }
    assert records == {"base.py": 0, "__init__.py": 0, "threaded.py": 1,
                       "virtual.py": 1}


#: settings that became constants and state nothing read, by the
#: ``src/repro`` file they are gone from (None: the whole package)
_REMOVED = {
    None: (
        "top_k", "horizon_tasks", "horizon_us", "scan_limit", "_row_est",
        "queue_depth", "default_coeffs", "jitter_sigma", "default_cpu_time",
        "pool_slack", "is_idle", "assigned_pe", "bytes_used",
        "allocation_count", "RetryBudgetExceeded", "per_type_utilization",
        "queue_delay_stats", "throughput_tasks_per_ms", "schedulability_check",
        # toolchain, hardware and sweep-analysis settings
        "hotness_threshold", "amplification_threshold", "strong_amplification",
        "merge_adjacent_kernels", "hash_cache", "probe_lengths", "extra_outs",
        "cpu_times", "complex_bytes", "x_key", "y_key", "manifest_wait_s",
        # helpers only tests called
        "type_names", "total_pes", "shared_cores", "pes_on_core",
        "supported_platform_names", "has_kernel", "management_core_speed",
        "has_shared_object", "shared_objects", "merged_with", "tail_nodes",
        "platform_types", "total_variable_bytes", "with_overrides", "best_by",
        "as_dict", "app_names", "fig9_workload",
        # threaded-backend, renderer and workload settings
        "pin_threads", "_try_pin", "phase_us", "accelerator_platform",
        # kernel-library and model helpers only tests called
        "realign_matrix", "doppler_spectrum", "range_doppler_map",
        "find_peak_2d", "fft_shift", "naive_dft", "naive_idft", "next_pow2",
        "crc32_bytes", "check_crc32", "pilot_error", "measured_snr_db",
        "xcorr_fd", "render_rows", "binding_for",
    ),
    "runtime/handler.py": ("busy_time", "tasks_executed"),
    "runtime/workload_manager.py": ("snapshot",),
    "appmodel/instance.py": ("pool",),
    "appmodel/variables.py": ("slack",),
    "toolchain/pipeline.py": ("recognize",),
    "toolchain/recognition.py": ("rtol", "atol"),
    "toolchain/dag_generation.py": ("app_name",),
    "dse/runner.py": ("frontier",),
    "experiments/case_study_1.py": ("policy", "seed"),
    "experiments/case_study_2.py": ("config", "out_dir"),
    "experiments/case_study_3.py": ("policy", "iterations", "out_dir"),
    "experiments/case_study_4.py": ("workdir", "cleanup"),
    "runtime/backends/threaded.py": ("timeout_s",),
    "analysis/trace_export.py": ("width", "until"),
    "analysis/figures.py": ("width", "height"),
    "analysis/tables.py": ("columns",),
    "runtime/workload.py": ("phase",),
    "apps/pulse_doppler.py": ("app_name",),
    "common/ids.py": ("start", "reset"),
}


def test_one_value_settings_and_unread_state_stay_deleted():
    """A setting no caller sets to anything but its default is a constant,
    and state nothing reads is not kept: none of the removed names comes
    back as an identifier, and ``repro.analysis.metrics`` and
    ``repro.apps.kernels.doppler`` stay deleted."""
    assert _identifiers(
        "RolloutScheduler(oracle, scan_limit=1)\n"
        "h.busy_time += 1.0\n",
        ("scan_limit", "busy_time"),
    ) == [(1, "scan_limit"), (2, "busy_time")]
    package = ROOT / "src" / "repro"
    assert not (package / "analysis" / "metrics.py").exists()
    assert not (package / "apps" / "kernels" / "doppler.py").exists()
    offenders = []
    for path in sorted(package.rglob("*.py")):
        rel = path.relative_to(package).as_posix()
        gone = _REMOVED[None] + _REMOVED.get(rel, ())
        for line, what in _identifiers(path.read_text("utf-8"), gone):
            offenders.append(f"{rel}:{line}: {what}")
    assert offenders == []


#: what the deleted second speed harness was reached by (spelled in two
#: parts so this file does not name them itself)
_HARNESS_NAMES = tuple(
    a + b for a, b in (("repro.perf.", "harness"), ("repro.perf.", "scenarios"),
                       ("dssoc-emulate ", "bench"))
)


def test_one_instrument_for_speed():
    """Speed is measured by ``benchmarks/spine/`` alone: the CLI keeps its
    seven subcommands, ``repro.perf`` keeps only the peak-RSS reader the
    spine imports, and nothing in the program, the tests, CI or the
    verify notes names the deleted harness again."""
    import argparse

    from repro.cli import build_parser

    (subparsers,) = [
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    assert sorted(subparsers.choices) == [
        "export-specs", "list", "perf", "run", "sweep", "sweep-server",
        "sweep-worker",
    ]
    perf = ROOT / "src" / "repro" / "perf"
    assert sorted(p.name for p in perf.iterdir()
                  if p.name != "__pycache__") == ["__init__.py", "rss.py"]
    paths = [
        path
        for top in ("src", "tests", ".github", ".claude")
        for path in sorted((ROOT / top).rglob("*"))
        if path.is_file() and path.suffix in (".py", ".md", ".yml", ".yaml",
                                              ".toml", ".c", ".json")
    ]
    offenders = [
        f"{path.relative_to(ROOT)}:{number}: {name}"
        for path in paths
        for number, line in enumerate(
            path.read_text("utf-8", errors="replace").splitlines(), 1)
        for name in _HARNESS_NAMES
        if name in line
    ]
    assert offenders == []


#: the stubs left only for ``benchmarks/spine/`` (see their docstrings)
_SPINE_STUBS = ("repro.core", "repro._native")


def _stub_imports(source: str) -> list[tuple[int, str]]:
    """``(line, module)`` for each import of a spine-only stub, in any
    spelling: ``import repro.core``, ``from repro import core`` or
    ``from repro._native import x``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            base = node.module or ""
            modules = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for module in modules:
            for stub in _SPINE_STUBS:
                if module == stub or module.startswith(stub + "."):
                    found.append((node.lineno, stub))
    return sorted(set(found))


def test_spine_only_stubs_gain_no_users():
    """``repro.core`` and ``repro._native`` answer only the spine's calls.
    No module under ``src/repro/`` imports them but themselves, and under
    ``tests/`` only the contract test that pins their answers does."""
    assert _stub_imports(
        "from repro import core as core_select\nimport repro._native\n"
        "from repro import _native, cli\nfrom repro.core import core_info\n"
        "from repro import coredump\nimport repro.corex\nfrom . import core\n"
    ) == [(1, "repro.core"), (2, "repro._native"), (3, "repro._native"),
          (4, "repro.core")]
    allowed = {
        ROOT / "src" / "repro" / "core.py",
        ROOT / "src" / "repro" / "_native" / "__init__.py",
        ROOT / "tests" / "test_core_stubs.py",
    }
    offenders = [
        f"{path.relative_to(ROOT)}:{line}: {stub}"
        for top in ("src", "tests")
        for path in sorted((ROOT / top).rglob("*.py"))
        if path not in allowed
        for line, stub in _stub_imports(path.read_text("utf-8"))
    ]
    assert offenders == []
