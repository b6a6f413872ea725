"""Tests of the benchmark itself: the seeded inputs, the host-speed
scaling, the tracer and the cold-state guard.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import math
import shutil
import subprocess
import sys

import pytest

import hostspeed
from hostspeed import REFERENCE_S, SpeedClock
from inputs import population, stratified_draw
from run import call_counts, run_rep
from spans import Tracer
from worker import HERE, PRESENTATIONS, ROOT

sys.path.insert(0, str(ROOT / "src"))


@pytest.mark.parametrize("workload", sorted(PRESENTATIONS))
def test_draw_is_deterministic_distinct_and_consistent(workload) -> None:
    from metacyclic.group import MetacyclicGroup

    lo, hi, count = PRESENTATIONS[workload]
    pop = population(lo, hi)
    keys = stratified_draw(pop, count, 5)
    assert keys == stratified_draw(pop, count, 5)
    assert keys != stratified_draw(pop, count, 6)
    assert len(set(keys)) == count
    for m, n, s, t in keys:
        assert lo <= m * n <= hi
        assert math.gcd(t, m) == 1
        assert pow(t, n, m) == 1 % m
        assert s * (t - 1) % m == 0
        MetacyclicGroup(m, n, s, t)


def test_population_matches_the_program_enumeration() -> None:
    from metacyclic.cli import consistent_presentations
    from metacyclic.group import MetacyclicGroup

    ours = [MetacyclicGroup(*key).key for key in population(1, 40)]
    assert ours == [G.key for G in consistent_presentations(40)]
    assert population(10, 40) == [k for k in population(1, 40) if k[0] * k[1] >= 10]


def test_inputs_use_no_program_function() -> None:
    code = ("import sys; sys.modules['metacyclic'] = None; "
            f"sys.path.insert(0, {str(HERE)!r}); import inputs; "
            "inputs.stratified_draw(inputs.population(1, 64), 50, 0); "
            "assert not [k for k in sys.modules if k.startswith('metacyclic.')]")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


@pytest.mark.parametrize("slowdown", [1, 2])
def test_speed_clock_scales_by_probe_time(monkeypatch, slowdown) -> None:
    """With a fake clock: probes that take `slowdown` times REFERENCE_S
    divide raw segment and item times by `slowdown`; no probe runs before
    a segment is due or inside an item, and probe time is in no segment."""
    now = [0.0]
    monkeypatch.setattr(hostspeed, "clock", lambda: now[0])

    def kernel():
        now[0] += slowdown * REFERENCE_S

    speed = SpeedClock(kernel)
    assert speed.lap() == (0.0, 0.0)
    for _ in range(3):
        now[0] += 0.02
        speed.item(0.02)
        speed.mark()
    assert len(speed.probes) == 3  # one at start, one closing the empty lap
    speed.in_item = True
    now[0] += 0.1
    speed.mark()
    speed.in_item = False
    speed.item(0.1)
    speed.mark()
    assert len(speed.probes) == 4
    now[0] += 0.04
    raw, scaled = speed.lap()
    assert raw == pytest.approx(0.2)
    assert scaled == pytest.approx(0.2 / slowdown)
    assert speed.latencies == pytest.approx([x / slowdown for x in (0.02, 0.02, 0.02, 0.1)])


def test_self_times_partition_the_root_span() -> None:
    tracer = Tracer()
    inner = tracer.wrap("numth.units", lambda: sum(range(10000)))

    def outer_body():
        return [inner() for _ in range(3)]

    outer = tracer.wrap("cli.main", outer_body)
    outer()
    with pytest.raises(ZeroDivisionError):
        tracer.wrap("group.core", lambda: 1 // 0)()
    stats = tracer.summary()
    assert stats["numth.units.calls"] == 3 and stats["cli.main.calls"] == 1
    assert stats["group.errors"] == 1 and stats["cli.errors"] == 0
    root = tracer.end[0] - tracer.start[0]
    assert stats["cli.main.self_s"] + stats["numth.units.self_s"] == pytest.approx(root)
    assert min(stats["cli.main.self_s"], stats["numth.units.self_s"]) > 0


def test_cold_state_guard() -> None:
    """Two consecutive traced repetitions of one workload and seed make the
    same calls; they would not if cache state leaked between them.  Tracing
    leaves the checked outputs unchanged."""
    first, second = (run_rep("decompose", 0, 1) for _ in range(2))
    plain = run_rep("decompose", 0, 0)
    assert call_counts(first) == call_counts(second)
    assert first["layers"]["group.subgroups.calls"] == PRESENTATIONS["decompose"][2]
    assert first["digest"] == second["digest"] == plain["digest"]
    assert first["failed"] == second["failed"] == plain["failed"] == 0


def test_bare_benchmark_directory_fails_without_result(tmp_path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "classify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
