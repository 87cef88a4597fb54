"""Self-tests of the benchmark: tracing leaves outputs alone and its times add
up, the tail rule, and planted failures and budget errors are counted.

    python3 -m pytest perfbench -q
"""

import json
import time

import pytest

import energylab
import run
import workloads
from energylab import setfun
from energylab.group import make_group
from energylab.setfun import BudgetError, GSet
from energylab.verify import CheckResult
from tracer import Tracer, layer_of
from workloads import Outcome


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def _records(wl, directory, indices, tracer=None):
    out = []
    for j in indices:
        call, meta = wl.prepare(directory, j)
        if tracer:
            tracer.active = True
        try:
            raw = call()
        finally:
            if tracer:
                tracer.active = False
        o = Outcome(j, 0.0)
        wl.evaluate(o, raw, meta)
        assert not o.failed, o.failures
        out.append(o.record)
    return out


# cheap items of each workload: the smallest scans, and energy commands on F_2^14
ITEMS = {"corpus": [0, 2], "scan-small": [0, 1], "dense-cli": [0, 4, 16]}


@pytest.mark.parametrize("name", sorted(ITEMS))
def test_traced_outputs_equal_untraced(name, tmp_path):
    wl = workloads.WORKLOADS[name](seed=11)
    wl.generate(tmp_path)
    plain = _records(wl, tmp_path, ITEMS[name])
    t = Tracer()
    t.install()
    try:
        traced = _records(wl, tmp_path, ITEMS[name], t)
    finally:
        t.uninstall()
    assert traced == plain
    assert sum(st.calls for st in t.stats.values()) > 0
    # uninstall restored the originals
    assert not hasattr(energylab.setfun.set_correlate, "__wrapped__")
    assert not hasattr(GSet.slice1, "__wrapped__")


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_plus_child_equals_inclusive():
    t = Tracer()
    inner = t._wrap(lambda: _busy(0.002), "setfun", "sumset")

    def outer_fn():
        _busy(0.001)
        inner()
        inner()

    outer = t._wrap(outer_fn, "energy", "energy_k")
    t.active = True
    outer()
    t.active = False
    so, si = t.stats["energy.energy_k"], t.stats["setfun.sumset"]
    assert (so.calls, si.calls) == (1, 2)
    assert so.self_s + si.incl_s == pytest.approx(so.incl_s, abs=1e-12)
    assert so.self_s + si.self_s == pytest.approx(t.top_s, abs=1e-12)
    assert so.self_s >= 0.001 and si.self_s >= 0.004
    # the span list agrees: a span's duration is its self time plus its children's durations
    by_id = {s[0]: s for s in t.spans}
    children = {sid: 0.0 for sid in by_id}
    for sid, parent, _item, _fn, t0, t1 in t.spans:
        if parent >= 0:
            children[parent] += t1 - t0
    root = next(s for s in t.spans if s[1] == -1)
    assert root[5] - root[4] - children[root[0]] == pytest.approx(so.self_s, abs=1e-12)


def test_layer_self_times_account_for_traced_time(tracer):
    A = GSet.from_indices(make_group([2] * 6), range(0, 64, 3))
    tracer.active = True
    t0 = time.perf_counter()
    energylab.verify.run_identity_suite(A)
    tracer.wall_s += time.perf_counter() - t0
    tracer.active = False
    layer_self = sum(st.self_s for st in tracer.group_totals().values())
    assert layer_self == pytest.approx(tracer.top_s, rel=1e-9)
    assert tracer.top_s <= tracer.wall_s
    assert tracer.group_totals()["verify.identity"].calls == 1


def test_layer_names():
    assert layer_of("setfun", "GSet.slice1") == "setfun.set_algebra"
    assert layer_of("setfun", "tuple_sumset_sum") == "setfun.slice_tuples"
    assert layer_of("setfun", "GSet.from_indices") == "setfun.other"
    assert layer_of("group", "GroupSpec.shift_perm") == "group.index"
    assert layer_of("structure", "regular_part") == "structure.greedy"
    assert layer_of("structure", "connectedness_gamma") == "structure.scan"
    assert layer_of("energy", "energy_k") == "energy"


def test_tail_rule():
    assert run.tail_point([float(x) for x in range(40, 0, -1)]) == (30.0, 75.0, 10)
    assert run.tail_point([float(x) for x in range(1, 12)]) == (1.0, 100.0 / 11, 10)
    assert run.tail_point([3.0, 1.0, 2.0]) == (3.0, 100.0, 0)
    assert run.tail_point([float(x) for x in range(1, 101)]) == (90.0, 90.0, 10)


def _suite_result(outcomes, timed=1.0):
    return {"outcomes": outcomes, "timed": timed, "setup": [0.5], "rss_mb": 50.0, "scale": 1.0,
            "calib_ms": {"interp": 10.0}}


def test_planted_failing_check_raises_fail_frac():
    wl = workloads.Corpus(seed=5)
    good = [CheckResult("a", "identity.x", "1", "1", "pass"),
            CheckResult("b", "ineq.y", "", "", "skip", None, "budget")]
    bad = good + [CheckResult("c", "ineq.z", "2", "3", "fail")]
    outs = []
    for j, results in enumerate([good, bad, good, good]):
        o = Outcome(j, 0.1)
        wl.evaluate(o, (results, []), ("input", None))
        outs.append(o)
    assert [o.failed for o in outs] == [False, True, False, False]
    metrics, context = run.end_to_end(_suite_result(outs))
    assert context["fail_frac"] == 0.25
    assert metrics["ok_frac"][0] == 0.75
    assert context["skip_frac"] == 4 / 9
    assert metrics["ran_frac"][0] == pytest.approx(5 / 9)


def test_frozen_comparison():
    frozen = {"identity.a": ["pass", "00aa"], "ratio.e4da": ["skip", "0000"]}
    same = {"identity.a": ["pass", "00aa"], "ratio.e4da": ["skip", "0000"]}
    now_runs = {"identity.a": ["pass", "00aa"], "ratio.e4da_minus": ["report", "1111"]}
    changed = {"identity.a": ["pass", "00ab"]}
    assert workloads.compare_frozen(frozen, same) == []
    assert workloads.compare_frozen(frozen, now_runs) == []
    assert len(workloads.compare_frozen(frozen, changed)) == 1
    assert len(workloads.compare_frozen(frozen, {})) == 1


def test_planted_budget_error_is_counted(tracer):
    A = GSet.from_indices(make_group([101]), range(0, 40, 3))
    tracer.active = True
    with pytest.raises(BudgetError):
        energylab.setfun.count_nonempty_slice_tuples(A, 3, budget=5)
    with pytest.raises(BudgetError):
        # counted once even when it crosses several traced frames
        tracer._wrap(lambda: setfun.tuple_sumset_sum(A, 2, "-", budget=5), "verify",
                     "run_inequality_suite")()
    tracer.active = False
    totals = tracer.group_totals()
    assert totals["setfun.slice_tuples"].budget_errors == 2
    assert totals["setfun.slice_tuples"].calls == 2


def test_numpy_reference_matches_cli(tmp_path):
    from npref import Reference

    g = make_group([2, 3, 5])
    A = GSet.from_indices(g, [0, 1, 4, 7, 8, 11, 13, 17, 20, 22, 23, 29])
    path = tmp_path / "a.json"
    workloads.write_set(path, A)
    ref = Reference(str(path))
    for command, argv in workloads.DenseCli.COMMANDS.items():
        code, out, err = workloads.run_cli(argv + ["--set", str(path)])
        assert code == 0, err
        assert workloads.canonical_output(command, json.loads(out)) == ref.output(command), command


def test_items_past_the_pool_meet_their_frozen_record(tmp_path):
    wl = workloads.ScanSmall(seed=workloads.DEFAULT_SEED)
    assert len(wl.frozen) == wl.pool_size
    wl.generate(tmp_path)
    _call, (digest_in, frozen) = wl.prepare(tmp_path, wl.pool_size + 3)
    assert frozen is wl.frozen[3]
    assert frozen["input"] == digest_in
