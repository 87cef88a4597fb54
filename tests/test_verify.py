import gc
import hashlib
import json
import time
import weakref
import zlib

import numpy as np
import pytest

import energylab.verify as verify
from energylab.constructors import (arithmetic_progression, golden_hplusl, random_set,
                                    subspace)
from energylab.energy import energy_k, t_k
from energylab.group import make_group
from energylab.setfun import (DenseFunc, GSet, correlate, difference_set, set_correlate,
                              sumset)
from energylab.structure import regular_part
from energylab.verify import (CheckResult, Profile, VerifyConfig, frozen_corpus,
                              random_family_acceptance_instance, results_to_json,
                              run_algorithm_audits, run_identity_suite,
                              run_inequality_suite, run_ratio_report)


def _by_tag(results):
    return {r.tag: r for r in results}


def test_identity_suite_golden(triple):
    B = GSet.from_indices(triple.group, [0, 3])
    res = run_identity_suite(triple, B)
    tags = _by_tag(res)
    assert all(r.status == "pass" for r in res), [r.tag for r in res if r.status != "pass"]
    assert tags["identity.e3_slice_sum"].lhs == "45"
    assert tags["identity.delta_minus_paths"].lhs == "19"
    assert tags["identity.delta_plus_paths"].lhs == "19"
    assert tags["identity.u2_energy"].lhs == "19"
    assert tags["identity.pair_energy_spectrum"].lhs == "6"


def test_identity_suite_subgroup():
    H = subspace(4, 2)
    res = run_identity_suite(H)
    assert all(r.status == "pass" for r in res)
    tags = _by_tag(res)
    assert tags["identity.e3_slice_sum"].lhs == str(4 ** 4)
    assert tags["identity.e4_slice_pair_sum"].lhs == str(4 ** 5)


def test_identity_suite_seeded_random():
    for factors, density in (([101], 0.16), ([2] * 8, 0.11)):
        g = make_group(factors)
        for seed in range(5):
            A = random_set(g, density, seed)
            res = run_identity_suite(A)
            bad = [r for r in res if r.status == "fail"]
            assert not bad, [(r.tag, r.lhs, r.rhs) for r in bad]


def test_inequality_suite_golden_values(triple):
    res = run_inequality_suite(triple)
    tags = _by_tag(res)
    assert all(r.status != "fail" for r in res)
    # worked slice-size sum: 9/5 + 1 + 1/3 + 1/3 + 1 vs 45/9
    assert float(tags["ineq.e3_weight_minus"].lhs) == pytest.approx(4.4666666667)
    assert float(tags["ineq.e3_weight_minus"].rhs) == pytest.approx(5.0)


def test_inequality_suite_ap_plunnecke():
    A = arithmetic_progression(101, 0, 1, 8)
    S = sumset(A, A)
    assert S.card == 15
    twoAminusA = difference_set(sumset(A, A), A)
    assert twoAminusA.card == 22
    res = run_inequality_suite(A)
    tags = _by_tag(res)
    r = tags["ineq.plunnecke_2_1"]
    assert r.status == "pass"
    assert int(r.lhs) == 22 * 8 ** 2 and int(r.rhs) == 15 ** 3


def test_inequality_suite_subgroup_equalities():
    H = subspace(4, 2)
    res = run_inequality_suite(H)
    tags = _by_tag(res)
    assert all(r.status != "fail" for r in res)
    # eighth-power bound is met with equality on a subgroup
    r = tags["ineq.lev_minus"]
    assert int(r.lhs) == 4 ** 8
    assert int(r.rhs) == int(energy_k(H, 4).value) * t_k(H, 2) == 4 ** 5 * 4 ** 3


def test_inequality_suite_pair(triple):
    B = GSet.from_indices(triple.group, [0, 3])
    res = run_inequality_suite(triple, B)
    assert all(r.status != "fail" for r in res)


def test_inequality_suite_random_instances():
    for factors, density, seeds in (([101], 0.16, 6), ([2] * 8, 0.11, 4), ([256], 0.11, 3)):
        g = make_group(factors)
        for seed in range(seeds):
            A = random_set(g, density, seed)
            res = run_inequality_suite(A)
            bad = [r for r in res if r.status == "fail"]
            assert not bad, [(r.tag, r.lhs, r.rhs, r.note) for r in bad]


def test_skip_reason_recorded():
    g = make_group([2] * 10)
    A = random_set(g, 0.05, 0)  # around 50 members: over the gamma cap
    res = run_inequality_suite(A)
    tags = _by_tag(res)
    assert tags["ineq.connected_energy"].status == "skip"
    assert "cap" in tags["ineq.connected_energy"].note


def test_ratio_report_golden_hplusl():
    A = golden_hplusl()
    res = run_ratio_report(A)
    tags = _by_tag(res)
    assert all(r.status in ("report", "skip") for r in res)
    crit = tags["ratio.critical_e3"]
    assert crit.ratio == pytest.approx(28672 / (16 * 2560))
    assert crit.ratio == pytest.approx(0.7)


def test_ratio_report_subgroup_unit_ratio():
    H = subspace(4, 2)
    tags = _by_tag(run_ratio_report(H))
    assert tags["ratio.e3_diffset_74"].ratio == pytest.approx(1.0)
    assert tags["ratio.selfdual"].ratio == pytest.approx(1.0)


def test_ratio_report_reproducible_digits():
    g = make_group([101])
    A = random_set(g, 0.2, 9)
    a = results_to_json(run_ratio_report(A))
    b = results_to_json(run_ratio_report(A))
    assert a == b
    for r in run_ratio_report(A):
        if r.status == "report" and r.ratio is not None:
            assert np.isfinite(r.ratio)


def test_inequality_reproducible_digits():
    g = make_group([101])
    A = random_set(g, 0.2, 10)
    assert results_to_json(run_inequality_suite(A)) == results_to_json(run_inequality_suite(A))


def test_checkresult_serialization(triple):
    res = run_identity_suite(triple)
    payload = json.loads(results_to_json(res))
    assert isinstance(payload, list)
    assert set(payload[0]) == {"name", "tag", "lhs", "rhs", "status", "ratio", "note"}
    # canonical ordering by entry name
    names = [p["name"] for p in payload]
    assert names == sorted(names)


def test_frozen_corpus_composition():
    items = frozen_corpus(seeds=2)
    names = [it.name for it in items]
    assert "golden_z7" in names and "hplusl_10_4_6" in names
    assert sum(1 for n in names if n.startswith("z101_seed")) == 2
    assert sum(1 for n in names if n.startswith("f2_10_seed")) == 2
    # deterministic regeneration
    again = frozen_corpus(seeds=2)
    for a, b in zip(items, again):
        assert a.name == b.name and np.array_equal(a.A.mask, b.A.mask)


def test_algorithm_audits_on_corpus_sample():
    for item in frozen_corpus(seeds=2):
        res = run_algorithm_audits(item)
        assert all(r.status == "pass" for r in res), item.name


def test_random_family_acceptance_instance():
    out = random_family_acceptance_instance(seed=7)
    assert out["count"] >= out["bound"]


# sha256 over repr((item, suite, name, tag, lhs, rhs, status)) of every CheckResult,
# suite-major, over frozen_corpus(2) with all four suites; the same recipe over
# frozen_corpus(100) gives 13f4f3764c2e99b3438d50247cf46e32099de2079c7552296f06ddf94874ebc1
CORPUS2_DIGEST = "737387c030f05576c8e8ff81e0e4f1f303cdff9a18264b90e87cc0821c7d7290"
# the same hash over every row but the ratio.e4da* rows of the items where a pair
# budget once skipped ratio.e4da, computed while that budget was in place: no other
# row, the e4da reports of the other items included, has moved.  Over
# frozen_corpus(100), leaving out the rows of its 87 such items, it is
# 60c993a6f44d36905dbae4a9273e607a5b3ef7323dc632a3890209546b3dac4a (27,172 rows).
E4DA_ONCE_SKIPPED = ("f2_10_seed0", "f2_10_seed1")
CORPUS2_DIGEST_KEPT = "3defb2699c1ff7f4562d048fc93e5179884e73ddc0a94297a8ac3eeca35b4ebd"


def test_frozen_corpus_results_are_pinned():
    items = frozen_corpus(seeds=2)
    cfg = VerifyConfig()
    suites = (("identity", lambda it: run_identity_suite(it.A, it.B, cfg)),
              ("inequality", lambda it: run_inequality_suite(it.A, it.B, cfg)),
              ("ratio", lambda it: run_ratio_report(it.A, cfg)),
              ("algorithms", run_algorithm_audits))
    h, kept = hashlib.sha256(), hashlib.sha256()
    rows = 0
    for suite, run in suites:
        for it in items:
            for r in run(it):
                key = repr((it.name, suite, r.name, r.tag, r.lhs, r.rhs, r.status)).encode()
                h.update(key)
                if not (it.name in E4DA_ONCE_SKIPPED and r.tag.startswith("ratio.e4da")):
                    kept.update(key)
                rows += 1
    assert rows == 1234
    assert kept.hexdigest() == CORPUS2_DIGEST_KEPT
    assert h.hexdigest() == CORPUS2_DIGEST


def test_profile_holds_each_entry(monkeypatch):
    """An entry is computed once per set object, however many checks and suite
    calls read it."""
    calls = []
    real = verify.energy_k

    def counting(A, k=2):
        if A == golden_hplusl():  # not its difference set, which a ratio row reads
            calls.append(k)
        return real(A, k)

    monkeypatch.setattr(verify, "energy_k", counting)
    p = Profile(golden_hplusl())
    assert p.E(3) == p.E(3) == int(energy_k(golden_hplusl(), 3).value)
    assert p.D is p.D
    assert not p.ca.flags.writeable
    run_inequality_suite(golden_hplusl())
    assert calls.count(3) == 2  # one per set object: p's above, and the suite's own
    # entries live on the set, so every suite call on one object shares them
    A = golden_hplusl()
    run_identity_suite(A)
    run_inequality_suite(A)
    run_ratio_report(A)
    assert Profile(A).E(3) == p.E(3)
    assert calls.count(3) == 3


def test_profile_is_freed_without_the_cycle_collector():
    """No cache entry refers back to the set or to a profile, so the set and its
    cache go as soon as their last user lets go, rather than waiting for a
    garbage-collection pass."""
    p = Profile(golden_hplusl(), None, None, "hplusl")
    for suite in ("identity", "inequality", "ratio", "algorithms"):
        verify._run(suite, p)
    assert {("frontier", False), ("frontier", True), ("E", 3)} <= p.A.cache.keys()
    refs = [weakref.ref(p), weakref.ref(p.A), weakref.ref(p.A.cache[("frontier", True)])]
    gc.disable()
    try:
        del p
        assert [ref() for ref in refs] == [None] * 3
    finally:
        gc.enable()


def test_run_corpus_lets_go_of_each_item(monkeypatch):
    """Each item's sets, with their caches, are freed once its suites have run,
    so what a corpus run holds does not grow with the number of items."""
    refs = []
    alive = []

    class Recording(Profile):
        def __init__(self, A, *args):
            alive.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(A))
            super().__init__(A, *args)

    monkeypatch.setattr(verify, "Profile", Recording)
    gc.disable()
    try:
        verify.run_corpus(seeds=0, include_random_family=False)
    finally:
        gc.enable()
    assert len(alive) == len(frozen_corpus(0))
    # the item before is still named by the loop when the next profile is made
    assert max(alive) == 1


@pytest.mark.parametrize("name", ["golden_z7", "hplusl_8_3_5", "z101_seed1", "f2_10_seed2"])
def test_seeded_trials_keep_their_draws(name):
    """The seeded trials against a replay of their generator on the reference
    route, one correlation per drawn function: the same E(A, f) and |f|^2 per
    trial, in the same draw order, and the same four tuples."""
    item = next(i for i in frozen_corpus(3) if i.name == name)
    p = Profile(item.A, item.B, VerifyConfig(seed=5))
    A, g = item.A, item.A.group
    rng = np.random.Generator(np.random.Philox(key=[5, zlib.crc32(A.key())]))
    Ap = regular_part(A)
    ca = set_correlate(A, A)

    def trial(X):
        vals = rng.integers(-3, 4, size=X.card)
        vals[vals == 0] = 1
        f = np.zeros(g.size, dtype=np.int64)
        f[X.members] = vals
        corr = correlate(DenseFunc(g, f), DenseFunc(g, f)).values
        return int(np.dot(ca, corr)), int(np.dot(f, f))

    on_a, on_ap = [], []
    for _ in range(verify.EIGEN_TRIALS):
        on_a.append(trial(A))
        on_ap.append(trial(Ap))
    D = difference_set(A, A)
    tuples = []
    for _ in range(4):
        arity = int(rng.integers(1, 3))
        tuples.append([int(s) for s in rng.choice(D.members, size=arity)])
    got_a, got_ap, got_tuples = verify._trial_draws(p)
    assert list(zip(*got_a)) == on_a
    assert list(zip(*got_ap)) == on_ap
    assert got_tuples == tuples


def test_per_tag_seconds_charge_each_row_to_its_tag(monkeypatch):
    """`_evaluate` adds each row's wall time to its tag, a block's rows to theirs
    and a skipped row's time too; without a dict nothing is recorded, and the
    rows are the same either way."""
    def slow(p):
        time.sleep(0.02)
        return 1, 1

    def skipped(p):
        time.sleep(0.01)
        raise verify._Skip("hypothesis fails")

    rows = (("t.slow", "slow", verify._EQ, slow),
            verify._when(lambda p: True, ("t.inner", "inner", verify._EQ, slow)),
            verify._when(lambda p: False, ("t.left_out", "left out", verify._EQ, slow)),
            ("t.skip", "skip", verify._EQ, skipped))
    seconds: dict[str, float] = {}
    timed = verify._evaluate(rows, None, seconds)
    assert timed == verify._evaluate(rows, None)
    assert [r.status for r in timed] == ["pass", "pass", "skip"]
    assert set(seconds) == {"t.slow", "t.inner", "t.skip"}
    assert seconds["t.slow"] >= 0.02 and seconds["t.inner"] >= 0.02 and seconds["t.skip"] >= 0.01


def test_corpus_summary_reports_per_tag_seconds():
    """`run_corpus` reports seconds per tag over every row it ran; CheckResults
    carry no time, so their fields and digests are unchanged."""
    summary = verify.run_corpus(seeds=0, include_random_family=False)
    per_tag = summary["per_tag_seconds"]
    rows = [r for item in frozen_corpus(0)
            for r in run_identity_suite(item.A, item.B) + run_inequality_suite(item.A, item.B)
            + run_ratio_report(item.A) + run_algorithm_audits(item)]
    assert set(per_tag) == {r.tag for r in rows}
    per_entry = summary["per_entry_seconds"]
    assert {"ca", "slice_sumsets", "E(3)", "U(4)", "gamma(2)", "seeded_trials"} <= set(per_entry)
    assert all(s >= 0 for s in [*per_tag.values(), *per_entry.values()])
    assert (sum(per_tag.values()) + sum(per_entry.values())
            <= sum(summary["per_suite_seconds"].values()))
    assert set(CheckResult("n", "t", "1", "1", "pass").to_dict()) == {
        "name", "tag", "lhs", "rhs", "status", "ratio", "note"}


def test_entry_seconds_are_charged_to_the_entry(monkeypatch):
    """An entry's time goes to the entry, less that of the entries it reads
    first, and not to the row that reads it first; a held entry costs nothing."""
    def slow(seconds, then=lambda p: 0):
        def compute(p):
            time.sleep(seconds)
            return then(p)
        return compute

    monkeypatch.setitem(verify._ENTRIES, "inner", slow(0.1))
    monkeypatch.setitem(verify._ENTRIES, "outer", slow(0.05, lambda p: p.inner))
    rows = (("t.first", "first", verify._EQ, lambda p: (p.outer, 0)),
            ("t.again", "again", verify._EQ, lambda p: (p.outer + p.inner, 0)))
    p = Profile(golden_hplusl())
    p.seconds = {}
    per_tag: dict[str, float] = {}
    assert [r.status for r in verify._evaluate(rows, p, per_tag)] == ["pass", "pass"]
    assert set(p.seconds) == {"inner", "outer"}
    assert p.seconds["inner"] >= 0.1
    assert 0.05 <= p.seconds["outer"] < 0.1
    assert per_tag["t.first"] < 0.05 and per_tag["t.again"] < 0.05


def test_shared_entries_keep_b_and_the_seed_apart():
    """One set object run against two partners B and two seeds gives the rows
    of fresh objects: the pair energy is held per B and the trials per seed."""
    item = next(i for i in frozen_corpus(2) if i.name == "z101_seed1")
    A = item.A
    for B, seed in ((item.B, 0), (A, 0), (item.B, 3), (A, 3)):
        fresh = GSet(A.group, A.mask)
        assert (results_to_json(run_inequality_suite(A, B, VerifyConfig(seed)))
                == results_to_json(run_inequality_suite(fresh, B, VerifyConfig(seed))))
    assert {("e_ab", item.B.key()), ("e_ab", A.key()), ("seeded_trials", 0),
            ("seeded_trials", 3)} <= A.cache.keys()
