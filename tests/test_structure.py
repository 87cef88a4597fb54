import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import energylab.structure as structure
from energylab.constructors import (InstanceSpec, arithmetic_progression, boolean_group,
                                    coset_union, random_set, subspace)
from energylab.energy import WeightKernel, energy_k, pair_energy
from energylab.group import make_group
from energylab.setfun import (DenseFunc, GSet, convolve, correlate, difference_set,
                              set_correlate, sumset)
from energylab.structure import (PreconditionError, SliceScan, connectedness_gamma,
                                 connected_extraction_gamma_floor, extract_connected_subset,
                                 extraction_step_cap, gowers_connectedness_gamma,
                                 greedy_disjoint_in_target, greedy_disjoint_slices,
                                 greedy_disjoint_translates, min_slice_energy_ratio,
                                 popular_slice_family, random_disjoint_family,
                                 regular_part, small_doubling_subset_oracle)


# -- greedy translate families -----------------------------------------------------


def test_translates_golden(triple):
    B = GSet.from_indices(triple.group, [0, 3])
    fam = greedy_disjoint_translates(triple, B)
    assert [(t, s.members.tolist()) for t, s in fam.members] == \
        [(0, [0, 1, 2]), (3, [3, 4, 5])]
    assert fam.count == 2
    assert fam.provenance["energy_bound"] == pytest.approx(2 ** -4 * 3 * 4 / 6)


def test_translates_singleton():
    g = make_group([5])
    A = GSet.from_indices(g, [0])
    fam = greedy_disjoint_translates(A, A)
    assert fam.count == 1
    assert fam.members[0][1].members.tolist() == [0]


def test_translates_subgroup():
    H = subspace(4, 2)
    fam = greedy_disjoint_translates(H, H)
    assert fam.count == 1  # every translate is H itself


def test_translates_bound_random():
    g = make_group([101])
    for seed in range(10):
        A = random_set(g, 0.2, seed)
        B = random_set(g, 0.2, seed + 50)
        if not A.card or not B.card:
            continue
        fam = greedy_disjoint_translates(A, B)
        e = pair_energy(A, B)
        assert fam.count >= min(A.card * B.card ** 2 / (16 * e), B.card / 2)


# -- greedy in-target families -----------------------------------------------------


def test_in_target_subgroup():
    H = subspace(5, 5)
    S = sumset(H, H)
    fam = greedy_disjoint_in_target(H, H, S)
    assert fam.count >= 1
    for _, piece in fam.members:
        assert piece.is_subset(H)


def test_in_target_guard():
    g = make_group([11])
    A = GSet.from_indices(g, [0])
    B = GSet.from_indices(g, [0, 1])
    S = sumset(A, B)
    with pytest.raises(PreconditionError):
        greedy_disjoint_in_target(A, B, S)


def test_in_target_single_translate():
    g = make_group([101])
    A = random_set(g, 0.35, 5)
    S = A.translate(3)
    fam = greedy_disjoint_in_target(A, A, S)
    for _, piece in fam.members:
        assert piece.is_subset(S)


# -- greedy slice families -----------------------------------------------------------


def test_slices_golden(triple):
    D = difference_set(triple, triple)
    fam = greedy_disjoint_slices(triple, D)
    assert fam.count == 1
    assert fam.members[0][0] == 2  # smallest-index tie-break on |A - A_s| = 3
    assert fam.members[0][1].members.tolist() == [0]
    assert fam.provenance["sigma"] == 19
    assert fam.count >= 25 / 76


def test_slices_subgroup():
    H = subspace(4, 2)
    fam = greedy_disjoint_slices(H, H)
    assert fam.count == 1


def test_slices_coset_union_disjoint():
    A = coset_union(4, [2, 2])
    D = difference_set(A, A)
    fam = greedy_disjoint_slices(A, D)
    assert fam.count >= 1
    masks = [s.mask for _, s in fam.members]
    for m1, m2 in itertools.combinations(masks, 2):
        assert not np.any(m1 & m2)


def test_slices_guard():
    g = make_group([7])
    A = GSet.from_indices(g, [0, 1])
    with pytest.raises(PreconditionError):
        greedy_disjoint_slices(A, GSet.empty(g))
    with pytest.raises(PreconditionError):
        greedy_disjoint_slices(A, GSet.from_indices(g, [3]))  # not inside A - A


# -- randomized disjoint family ------------------------------------------------------


def test_random_family_singletons():
    g = make_group([1 << 15])
    Ms = [GSet.from_indices(g, [i]) for i in range(10_000)]
    fam = random_disjoint_family(Ms, 1, 1.0, seed=7)
    assert fam.count >= 10_000 ** 2 * 1 / ((32 + 16) * 10_000)
    masks = set()
    for tag, piece in fam.members:
        assert piece.is_subset(Ms[tag])
        masks.add(piece.mask.tobytes())
    assert len(masks) == fam.count


def test_random_family_deterministic():
    g = make_group([1 << 14])
    Ms = [GSet.from_indices(g, [i]) for i in range(10_000)]
    a = random_disjoint_family(Ms, 1, 1.0, seed=3)
    b = random_disjoint_family(Ms, 1, 1.0, seed=3)
    assert [t for t, _ in a.members] == [t for t, _ in b.members]


def test_random_family_guard():
    g = make_group([16])
    Ms = [GSet.from_indices(g, [0, 1]), GSet.from_indices(g, [0, 2]),
          GSet.from_indices(g, [1, 2])]
    with pytest.raises(PreconditionError):
        random_disjoint_family(Ms, 2, 1.0, seed=0)  # overlap mass far above 1e-4 t^2 delta
    with pytest.raises(PreconditionError):
        random_disjoint_family([GSet.from_indices(g, [0])], 2, 1.0, seed=0)  # size below delta


# -- regular part ---------------------------------------------------------------------


def test_regular_part_examples(triple):
    H = subspace(4, 2)
    assert np.array_equal(regular_part(H).mask, H.mask)
    assert np.array_equal(regular_part(triple).mask, triple.mask)
    cube = correlate(convolve(triple, triple), triple).values
    assert [int(cube[x]) for x in (0, 1, 2)] == [6, 3, 1]


def test_regular_part_random():
    g = make_group([101])
    for seed in range(10):
        A = random_set(g, 0.2, seed)
        Ap = regular_part(A)
        assert 2 * Ap.card >= A.card
        # defining bound holds on every kept point
        cube = correlate(convolve(A, A), A).values
        e2 = int(energy_k(A, 2).value)
        for x in Ap.members.tolist():
            assert int(cube[x]) * A.card <= 2 * e2


# -- connectedness ----------------------------------------------------------------------


def test_connectedness_whole_plane():
    F4 = GSet.full(boolean_group(2))
    gamma, witness = connectedness_gamma(F4, 2, 0.5)
    assert gamma == pytest.approx(1.0)
    assert witness.card == 4
    # size-2 and size-3 ratios sit above 1 (2 and ~1.037)
    ratios = []
    for r in (2, 3):
        best = min(
            int(energy_k(GSet.from_indices(F4.group, c), 2).value) * (4 / r) ** 4 / 64
            for c in itertools.combinations(range(4), r))
        ratios.append(best)
    assert ratios[0] == pytest.approx(2.0)
    assert ratios[1] == pytest.approx(84 / 81)


def test_connectedness_tight_beta(triple):
    gamma, witness = connectedness_gamma(triple, 2, 1.0 - 1e-9)
    assert gamma == pytest.approx(1.0)
    assert witness.card == 3


def test_connectedness_exhaustive_cross_check(triple):
    gamma, witness = connectedness_gamma(triple, 2, 2 / 3)
    e_a = 19
    best = math.inf
    for r in (2, 3):
        for c in itertools.combinations([0, 1, 2], r):
            B = GSet.from_indices(triple.group, c)
            best = min(best, int(energy_k(B, 2).value) * (3 / r) ** 4 / e_a)
    assert gamma == pytest.approx(best)
    assert gamma <= 1.0


def test_gowers_connectedness_matches_energy_version():
    F4 = GSet.full(boolean_group(2))
    g2, _ = gowers_connectedness_gamma(F4, 2, 0.5)
    e2, _ = connectedness_gamma(F4, 2, 0.5)
    assert g2 == pytest.approx(e2)


def test_gowers_connectedness_triple(triple):
    gamma, witness = gowers_connectedness_gamma(triple, 3, 2 / 3)
    from energylab.gowers import gowers_u

    u_a = gowers_u(triple, 3).count
    best = math.inf
    for r in (2, 3):
        for c in itertools.combinations([0, 1, 2], r):
            B = GSet.from_indices(triple.group, c)
            best = min(best, gowers_u(B, 3).count * (3 / r) ** 8 / u_a)
    assert gamma == pytest.approx(best)
    assert gamma <= 1.0


# -- connected-subset extraction -----------------------------------------------------------


def test_extract_subgroup_no_steps():
    H = subspace(4, 2)
    q = WeightKernel.from_difference(H.group, set_correlate(H, H), psd=True)
    out, steps = extract_connected_subset(H, q, 0.5, 1.0, 0.25)
    assert steps == 0
    assert np.array_equal(out.mask, H.mask)


def test_extract_full_width_terminates(triple):
    q = WeightKernel.from_difference(triple.group, set_correlate(triple, triple), psd=True)
    out, steps = extract_connected_subset(triple, q, 1.0, 1.0, 0.5)
    assert out.card > 0


def test_extract_strips_outlier():
    g = make_group([101])
    A = GSet.from_indices(g, list(range(9)) + [50])
    q = WeightKernel.from_difference(g, set_correlate(A, A), psd=True)
    out, steps = extract_connected_subset(A, q, 0.1, 0.2, 0.4)
    assert steps >= 1
    assert steps <= extraction_step_cap(A, q, 0.1, 0.2, 0.4)
    # survivor keeps the guaranteed energy share, exactly: (1 - beta2 rho) = 23/25
    eq_a = q.energy(A, A)
    eq_out = q.energy(out, out)
    assert Fraction(eq_out) > Fraction(23, 25) ** (2 * steps) * eq_a


def test_extract_guarantee_audit():
    g = make_group([101])
    for seed in (0, 1, 2):
        A = random_set(g, 0.12, seed)
        if A.card > 16 or A.card < 4:
            continue
        q = WeightKernel.from_difference(g, set_correlate(A, A), psd=True)
        beta1, beta2, rho = 0.25, 1.0, 0.125
        out, steps = extract_connected_subset(A, q, beta1, beta2, rho)
        shrink = (Fraction(1) - Fraction(beta2) * Fraction(rho)) ** (2 * steps)
        kept = Fraction(int(q.energy(out, out)))
        floor = shrink * int(q.energy(A, A))
        # strict once a removal happened; equality when the set survived untouched
        assert kept > floor if steps else kept == floor
        # no violating subset survives: re-check exhaustively
        mem = out.members.tolist()
        eq_v = int(q.energy(out, out))
        m = len(mem)
        for r in range(max(1, math.ceil(beta1 * m - 1e-9)), math.floor(beta2 * m + 1e-9) + 1):
            for c in itertools.combinations(mem, r):
                C = GSet.from_indices(g, c)
                assert Fraction(int(q.energy(C, out)) * m) >= Fraction(rho) * r * eq_v


def test_extract_rejects_bad_rho():
    H = subspace(3, 2)
    q = WeightKernel.from_difference(H.group, set_correlate(H, H), psd=True)
    with pytest.raises(PreconditionError):
        extract_connected_subset(H, q, 0.2, 0.5, 0.5)


def test_extract_refuses_a_kernel_energy_past_int64():
    """(A o A)^15 fits int64 entry by entry, but E_q(A) = 1.84e19 does not: the
    int64 sum once wrapped to 1.3e12 and the scan reported a vanished energy."""
    A = InstanceSpec("random", {"group": [101], "density": 0.2}, 3).build()
    ca = set_correlate(A, A)
    assert A.card == 16 and int(ca.max()) == 16
    q = WeightKernel.from_difference(A.group, ca ** 15, psd=True)
    assert int(q.energy(A, A)) >= 2 ** 63
    with pytest.raises(ValueError, match="INT64_SAFE_BOUND"):
        extract_connected_subset(A, q, 0.5, 1.0, 0.25)
    # one power lower the energy fits, and the scan runs
    q = WeightKernel.from_difference(A.group, ca ** 14, psd=True)
    out, steps = extract_connected_subset(A, q, 0.5, 1.0, 0.25)
    assert steps == 0 and out == A


def _violators(w, beta1, beta2, rho):
    """Every mask violating the extraction test, in ascending order, exactly."""
    m, eq_v = len(w), sum(w)
    out = []
    for mask in range(1, 1 << m):
        size = bin(mask).count("1")
        if beta1 * m - 1e-9 <= size <= beta2 * m + 1e-9:
            S = sum(w[i] for i in range(m) if mask >> i & 1)
            if Fraction(S * m) < Fraction(rho) * size * eq_v:
                out.append((mask, Fraction(S * m, size * eq_v)))
    return out


@pytest.mark.parametrize("chunk", [None, 8])
def test_first_violator_decides_a_near_tie_exactly(monkeypatch, chunk):
    """Weights near 2^57 make the float test round.  At rho just above the least
    ratio R the tie mask violates, although a plain float `<` rejects it; at the
    largest float rho <= R no mask does, although the widened float prefilter keeps
    the tie mask: the exact test decides both."""
    if chunk is not None:
        monkeypatch.setattr(structure, "BOUND_CHUNK", chunk)
    rng = np.random.default_rng(0)
    w = [int(v) for v in (1 << 57) + rng.integers(0, 1 << 40, size=10)]
    m, eq_v = len(w), sum(w)
    beta1, beta2 = 0.3, 0.7
    ratios = [r for _, r in _violators(w, beta1, beta2, 1.0)]
    R = min(ratios)
    above = math.nextafter(float(R), math.inf) if float(R) <= R else float(R)
    below = float(R) if float(R) <= R else math.nextafter(float(R), -math.inf)
    W = np.array(w, dtype=np.int64)
    first = _violators(w, beta1, beta2, above)[0][0]
    assert structure._first_violator(W, eq_v, beta1, beta2, above) == first
    assert _violators(w, beta1, beta2, below) == []
    assert structure._first_violator(W, eq_v, beta1, beta2, below) == -1
    sums = structure._subset_sums_over_masks(W)
    size = bin(first).count("1")
    # unwidened, the float test misses the true violator at `above`
    assert not float(sums[first]) * m < above * size * float(eq_v)
    # widened, it keeps the tie mask at `below`, where the Fraction test rejects it
    assert float(sums[first]) * m < below * size * float(eq_v) * (1 + 8 * 2.0 ** -53)


def test_first_violator_matches_the_exact_scan(monkeypatch):
    """Across chunk boundaries, the first violator of integer weights is the first
    mask of the exact scan, and that of float weights the first of the float test
    over the whole table at once."""
    monkeypatch.setattr(structure, "BOUND_CHUNK", 16)
    rng = np.random.default_rng(9)
    beta1, beta2 = 0.25, 1.0
    for trial in range(20):
        w = [int(v) for v in rng.integers(0, 50, size=int(rng.integers(3, 11)))]
        if not sum(w):
            continue
        rho = float(rng.uniform(0.1, 0.9))
        want = _violators(w, beta1, beta2, rho)
        got = structure._first_violator(np.array(w, dtype=np.int64), sum(w), beta1, beta2, rho)
        assert got == (want[0][0] if want else -1), trial
        wf = np.array(w, dtype=np.float64) * 0.37
        m, eq_f = wf.size, wf.sum()
        pops = structure._popcounts(1 << m)
        hits = np.flatnonzero((pops >= beta1 * m - 1e-9) & (pops <= beta2 * m + 1e-9) & (pops > 0)
                              & (structure._subset_sums_over_masks(wf) * m < rho * pops * eq_f))
        got = structure._first_violator(wf, eq_f, beta1, beta2, rho)
        assert got == (int(hits[0]) if hits.size else -1), trial


def test_gamma_floor_formula():
    # k = 2, no removals: floor is beta^4 / 16
    assert connected_extraction_gamma_floor(2, 0.5, 0) == pytest.approx(0.5 ** 4 / 16)
    # one removal multiplies by (2 - beta)^2 / 4
    assert connected_extraction_gamma_floor(2, 0.5, 1) == \
        pytest.approx(0.5 ** 4 / 16 * (1.5 ** 2 / 4))


# -- slice scan -------------------------------------------------------------------------


def test_min_slice_ratio_subgroup():
    H = subspace(4, 2)
    scan = min_slice_energy_ratio(H)
    assert scan.ratio == pytest.approx(1.0)


def test_min_slice_ratio_random():
    g = make_group([101])
    A = random_set(g, 0.25, 3)
    scan = min_slice_energy_ratio(A)
    assert scan.ratio is not None and scan.ratio < 1.0
    assert scan.shift != 0


def test_min_slice_ratio_structured():
    from energylab.constructors import h_plus_lambda

    A = h_plus_lambda(6, 2, 4)
    scan = min_slice_energy_ratio(A)
    assert scan.ratio is not None
    # every qualifying slice of the direct sum is itself structured
    assert scan.ratio >= 0.4


# -- small-doubling oracle -----------------------------------------------------------------


def test_oracle_subgroup_plus_point():
    H = subspace(4, 2)
    A = H.union(GSet.from_indices(H.group, [1]))
    w, doubling = small_doubling_subset_oracle(A, 0.5)
    assert np.array_equal(w.mask, H.mask)
    assert doubling == pytest.approx(1.0)


def test_oracle_ap():
    A = arithmetic_progression(101, 0, 1, 8)
    _w, doubling = small_doubling_subset_oracle(A, 1.0)
    assert doubling == pytest.approx(15 / 8)


def test_oracle_matches_recount():
    g = make_group([101])
    A = random_set(g, 0.1, 12)
    if A.card > 14:
        A = GSet.from_indices(g, A.members.tolist()[:14])
    w, doubling = small_doubling_subset_oracle(A, 0.5)
    assert difference_set(w, w).card / w.card == pytest.approx(doubling)
    best = math.inf
    mem = A.members.tolist()
    for r in range(math.ceil(len(mem) / 2), len(mem) + 1):
        for c in itertools.combinations(mem, r):
            B = GSet.from_indices(g, c)
            best = min(best, difference_set(B, B).card / B.card)
    assert doubling == pytest.approx(best)


def test_oracle_cap():
    g = make_group([101])
    A = random_set(g, 0.5, 0)
    with pytest.raises(ValueError):
        small_doubling_subset_oracle(A, 0.5)


# -- popular-slice pipeline -------------------------------------------------------------


def test_popular_slice_family_guard_at_desk_scale():
    # the probabilistic step needs ~1e4 slices at one dyadic level; a desk-size
    # instance must trip the overlap-mass guard rather than claim the bound
    g = make_group([101])
    A = random_set(g, 0.3, 1)
    with pytest.raises(PreconditionError):
        popular_slice_family(A, seed=0)


def test_connectedness_params_validation():
    from energylab.structure import ConnectednessParams

    p = ConnectednessParams(alpha=2, beta1=0.5, rho=0.25)
    assert p.beta_hi == 0.5
    q = ConnectednessParams(alpha=2, beta1=0.1, beta2=0.2, rho=0.4)
    assert q.beta_hi == 0.2
    with pytest.raises(ValueError):
        ConnectednessParams(alpha=1.0, beta1=0.5)
    with pytest.raises(ValueError):
        ConnectednessParams(alpha=2, beta1=0.5, beta2=0.4)
    with pytest.raises(ValueError):
        ConnectednessParams(alpha=2, beta1=0.2, beta2=0.5, rho=0.5)  # rho >= beta1/beta2


def test_connectedness_gamma_is_one_on_subgroups():
    for dim in (2, 3):
        H = subspace(4, dim)
        gamma, witness = connectedness_gamma(H, 2, 0.5)
        assert gamma == pytest.approx(1.0)
        assert witness.card == H.card
        assert 0 < gamma <= 1.0


def test_extract_subset_energy_floor_exhaustive():
    # the kept set also satisfies the subset-energy form E_q(C) >= rho^2 mu^2 E_q(A')
    g = make_group([101])
    A = GSet.from_indices(g, [0, 1, 2, 3, 4, 5, 40, 41])
    q = WeightKernel.from_difference(g, set_correlate(A, A), psd=True)
    beta1, beta2, rho = 0.25, 1.0, 0.125
    out, _steps = extract_connected_subset(A, q, beta1, beta2, rho)
    mem = out.members.tolist()
    m = len(mem)
    eq_v = int(q.energy(out, out))
    rho_f = Fraction(rho)
    for r in range(max(1, math.ceil(beta1 * m - 1e-9)), m + 1):
        for c in itertools.combinations(mem, r):
            C = GSet.from_indices(g, c)
            lhs = Fraction(int(q.energy(C, C)))
            assert lhs >= rho_f ** 2 * Fraction(r, m) ** 2 * eq_v


def test_min_slice_ratio_no_qualifier():
    g = make_group([11])
    A = GSet.from_indices(g, [0])
    scan = min_slice_energy_ratio(A)
    assert scan.shift is None and scan.ratio is None and scan.qualifying == 0


def test_weighted_regular_part_bound():
    # for nonnegative even weights, functions on the kept half obey the averaged bound
    g = make_group([101])
    rng = np.random.Generator(np.random.Philox(key=77))
    for trial in range(10):
        A = random_set(g, 0.2, trial)
        B = random_set(g, 0.25, 100 + trial)
        w = set_correlate(B, B) ** (1 + trial % 2)
        from energylab.structure import regular_part_weighted

        Ap = regular_part_weighted(A, w)
        assert 2 * Ap.card >= A.card
        total = int(np.dot(w, set_correlate(A, A)))
        for _ in range(50):
            vals = rng.integers(-3, 4, size=Ap.card)
            vals[vals == 0] = 1
            f = np.zeros(g.size, dtype=np.int64)
            f[Ap.members] = vals
            corr_f = correlate(DenseFunc(g, f), DenseFunc(g, f)).values
            lhs = int(np.dot(w, corr_f))
            norm2 = int(np.dot(f, f))
            assert lhs * A.card <= 2 * total * norm2
