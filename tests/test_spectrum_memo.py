"""The per-state memo of the trace-out: hits, bypasses, bound, sharing, keys, bitwise results."""

import math
import sys
import weakref

import numpy as np
import pytest

from entconvex import benchmarks, spectra, sweep
from entconvex.criterion import refine_blocks_by_sector
from entconvex.lgmodes import LGMode
from entconvex.oscillator import OscState
from entconvex.spectra import MEMO_BYTES, MEMO_ENTRY_BYTES, eigh_blocks, gram_blocks
from entconvex.sweep import (
    angular_pair,
    criterion_vs_observation,
    lg_pair,
    oscillator_pair,
    pair_criterion,
    spherium_pair,
)
from oracles import gram_blocks_unmemoized


@pytest.fixture
def solves(monkeypatch, empty_state_memo):
    """Every ``eigh_blocks`` call the memo makes, by its groups."""
    calls = []

    def counted(groups, _solve=eigh_blocks):
        calls.append(groups)
        return _solve(groups)

    monkeypatch.setattr(spectra, "eigh_blocks", counted)
    return calls


def _arrays(spec):
    return [spec.eigenvalues, spec.source, *(a for group in spec.groups for a in group)]


def _assert_bitwise(got, want):
    assert np.array_equal(got.eigenvalues, want.eigenvalues)
    assert np.array_equal(got.eigenvectors, want.eigenvectors)
    assert np.array_equal(got.source, want.source)
    assert got.blocks == want.blocks


def _lg_scan():
    # the criterion-6 scan, each positive-m mode against every later mode, and table 4
    modes = [LGMode(l, m) for l in range(5) for m in range(-4, 5) if m != 0]
    pairs = [lg_pair(m0, m1) for i, m0 in enumerate(modes) if m0.m > 0 for m1 in modes[i + 1:]]
    return pairs + [row.pair for row in benchmarks.reference_table(4)]


def test_hit_is_the_stored_spectrum_bit_for_bit(solves):
    gram = gram_blocks(*lg_pair(LGMode(2, 1), LGMode(2, 2)).amplitudes())
    first = gram.spectrum(gram.endpoint(0))
    again = gram.spectrum(gram.endpoint(0))
    assert again is first and len(solves) == 1
    assert all(not a.flags.writeable for a in _arrays(first))
    fresh = eigh_blocks([(rows.copy(), m.copy()) for (rows, _), m in zip(gram.groups, gram.endpoint(0))])
    _assert_bitwise(first, fresh)


def test_equal_content_from_another_trace_out_hits(solves):
    # LG(2, 1) is the reference of two pairs: the second gets the first's spectrum
    a = gram_blocks(*lg_pair(LGMode(2, 1), LGMode(2, 2)).amplitudes())
    b = gram_blocks(*lg_pair(LGMode(2, 1), LGMode(3, -1)).amplitudes())
    assert b.spectrum(b.endpoint(0)) is a.spectrum(a.endpoint(0))
    assert len(solves) == 1


def test_lg_scan_solves_each_mode_once(solves):
    pairs = _lg_scan()
    assert len(pairs) == 355
    reports = [pair_criterion(pair) for pair in pairs]
    assert len(solves) == 36
    for pair, report in zip(pairs, reports):
        spectra._state_memo.clear()
        assert pair_criterion(pair) == report


@pytest.mark.parametrize(
    "make_pair",
    [lambda: benchmarks.reference_table(2)[0].pair, lambda: spherium_pair(1)],
    ids=["table-2-0", "spherium-1"],
)
def test_large_endpoints_bypass_the_memo(solves, make_pair):
    pair = make_pair()
    gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
    for state in (0, 1):
        blocks = gram.endpoint(state)
        assert sum(m.nbytes for m in blocks) > MEMO_ENTRY_BYTES
        first, again = gram.spectrum(blocks), gram.spectrum(blocks)
        assert again is not first
        _assert_bitwise(again, first)
    assert len(solves) == 4
    assert len(spectra._state_memo) == 0 and spectra._state_memo.nbytes == 0


def test_byte_bound_evicts_the_least_recently_used(solves):
    memo = spectra._state_memo
    rng = np.random.default_rng(5)

    def random_gram():
        c = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        return gram_blocks(c, c)

    # each state is solved as it is made, so the memo stores whole states in order
    grams, specs, total = [], [], 0
    while total <= 2 * MEMO_BYTES:
        grams.append(random_gram())
        blocks = grams[-1].endpoint(0)
        specs.append(grams[-1].spectrum(blocks))
        total += sum(m.nbytes for m in blocks)
    kept = len(memo)
    assert len(solves) == len(grams) and 0 < kept < len(grams)
    assert 0 < memo.nbytes <= MEMO_BYTES
    # equal entries: the oldest held is the first of the last `kept`; a hit
    # moves it to the back, so one more insert evicts the entry after it
    oldest = len(grams) - kept
    assert grams[oldest].spectrum(grams[oldest].endpoint(0)) is specs[oldest]
    extra = random_gram()
    extra.spectrum(extra.endpoint(0))
    assert len(memo) == kept and memo.nbytes <= MEMO_BYTES
    assert grams[oldest].spectrum(grams[oldest].endpoint(0)) is specs[oldest]
    again = grams[oldest + 1].spectrum(grams[oldest + 1].endpoint(0))
    assert again is not specs[oldest + 1]
    _assert_bitwise(again, specs[oldest + 1])
    assert len(solves) == len(grams) + 2 and memo.nbytes <= MEMO_BYTES


def test_threads_share_one_memo(solves):
    # four threads ask for the same twelve endpoints; every answer is the
    # serial spectrum, bit for bit, and the memo holds each once
    from concurrent.futures import ThreadPoolExecutor

    modes = [LGMode(l, m) for l in range(1, 4) for m in (-2, -1, 1, 2)]
    grams = [gram_blocks(*lg_pair(m, LGMode(0, 1)).amplitudes()) for m in modes]
    want = [eigh_blocks([(g.groups[0][0], g.endpoint(0)[0])]) for g in grams]
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda g: g.spectrum(g.endpoint(0)), grams * 4))
    for i, spec in enumerate(got):
        _assert_bitwise(spec, want[i % len(grams)])
    assert len(spectra._state_memo) == len(grams)
    assert all(got[i] is got[i % len(grams)] for i in range(len(got)))


def test_threads_trace_out_and_solve_while_states_are_dropped(monkeypatch, empty_state_memo):
    # four threads run the trace-out and the criterion of 22 pairs of eight
    # LG modes, each pair three times, in a memo that holds about three
    # states, so they meet the same new states, store them and lose them to
    # eviction; every trace-out is the unmemoized one and every report the
    # serial one of a memo cleared before the pair
    from concurrent.futures import ThreadPoolExecutor

    memo = spectra._state_memo
    modes = [LGMode(l, m) for l in (1, 2) for m in (-2, -1, 1, 2)]
    pairs = [lg_pair(m0, m1) for i, m0 in enumerate(modes) for m1 in modes[i + 1:] if m0.m > 0 or m1.m > 0]
    assert len(pairs) == 22
    want = []
    for pair in pairs:
        memo.clear()
        gram = gram_blocks_unmemoized(*pair.amplitudes())
        want.append((gram, sweep._criterion(pair, gram_blocks(*pair.amplitudes()))))
    memo.clear()
    dropped = []

    def counted(self, st, _drop=spectra._StateMemo._drop):
        dropped.append(st)
        _drop(self, st)

    monkeypatch.setattr(spectra._StateMemo, "_drop", counted)
    monkeypatch.setattr(spectra, "MEMO_BYTES", 400_000)

    def run(i):
        pair = pairs[i]
        gram = gram_blocks(*pair.amplitudes())
        return i, gram, sweep._criterion(pair, gram)

    order = [i for _ in range(3) for i in range(len(pairs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the memo's steps
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(run, order, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for i, gram, report in got:
        _assert_same_gram(gram, want[i][0])
        assert report == want[i][1]
    assert len(dropped) > len(pairs) and 0 < memo.nbytes <= 400_000


@pytest.mark.parametrize(
    "states, rotates",
    [(((0, 1, 0, 0), (0, -1, 0, 0)), False), (((0, 0, 2, -2), (0, 0, 2, 2)), True)],
    ids=["0,1,0,0", "0,0,2,-2"],
)
def test_sector_refinement_leaves_the_stored_entry_unchanged(solves, states, rotates):
    # at lambda = 0 the sectors join the rows of each shell into 26-31 blocks,
    # small enough to be stored; the second pair's refinement also rotates columns
    pair = oscillator_pair(*(OscState(*q) for q in states))
    gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
    spec = gram.spectrum(gram.endpoint(0))
    assert len(spectra._state_memo) == 1
    before = [a.copy() for a in _arrays(spec)]
    blocks = spec.blocks
    refined = refine_blocks_by_sector(spec, gram.sector)
    assert refined.blocks != blocks
    assert any(u is not u0 for (_, u), (_, u0) in zip(refined.groups, spec.groups)) == rotates
    assert gram.spectrum(gram.endpoint(0)) is spec and len(solves) == 1
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(spec), before, strict=True))
    assert spec.blocks == blocks


# ---------------------------------------------------------------------------
# the per-state memo: own terms, endpoints and spectra formed once per state


@pytest.fixture
def own_terms(monkeypatch, empty_state_memo):
    """The id of every array whose own terms the trace-out forms: it stores each with one ``store``."""
    calls = []

    def counted(self, st, c, *args, _store=spectra._StateMemo.store):
        calls.append(id(c))  # not the array: the memo's aliases are weak
        return _store(self, st, c, *args)

    monkeypatch.setattr(spectra._StateMemo, "store", counted)
    return calls


@pytest.fixture
def keyed(monkeypatch):
    """Every array the memo builds a content key for."""
    calls = []

    def counted(c, _key=spectra._content_key):
        calls.append(c)
        return _key(c)

    monkeypatch.setattr(spectra, "_content_key", counted)
    return calls


def _same_array(a, b) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _assert_same_gram(got, want):
    assert (got.block_sizes, got.dim, got.traced) == (want.block_sizes, want.dim, want.traced)
    assert got.dropped == want.dropped and math.copysign(1.0, got.dropped) == math.copysign(1.0, want.dropped)
    assert [type(n) for n in got.norms] == [type(n) for n in want.norms] and got.norms == want.norms
    assert len(got.groups) == len(want.groups)
    for (rows, terms), (rows_want, terms_want) in zip(got.groups, want.groups):
        assert _same_array(rows, rows_want) and _same_array(terms, terms_want)
    assert (got.sector is None) == (want.sector is None)
    if got.sector is not None:
        assert all(_same_array(a, b) for a, b in zip(got.sector, want.sector, strict=True))


def _partly_linked():
    # inputs whose link graph is not complete: sectors, blocks, isolated rows
    rng = np.random.default_rng(11)
    c = np.zeros((6, 5))
    c[:3, :2] = rng.standard_normal((3, 2))
    c[3:5, 2:] = rng.standard_normal((2, 3))
    pairs = [benchmarks.reference_table(1)[0].pair, benchmarks.reference_table(5)[1].pair, spherium_pair(2)]
    amplitudes = [(*p.amplitudes(), p.sector_operator) for p in pairs]
    d = c.copy()
    d[:3] *= -0.5
    return amplitudes + [(c, d, None), (c, c, None)]


def test_one_block_exit_keeps_every_field(monkeypatch, empty_state_memo):
    # every scan pair links all 32 rows: one block, found without a search,
    # and every field is the searched, unmemoized trace-out's, cold or warm
    pairs = _lg_scan()
    want = [gram_blocks_unmemoized(*p.amplitudes()) for p in pairs]
    assert all(w.block_sizes == (32,) and w.dropped == 0.0 for w in want)

    def refuse(linked):
        raise AssertionError("searched a complete link graph")

    monkeypatch.setattr(spectra, "components", refuse)
    for warm in (False, True):
        for pair, w in zip(pairs, want):
            if not warm:
                spectra._state_memo.clear()
            _assert_same_gram(gram_blocks(*pair.amplitudes()), w)


@pytest.mark.parametrize("index", range(5))
def test_partly_linked_inputs_keep_every_field(empty_state_memo, index):
    c0, c1, sector = _partly_linked()[index]
    want = gram_blocks_unmemoized(c0, c1, sector)
    assert len(want.block_sizes) > 1
    for _ in range(2):  # cold, then from the memo
        _assert_same_gram(gram_blocks(c0, c1, sector), want)


def test_own_terms_are_formed_once_per_state(own_terms):
    # the scan plus table 4: 710 state sightings of 36 distinct matrices
    pairs = _lg_scan()
    for pair in pairs:
        criterion_vs_observation(pair)
    assert len(own_terms) == 36
    assert len({c.tobytes() for pair in pairs for c in pair.amplitudes()}) == 36
    assert len(spectra._state_memo) == 36


def _results(pairs, cold: bool):
    out = []
    for pair in pairs:
        if cold:
            spectra._state_memo.clear()
        gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
        out.append((sweep._criterion(pair, gram), sweep.entropy_curve(pair, gram=gram)))
    return out


def test_reports_and_curves_equal_a_memo_cleared_before_each_pair(empty_state_memo):
    # LG's S_NS moves by 1e-10 under a one-ulp change of rho: equal means bit for bit
    pairs = _lg_scan() + [row.pair for row in benchmarks.reference_table(1)]
    pairs += [angular_pair(l, L, L) for l in (1, 2, 3) for L in range(1, 2 * l + 1)]
    warm = _results(pairs, cold=False)
    assert _results(pairs, cold=True) == warm
    assert _results(pairs, cold=False) == warm


def test_writeable_arrays_and_views_are_never_aliased(keyed, own_terms):
    memo = spectra._state_memo
    rng = np.random.default_rng(3)
    c = rng.standard_normal((8, 6)) + 1j * rng.standard_normal((8, 6))
    owned = rng.standard_normal((8, 6)) + 0j
    owned.setflags(write=False)
    view = owned[:, :]
    assert not view.flags.writeable and not view.flags.owndata
    for _ in range(3):
        gram_blocks(c, view)
    assert len(keyed) == 6 and len(own_terms) == 2  # two states, keyed on every call
    assert not memo._by_id
    c[2, 3] += 1.0  # a mutated writeable array is keyed again and is another state
    _assert_same_gram(gram_blocks(c, view), gram_blocks_unmemoized(c, view))
    assert len(keyed) == 8 and len(own_terms) == 3 and not memo._by_id
    # a read-only array that owns its data becomes the alias of its state on
    # a content hit, here its first sighting, as the view made the state
    gram_blocks(owned, owned)
    gram_blocks(owned, owned)
    assert len(keyed) == 9 and len(own_terms) == 3
    assert memo._by_id == {id(owned): memo.find(owned)[0]}
    owned.setflags(write=True)  # writeable again: keyed, and not found by identity
    st, key = memo.find(owned)
    assert key is not None and st is memo._by_id[id(owned)] and len(keyed) == 10


def test_recurring_arrays_are_found_by_identity_and_held_weakly(keyed, own_terms):
    memo = spectra._state_memo
    rng = np.random.default_rng(4)
    cached, other = rng.standard_normal((8, 6)), rng.standard_normal((8, 6))
    cached.setflags(write=False)
    for _ in range(3):  # keyed on its first two sightings, then found by identity
        gram_blocks(cached, other)
    assert [k is cached for k in keyed] == [True, False, True, False, False]
    assert len(own_terms) == 2 and list(memo._by_id) == [id(cached)]
    # a fresh array of equal content hits by content and leaves the live alias
    image = cached.copy()
    image.setflags(write=False)
    gram_blocks(image, other)
    assert list(memo._by_id) == [id(cached)] and len(own_terms) == 2
    # the memo holds no alias alive: once it is gone, the next equal array
    # is keyed and becomes the alias
    gone = weakref.ref(cached)
    keyed.clear()
    del cached
    assert gone() is None
    gram_blocks(image, other)
    assert memo._by_id == {id(image): memo.find(image)[0]} and len(own_terms) == 2


def test_evaluating_a_mirror_pair_again_adds_no_state(empty_state_memo):
    # the mirror image is a fresh array on every call: an LG image (small)
    # hits by content, and a table-1 image (large, found by identity alone)
    # leaves a state that goes once the image is gone
    memo = spectra._state_memo
    for pair in (lg_pair(LGMode(1, 2), LGMode(1, -2)), benchmarks.reference_table(1)[0].pair):
        assert pair.mirror is not None
        memo.clear()
        report = pair_criterion(pair)
        states = len(memo._order)
        assert states == 2
        for _ in range(2):
            assert pair_criterion(pair) == report and len(memo._order) == states
        image = pair.amplitudes()[1]
        held = weakref.ref(image)
        gram_blocks(*pair.amplitudes(), pair.sector_operator)
        del image
        assert held() is None and len(memo._order) == states


@pytest.mark.parametrize(
    "make_pair, stored",
    [(lambda: benchmarks.reference_table(1)[0].pair, True),
     (lambda: benchmarks.reference_table(2)[0].pair, False),
     (lambda: spherium_pair(1), False)],
    ids=["table-1-0", "table-2-0", "spherium-1"],
)
def test_large_arrays_are_never_content_keyed(keyed, solves, make_pair, stored):
    # table 1's layouts are small, so its reference is stored, found by
    # identity alone; the others' are too large, so nothing of them is stored
    pair = make_pair()
    assert all(c.nbytes > MEMO_ENTRY_BYTES for c in pair.amplitudes())
    reports = [pair_criterion(pair) for _ in range(2)]
    assert keyed == [] and reports[0] == reports[1]
    assert not spectra._state_memo._by_key
    assert len(spectra._state_memo) == stored and len(solves) == (1 if stored else 2)
