"""The per-state memo of the trace-out: hits, bypasses, lifetimes, sharing, bitwise results."""

import math
import sys
import threading
import weakref

import numpy as np
import pytest

from entconvex import benchmarks, criterion, spectra, sweep
from entconvex.criterion import refine_blocks_by_sector
from entconvex.lgmodes import LGMode
from entconvex.oscillator import OscBasisSpec, OscState
from entconvex.spectra import MEMO_ENTRY_BYTES, SMALL_ROWS, eigh_blocks, entropy_bits, gram_blocks
from entconvex.sweep import (
    angular_pair,
    criterion_vs_observation,
    lg_pair,
    oscillator_pair,
    pair_criterion,
    spherium_pair,
)
from oracles import above_small_rows, gram_blocks_unmemoized


@pytest.fixture
def solves(monkeypatch, empty_state_memo):
    """Every ``eigh_blocks`` call the memo makes, by its groups."""
    calls = []

    def counted(groups, _solve=eigh_blocks):
        calls.append(groups)
        return _solve(groups)

    monkeypatch.setattr(spectra, "eigh_blocks", counted)
    return calls


# rows of the synthetic arrays: the memo stores no array of at most SMALL_ROWS rows
ROWS = SMALL_ROWS + 3


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
    # LG(2, 1) is the reference of two pairs, the one cached array of
    # mode_columns: the second gets the first's spectrum
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
    assert len(spectra._state_memo) == 0 and not spectra._state_memo._states


def test_threads_share_one_memo(solves):
    # four threads trace out the same twelve pairs and ask for their
    # endpoints, so they race to store each state and each spectrum; every
    # answer is the serial spectrum, bit for bit, and the first stored wins
    from concurrent.futures import ThreadPoolExecutor

    modes = [LGMode(l, m) for l in range(1, 4) for m in (-2, -1, 1, 2)]
    pairs = [lg_pair(m, LGMode(0, 1)) for m in modes]
    want = []
    for pair in pairs:
        gram = gram_blocks_unmemoized(*pair.amplitudes())
        want.append(eigh_blocks([(gram.groups[0][0], gram.endpoint(0)[0])]))

    def run(pair):
        gram = gram_blocks(*pair.amplitudes())
        return gram.states, gram.spectrum(gram.endpoint(0))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the memo's steps
    try:
        with ThreadPoolExecutor(4) as pool:
            got = list(pool.map(run, pairs * 4, timeout=300))
    finally:
        sys.setswitchinterval(interval)
    for i, (states, spec) in enumerate(got):
        _assert_bitwise(spec, want[i % len(pairs)])
        assert spec is got[i % len(pairs)][1]
        assert all(a is b for a, b in zip(states, got[i % len(pairs)][0], strict=True))
    assert len(spectra._state_memo) == len(pairs)


def _read_only_copy(c: np.ndarray) -> np.ndarray:
    c = c.copy()
    c.setflags(write=False)
    return c


def test_threads_trace_out_and_solve_while_states_are_dropped(kept):
    # four threads run the trace-out and the criterion of 22 pairs of eight
    # LG modes, each pair three times, on fresh read-only copies of the
    # amplitudes, so each run keeps two new records, with their own terms,
    # and drops them when it frees its copies, while other threads keep and
    # solve; every trace-out is the unmemoized one and every report the
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
    kept.clear()

    def run(i):
        pair = pairs[i]
        copies = [_read_only_copy(c) for c in pair.amplitudes()]
        gram = gram_blocks(*copies)
        assert all(st is memo.find(c) and st.own is not None for c, st in zip(copies, gram.states, strict=True))
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
    assert len(kept) == 2 * len(order)  # each run kept the records of both its copies
    assert not memo._states


def _oscillator_sector_pair(states):
    pair = oscillator_pair(*(OscState(*q) for q in states), basis=OscBasisSpec(8))
    return (*pair.amplitudes(), pair.sector_operator)


def _planted_sector_pair():
    # two dense read-only arrays, the first with a doubly degenerate Schmidt
    # value, and a random symmetric operator that splits that degeneracy
    rng = np.random.default_rng(14)
    u, _ = np.linalg.qr(rng.standard_normal((ROWS, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 3)))
    c0 = u @ np.diag([1.0, 1.0, 0.5]) @ v.T
    c1 = rng.standard_normal((ROWS, 6))
    sector = rng.standard_normal((ROWS, ROWS))
    for c in (c0, c1):
        c.setflags(write=False)
    return c0, c1, sector + sector.T


@pytest.mark.parametrize(
    "make_pair, rotates, whole",
    [(lambda: _oscillator_sector_pair(((0, 1, 0, 0), (0, -1, 0, 0))), False, False),
     (lambda: _oscillator_sector_pair(((0, 0, 2, -2), (0, 0, 2, 2))), True, False),
     (_planted_sector_pair, True, True)],
    ids=["0,1,0,0", "0,0,2,-2", "planted"],
)
def test_sector_refinement_leaves_the_stored_entry_unchanged(solves, make_pair, rotates, whole):
    # both arrays' records are kept: at lambda = 0 in a basis of 8
    # functions per coordinate the oscillator's (64 x 64, real), whose
    # rows fall into several blocks, so that the records keep no own term,
    # and a planted pair of one block, whose records keep their own terms
    # and endpoints.  A pair with a sector operator solves its endpoint on
    # every call, with the operator's links, and keeps no spectrum, so the
    # refinement, which in the last two pairs also rotates columns, leaves
    # every kept array unchanged
    c0, c1, sector = make_pair()
    gram = gram_blocks(c0, c1, sector)
    records = gram.states
    assert records == (spectra._state_memo.find(c0), spectra._state_memo.find(c1))
    assert all((st.own is not None) == whole for st in records)
    stored = [a for st in records for a in (st.magnitude, st.own, *(st.endpoint or ())) if a is not None]
    before = [a.copy() for a in stored]
    spec = gram.spectrum(gram.endpoint(0))
    assert (gram.endpoint(0) is records[0].endpoint) == whole
    blocks = spec.blocks
    refined = refine_blocks_by_sector(spec, gram.restrict(gram.sector, spec))
    assert refined.blocks != blocks
    assert any(u is not u0 for (_, u), (_, u0) in zip(refined.groups, spec.groups)) == rotates
    again = gram.spectrum(gram.endpoint(0))
    assert again is not spec and len(solves) == 2 and len(spectra._state_memo) == 0
    _assert_bitwise(again, spec)
    assert all(st.spectrum is None for st in records) and spec.blocks == blocks
    assert all(np.array_equal(a, b) for a, b in zip(stored, before, strict=True))


# ---------------------------------------------------------------------------
# the per-state memo: own terms, endpoints and spectra formed once per state


@pytest.fixture
def kept(monkeypatch, empty_state_memo):
    """The id of every array whose record the memo keeps, one entry per record kept."""
    calls = []

    def counted(self, c, _state=spectra._StateMemo.state):
        new = self.find(c) is None
        st = _state(self, c)
        if new and st is self.find(c):
            calls.append(id(c))  # not the array, which the memo holds weakly
        return st

    monkeypatch.setattr(spectra._StateMemo, "state", counted)
    return calls


@pytest.fixture
def own_terms(monkeypatch, empty_state_memo):
    """The id of the array of every own term c c^dagger the trace-out forms, one entry per size group."""
    calls = []

    def counted(c0, c1, rows, touched, own0=True, own1=True, _terms=spectra._group_terms):
        calls.extend(id(c) for c, own in ((c0, own0), (c1, own1)) if own)
        return _terms(c0, c1, rows, touched, own0, own1)

    monkeypatch.setattr(spectra, "_group_terms", counted)
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
    # inputs whose link graph is not complete: sectors, blocks, isolated
    # rows; the last three are read-only, so the memo stores them.  Table
    # 5's angular pair is lifted past the small-pair rule by rows of zeros
    rng = np.random.default_rng(11)
    c = np.zeros((ROWS, 5))
    c[:3, :2] = rng.standard_normal((3, 2))
    c[3:5, 2:] = rng.standard_normal((2, 3))
    pairs = [benchmarks.reference_table(1)[0].pair, benchmarks.reference_table(5)[1].pair, spherium_pair(2)]
    amplitudes = [(*p.amplitudes(), p.sector_operator) for p in pairs]
    assert amplitudes[1][2] is None
    amplitudes[1] = (*above_small_rows(*amplitudes[1][:2]), None)
    d = c.copy()
    d[:3] *= -0.5
    c.setflags(write=False)
    d.setflags(write=False)
    return amplitudes + [(c, d, None), (c, c, None)]


@pytest.fixture
def searched(monkeypatch):
    """One entry per call of the trace-out's link-graph search, ``spectra._link_blocks``."""
    calls = []

    def spy(*args, _search=spectra._link_blocks):
        calls.append(True)
        return _search(*args)

    monkeypatch.setattr(spectra, "_link_blocks", spy)
    return calls


def test_one_block_exit_keeps_every_field(monkeypatch, empty_state_memo, searched):
    # every scan pair links all 32 rows: one block, found without a search,
    # and every field is that of a forced search and of the searched,
    # unmemoized trace-out, cold or warm.  The memo keeps both records of
    # every pair before the proof runs, so the floors prove it one block
    # on first sight too, as in a cleared memo and for each of table 4's
    # mirror images, built afresh for every pair: no pair forms G
    memo = spectra._state_memo
    pairs = _lg_scan()
    want = [gram_blocks_unmemoized(*p.amplitudes()) for p in pairs]
    assert all(w.block_sizes == (32,) and w.dropped == 0.0 for w in want)

    def refuse(linked):
        raise AssertionError("searched a complete link graph")

    monkeypatch.setattr(spectra, "components", refuse)
    with monkeypatch.context() as forced:
        forced.setattr(spectra, "_proved_one_block", lambda st0, st1: False)
        searches = []
        for pair, w in zip(pairs, want):
            searches.append(gram_blocks(*pair.amplitudes()))
            _assert_same_gram(searches[-1], w)
    assert len(searched) == len(pairs)
    searched.clear()
    for run in ("cold", "warm", "warm again"):
        for pair, search in zip(pairs, searches):
            if run == "cold":
                memo.clear()
            _assert_same_gram(gram_blocks(*pair.amplitudes()), search)
            assert not searched, (run, pair.label)


def test_a_planted_two_block_pair_of_stored_dense_arrays_is_searched(empty_state_memo, searched):
    # two stored arrays with no zero entry whose rows fall into two groups,
    # linked only through entries of about 1e-20: the floors prove nothing,
    # so the search runs on every sight and finds the two blocks of the
    # unmemoized trace-out, every field equal
    rng = np.random.default_rng(12)
    half = ROWS // 2
    arrays = []
    for _ in range(2):
        c = 1e-20 * (1.0 + rng.random((ROWS, 6))) + 0j
        c[:half, :3] = rng.standard_normal((half, 3)) + 2j * rng.standard_normal((half, 3))
        c[half:, 3:] = rng.standard_normal((ROWS - half, 3))
        c.setflags(write=False)
        assert c.all() and c.nbytes <= MEMO_ENTRY_BYTES
        arrays.append(c)
    want = gram_blocks_unmemoized(*arrays)
    assert want.block_sizes == (half, ROWS - half)
    for sight in range(3):
        gram = gram_blocks(*arrays)
        assert len(searched) == sight + 1
        _assert_same_gram(gram, want)
    st0, st1 = gram.states
    assert st0 is spectra._state_memo.find(arrays[0]) and st1 is spectra._state_memo.find(arrays[1])
    assert st0.floor is not None and st1.floor is not None
    assert not spectra._proved_one_block(st0, st1)


@pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
def test_a_nan_array_raises_and_is_never_stored(empty_state_memo, writeable):
    # finiteness is checked on every array the memo does not hold; a
    # read-only array fails the check before it could be stored, so no
    # state vouches for it later
    rng = np.random.default_rng(13)
    good = _read_only_copy(rng.standard_normal((ROWS, 6)))
    bad = rng.standard_normal((ROWS, 6))
    bad[4, 2] = np.nan
    bad.setflags(write=writeable)
    gram_blocks(good, good)
    for pair in ((good, bad), (bad, good), (bad, bad)):
        for _ in range(2):
            with pytest.raises(ValueError, match="amplitudes must be finite"):
                gram_blocks(*pair)
    assert spectra._state_memo.find(bad) is None and list(spectra._state_memo._states) == [id(good)]


@pytest.mark.parametrize("index", range(5))
def test_partly_linked_inputs_keep_every_field(empty_state_memo, index):
    c0, c1, sector = _partly_linked()[index]
    want = gram_blocks_unmemoized(c0, c1, sector)
    assert len(want.block_sizes) > 1
    for _ in range(2):  # cold, then from the memo
        _assert_same_gram(gram_blocks(c0, c1, sector), want)


def test_own_terms_are_formed_once_per_state(kept, own_terms):
    # the scan plus table 4: 710 state sightings of 36 distinct matrices, all
    # cached arrays of mode_columns but the images of table 4's three mirror
    # pairs, which are built afresh for each evaluation and so get new
    # records; each record's own term is formed on its first sight only
    pairs = _lg_scan()
    for pair in pairs:
        criterion_vs_observation(pair)
    assert len(kept) == 36 + 3 and sorted(own_terms) == sorted(kept)
    assert len({c.tobytes() for pair in pairs for c in pair.amplitudes()}) == 36
    assert sum(pair.mirror is not None for pair in pairs) == 3
    assert len(spectra._state_memo) == 36  # a mirror pair's S1 is S0: no image is solved
    assert len(spectra._state_memo._states) == 36  # the images went with their arrays


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


def test_writeable_arrays_and_views_are_never_aliased(kept, own_terms):
    # neither record is kept: each call forms their own terms again and leaves no record
    memo = spectra._state_memo
    rng = np.random.default_rng(3)
    c = rng.standard_normal((ROWS, 6)) + 1j * rng.standard_normal((ROWS, 6))
    owned = rng.standard_normal((ROWS, 6)) + 0j
    owned.setflags(write=False)
    view = owned[:, :]
    assert not view.flags.writeable and not view.flags.owndata
    for _ in range(3):
        gram = gram_blocks(c, view)
        assert all(st.ref is None and st.own is None for st in gram.states)
    assert own_terms == [id(c), id(view)] * 3
    assert kept == [] and not memo._states and memo.find(c) is None and memo.find(view) is None
    c[2, 3] += 1.0  # a written writeable array gives the trace-out of its new content
    _assert_same_gram(gram_blocks(c, view), gram_blocks_unmemoized(c, view))
    # a read-only array that owns its data is kept on its first sighting
    gram = gram_blocks(owned, view)
    assert kept == [id(owned)] and gram.states[0] is memo.find(owned) is not None
    assert gram.states[1].ref is None and list(memo._states) == [id(owned)]


def test_small_arrays_bypass_the_memo(kept):
    # the records of read-only arrays of at most SMALL_ROWS rows, as every
    # angular state is, are never kept: each call makes them again and
    # leaves no record; one row more and the same content's are kept
    memo = spectra._state_memo
    pair = angular_pair(4, 3, 2)
    c0, c1 = pair.amplitudes()
    assert len(c0) <= SMALL_ROWS and not c0.flags.writeable and c0.flags.owndata
    for _ in range(2):
        assert all(st.ref is None for st in gram_blocks(c0, c1).states)
    report = pair_criterion(pair)
    assert pair_criterion(pair) == report
    assert kept == [] and not memo._states
    lifted = above_small_rows(c0, c1)
    states = gram_blocks(*lifted).states
    assert None not in map(memo.find, lifted) and states == tuple(map(memo.find, lifted))
    assert kept == list(map(id, lifted))


def test_recurring_arrays_are_found_by_identity_and_held_weakly(solves, kept, own_terms):
    # kept on the first sighting, then found by id: one own term, one spectrum
    memo = spectra._state_memo
    rng = np.random.default_rng(4)
    cached, other = rng.standard_normal((ROWS, 6)), rng.standard_normal((ROWS, 6))
    cached.setflags(write=False)
    specs = []
    for _ in range(3):
        gram = gram_blocks(cached, other)
        specs.append(gram.spectrum(gram.endpoint(0)))
    assert kept == [id(cached)] and own_terms.count(id(cached)) == 1 and len(solves) == 1
    assert all(spec is specs[0] for spec in specs)
    # the memo holds no reference to the array
    gone = weakref.ref(cached)
    del cached, gram
    assert gone() is None and not memo._states


def test_a_state_goes_when_its_array_is_freed(empty_state_memo):
    memo = spectra._state_memo
    rng = np.random.default_rng(6)
    kept, freed = (_read_only_copy(rng.standard_normal((ROWS, 6))) for _ in range(2))
    gram = gram_blocks(kept, freed)
    gram.spectrum(gram.endpoint(1))
    st = memo.find(freed)
    assert st is gram.states[1] and len(memo) == 1
    assert set(memo._states) == {id(kept), id(freed)}
    gone = weakref.ref(freed)
    del freed
    assert gone() is None
    assert list(memo._states) == [id(kept)] and len(memo) == 0
    assert memo.find(kept) is gram.states[0]


def test_an_equal_fresh_copy_misses_but_reports_bitwise(solves, kept, own_terms):
    # a fresh read-only copy of a kept mode array gets a record of its own,
    # whose own term, endpoint and spectrum are formed again by the same calls
    pair = lg_pair(LGMode(2, 1), LGMode(3, -1))
    report = pair_criterion(pair)
    c0, c1 = pair.amplitudes()
    copy = _read_only_copy(c0)
    gram = gram_blocks(copy, c1)
    memo = spectra._state_memo
    assert gram.states[0] is memo.find(copy) is not None and gram.states[0] is not memo.find(c0)
    assert kept == own_terms == [id(c0), id(c1), id(copy)]
    assert sweep._criterion(pair, gram) == report and len(solves) == 3
    stored = gram_blocks(c0, c1)
    _assert_bitwise(gram.spectrum(gram.endpoint(0)), stored.spectrum(stored.endpoint(0)))
    assert all(np.array_equal(a, b) for a, b in zip(gram.endpoint(0), stored.endpoint(0), strict=True))


def test_freeing_a_stored_array_inside_a_locked_step(empty_state_memo, monkeypatch):
    # the last reference to a stored array goes while the memo's lock is
    # held: its callback drops the state without the lock, so the memo call
    # neither deadlocks nor leaves the table wrong.  The memo runs on a lock
    # of its own here, which the fixtures' order puts back before the memo
    # is cleared, so a deadlock fails this test rather than hanging the rest
    memo = spectra._state_memo
    rng = np.random.default_rng(7)
    held = [_read_only_copy(rng.standard_normal((ROWS, 6)))]
    gram_blocks(held[0], held[0])
    freed_id, gone = id(held[0]), weakref.ref(held[0])
    dropped_inside = []

    class FreeingLock:
        def __init__(self, lock):
            self.lock = lock

        def __enter__(self):
            self.lock.acquire()
            if held:
                held.clear()  # the callback runs here, under the lock
                dropped_inside.append(freed_id not in memo._states)

        def __exit__(self, *exc):
            self.lock.release()

    monkeypatch.setattr(memo, "_lock", FreeingLock(threading.Lock()))
    c0, c1 = (_read_only_copy(rng.standard_normal((ROWS, 6))) for _ in range(2))
    out = []

    def run():
        gram = gram_blocks(c0, c1)
        out.append((gram, gram.spectrum(gram.endpoint(0))))

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "the memo deadlocked on a callback"
    assert gone() is None and dropped_inside == [True]
    assert set(memo._states) == {id(c0), id(c1)} and len(memo) == 1
    gram, spec = out[0]
    _assert_same_gram(gram, gram_blocks_unmemoized(c0, c1))
    assert gram.states == (memo.find(c0), memo.find(c1))
    again = gram_blocks(c0, c1)
    assert again.spectrum(again.endpoint(0)) is spec


def test_evaluating_a_mirror_pair_again_adds_no_state(empty_state_memo):
    # the mirror image is a fresh array on every call: an LG image (small)
    # gets a kept record, which goes when the evaluation frees it, and
    # table 1's arrays (large) never do
    memo = spectra._state_memo
    for pair, states in ((lg_pair(LGMode(1, 2), LGMode(1, -2)), 1), (benchmarks.reference_table(1)[0].pair, 0)):
        assert pair.mirror is not None
        memo.clear()
        report = pair_criterion(pair)
        assert len(memo._states) == states
        for _ in range(2):
            assert pair_criterion(pair) == report and len(memo._states) == states
        c0, image = pair.amplitudes()
        held = weakref.ref(image)
        gram = gram_blocks(c0, image, pair.sector_operator)
        assert (gram.states[1] is memo.find(image)) == (states > 0)
        del image, gram
        assert held() is None and len(memo._states) == states


@pytest.mark.parametrize(
    "make_pair",
    [lambda: benchmarks.reference_table(1)[0].pair,
     lambda: benchmarks.reference_table(2)[0].pair,
     lambda: spherium_pair(1)],
    ids=["table-1-0", "table-2-0", "spherium-1"],
)
def test_large_arrays_are_never_content_keyed(solves, make_pair):
    # arrays above MEMO_ENTRY_BYTES bypass the memo: nothing of them is
    # stored, and every call solves the reference again
    pair = make_pair()
    assert all(c.nbytes > MEMO_ENTRY_BYTES for c in pair.amplitudes())
    reports = [pair_criterion(pair) for _ in range(2)]
    assert reports[0] == reports[1]
    assert not spectra._state_memo._states and len(solves) == 2


# ---------------------------------------------------------------------------
# what a spectrum fixes alone: its entropy and its blocks' statistics, kept


def _fresh_stats(spec):
    """The block statistics as the criterion formed them before they were kept."""
    starts = np.array([b[0] for b in spec.blocks])
    sizes = np.diff(starts, append=spec.dim)
    return starts, sizes, np.add.reduceat(spec.eigenvalues, starts) / sizes


def _fresh_s_ns(spec0, rho1):
    """S_NS with fresh statistics: :func:`not_shared_entropy`'s arithmetic without the kept ones."""
    q = criterion._partner_weights(spec0, rho1)
    starts, sizes, lam = _fresh_stats(spec0)
    tr = np.add.reduceat(q, starts)
    keep = lam > spectra.SUPPORT_FLOOR
    terms = np.maximum(sizes[keep] * lam[keep] - tr[keep], 0.0) * np.log(1.0 / lam[keep])
    return (float(np.add.accumulate(terms)[-1]) if terms.size else 0.0) / spectra.LN2


def test_kept_entropy_and_block_stats_are_the_fresh_ones(empty_state_memo):
    specs = []
    for pair in (lg_pair(LGMode(2, 1), LGMode(3, -1)), benchmarks.reference_table(2)[3].pair,
                 spherium_pair(1), angular_pair(3, 2, 2)):
        gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
        specs += [gram.spectrum(gram.endpoint(0)), gram.spectrum(gram.endpoint(1))]
    specs.append(spectra.eigendecompose(angular_pair(2, 2, 1).builder(1.0)))
    for spec in specs:
        assert spec.entropy == float(entropy_bits(spec.eigenvalues))
        assert spectra.von_neumann_entropy(spec) is spec.entropy
        stats = spec.block_stats
        assert spec.block_stats is stats and all(not a.flags.writeable for a in stats)
        assert all(_same_array(a, b) for a, b in zip(stats, _fresh_stats(spec), strict=True))


@pytest.mark.parametrize(
    "make_pair",
    [lambda: benchmarks.reference_table(2)[3].pair, lambda: spherium_pair(1), lambda: spherium_pair(-1)],
    ids=["table-2-3", "spherium-1", "spherium-minus-1"],
)
def test_a_refined_spectrum_keeps_the_stats_of_its_own_blocks(empty_state_memo, make_pair):
    # the reference's statistics are formed before it is refined; the
    # refinement's replace is a new spectrum, which forms its own from its
    # sub-blocks, and S_NS is the fresh arithmetic's to the bit
    pair = make_pair()
    gram = gram_blocks(*pair.amplitudes(), pair.sector_operator)
    spec0 = gram.spectrum(gram.endpoint(0))
    before, s0 = spec0.block_stats, spec0.entropy
    refined = refine_blocks_by_sector(spec0, gram.restrict(gram.sector, spec0))
    assert refined.blocks != spec0.blocks
    assert len(refined.block_stats[0]) == len(refined.blocks) > len(before[0])
    assert all(_same_array(a, b) for a, b in zip(refined.block_stats, _fresh_stats(refined), strict=True))
    assert refined.entropy == s0
    rho1 = gram.restrict(gram.endpoint(1), refined)
    s_ns = criterion.not_shared_entropy(refined, rho1)
    assert s_ns == _fresh_s_ns(refined, rho1)
    assert sweep._criterion(pair, gram).s_ns == min(s_ns, s0)
