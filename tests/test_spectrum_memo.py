"""The content-keyed memo of ``GramBlocks.spectrum``: hits, bypasses, bound, sharing."""

import numpy as np
import pytest

from entconvex import benchmarks, spectra
from entconvex.criterion import refine_blocks_by_sector
from entconvex.lgmodes import LGMode
from entconvex.oscillator import OscState
from entconvex.spectra import MEMO_BYTES, MEMO_ENTRY_BYTES, eigh_blocks, gram_blocks
from entconvex.sweep import lg_pair, oscillator_pair, pair_criterion, spherium_pair


@pytest.fixture
def solves(monkeypatch, empty_spectrum_memo):
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
        spectra._spectrum_memo.clear()
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
    assert len(spectra._spectrum_memo) == 0 and spectra._spectrum_memo.nbytes == 0


def test_byte_bound_evicts_the_least_recently_used(solves):
    memo = spectra._spectrum_memo
    rng = np.random.default_rng(5)

    def random_gram():
        c = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        return gram_blocks(c, c)

    grams = [random_gram()]
    while sum(m.nbytes for g in grams for m in g.endpoint(0)) <= 2 * MEMO_BYTES:
        grams.append(random_gram())
    specs = [g.spectrum(g.endpoint(0)) for g in grams]
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
    assert len(spectra._spectrum_memo) == len(grams)
    assert all(got[i] is got[i % len(grams)] for i in range(len(got)))


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
    assert len(spectra._spectrum_memo) == 1
    before = [a.copy() for a in _arrays(spec)]
    blocks = spec.blocks
    refined = refine_blocks_by_sector(spec, gram.sector)
    assert refined.blocks != blocks
    assert any(u is not u0 for (_, u), (_, u0) in zip(refined.groups, spec.groups)) == rotates
    assert gram.spectrum(gram.endpoint(0)) is spec and len(solves) == 1
    assert all(np.array_equal(a, b) for a, b in zip(_arrays(spec), before, strict=True))
    assert spec.blocks == blocks
