"""Fixtures shared by the test modules."""

import pytest

from entconvex import spectra


@pytest.fixture
def empty_spectrum_memo():
    """The memo of ``GramBlocks.spectrum``, empty on entry and on exit.

    A test that counts eigen-solves takes it, so that its counts do not
    depend on which endpoints the tests before it solved.
    """
    spectra._spectrum_memo.clear()
    yield spectra._spectrum_memo
    spectra._spectrum_memo.clear()
