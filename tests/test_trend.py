import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import emosam
from emosam.trend import (
    DiscriminationHistory,
    hp_filter,
    should_trigger_every,
    should_trigger_hp,
    should_trigger_previous,
)
from oracles import dense_hp_trend

SMOOTHINGS = (1.0, 100.0, 1600.0)


@pytest.mark.parametrize("smoothing", SMOOTHINGS)
def test_constant_series_is_pure_trend(smoothing):
    series = np.full(5, 0.1)
    dec = hp_filter(series, smoothing)
    np.testing.assert_allclose(dec.trend, series, atol=1e-10)
    assert np.max(np.abs(dec.cycle)) < 1e-10


@pytest.mark.parametrize("smoothing", SMOOTHINGS)
def test_affine_series_is_pure_trend(smoothing):
    series = np.array([0.0, 0.1, 0.2, 0.3, 0.4])
    dec = hp_filter(series, smoothing)
    np.testing.assert_allclose(dec.trend, series, atol=1e-10)
    assert np.max(np.abs(dec.cycle)) < 1e-10


def test_step_series_matches_dense_oracle():
    series = np.array([0.0, 0.0, 0.0, 0.0, 1.0])
    dec = hp_filter(series, 100.0)
    want = dense_hp_trend(series, 100.0)
    np.testing.assert_allclose(dec.trend, want, atol=1e-8)
    np.testing.assert_allclose(dec.cycle, series - want, atol=1e-8)


@pytest.mark.parametrize("n", range(3, 13))
@pytest.mark.parametrize("smoothing", SMOOTHINGS)
def test_matches_dense_oracle_across_lengths(n, smoothing):
    rng = np.random.default_rng(n)
    series = rng.random(n)
    dec = hp_filter(series, smoothing)
    np.testing.assert_allclose(dec.trend, dense_hp_trend(series, smoothing), atol=1e-8)


def test_tiny_smoothing_returns_input():
    rng = np.random.default_rng(7)
    series = rng.random(20)
    dec = hp_filter(series, 1e-8)
    assert np.max(np.abs(dec.trend - series)) < 1e-6


@pytest.mark.parametrize("n", [1, 2])
def test_short_series_trend_is_input(n):
    series = np.linspace(0.2, 0.4, n)
    dec = hp_filter(series, 100.0)
    np.testing.assert_array_equal(dec.trend, series)
    assert np.all(dec.cycle == 0.0)


@given(
    series=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=50),
    smoothing=st.sampled_from(SMOOTHINGS),
)
@settings(max_examples=150, deadline=None)
def test_trend_plus_cycle_reconstructs(series, smoothing):
    arr = np.asarray(series)
    dec = hp_filter(arr, smoothing)
    np.testing.assert_allclose(dec.trend + dec.cycle, arr, atol=1e-10)


@pytest.mark.parametrize(
    "bad",
    [np.array([]), np.array([0.1, np.nan]), np.array([0.1, np.inf]), np.zeros((2, 2))],
)
def test_hp_filter_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        hp_filter(bad, 100.0)


def test_hp_filter_rejects_bad_smoothing():
    with pytest.raises(ValueError):
        hp_filter(np.array([0.1, 0.2, 0.3]), 0.0)
    # beyond the bound the elimination loses the cycle, and at 1e16 divides by zero
    for smoothing in (1e16, math.inf):
        with pytest.raises(ValueError):
            hp_filter(np.array([0.1, 0.2, 0.4]), smoothing)


# -- trigger policies ---------------------------------------------------------


def test_hp_trigger_fires_on_convex_rise():
    history = [0.10, 0.11, 0.13, 0.16, 0.20]
    assert should_trigger_hp(history, 0.10, 100.0) is True


def test_hp_trigger_silent_on_linear_rise():
    # zero curvature means zero cycle, and the cycle must be strictly positive;
    # the float second differences of these rises are rounding, at most 6e-17
    for smoothing in SMOOTHINGS:
        assert should_trigger_hp([0.10, 0.12, 0.14, 0.16, 0.18], 0.10, smoothing) is False
        assert should_trigger_hp([0.1, 0.2, 0.3, 0.4, 0.5], 0.10, smoothing) is False


def test_hp_trigger_silent_on_flat_history():
    # second differences of exactly zero give a cycle of exactly zero
    for smoothing in SMOOTHINGS:
        assert should_trigger_hp([0.25] * 5, 0.10, smoothing) is False
        dec = hp_filter([0.25] * 5, smoothing)
        assert np.all(dec.cycle == 0.0) and np.all(dec.trend == 0.25)


def test_hp_trigger_needs_three_values():
    assert should_trigger_hp([0.02], 0.0, 100.0) is False
    assert should_trigger_hp([0.3, 0.4], 0.0, 100.0) is False


@given(
    history=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=5),
    phi_lo=st.floats(0.0, 1.0),
    phi_hi=st.floats(0.0, 1.0),
)
@settings(max_examples=150, deadline=None)
def test_hp_trigger_monotone_in_threshold(history, phi_lo, phi_hi):
    lo, hi = sorted((phi_lo, phi_hi))
    if should_trigger_hp(history, hi, 100.0):
        assert should_trigger_hp(history, lo, 100.0)


def test_previous_trigger_threshold_arithmetic():
    assert should_trigger_previous([0.2, 0.05, 0.13], 0.07) is True
    assert should_trigger_previous([0.2, 0.05, 0.12], 0.07) is False  # not strict
    assert should_trigger_previous([0.5], 0.07) is False


def test_every_trigger_always_fires():
    assert should_trigger_every() is True


# -- history -------------------------------------------------------------------


def test_history_is_bounded_fifo():
    history = DiscriminationHistory(5)
    for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7):
        history.append(v)
    assert len(history) == 5
    np.testing.assert_allclose(history.values, [0.3, 0.4, 0.5, 0.6, 0.7])
    history.clear()
    assert len(history) == 0


def test_history_rejects_out_of_range():
    history = DiscriminationHistory(5)
    with pytest.raises(ValueError):
        history.append(1.5)
    with pytest.raises(ValueError):
        history.append(-0.1)


def test_triggers_accept_history_objects():
    history = DiscriminationHistory(5)
    for v in (0.10, 0.11, 0.13, 0.16, 0.20):
        history.append(v)
    assert should_trigger_hp(history, 0.10, 100.0) is True
    assert should_trigger_previous(history, 0.03) is True


# -- dependencies -----------------------------------------------------------------


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; the trend filter solves its
    # banded system itself
    src = str(Path(emosam.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "import sys, emosam; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
