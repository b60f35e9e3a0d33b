import math

import numpy as np
import pytest

from swphase.errors import RecordingTooShortError
from swphase.oracle import (CROP_S, FILTER_ORDER, STOPBAND_DB, compute_phase_track,
                            design_oracle_bandpass, hilbert_phase,
                            phase_at_triggers, zero_phase_bandpass)
from swphase.trackers import TriggerEvent

from conftest import FS, sinusoid

MIN_LEN_S = 2 * CROP_S + 60.0


def circular_rms_deg(a_deg, b_deg):
    d = (np.asarray(a_deg) - np.asarray(b_deg) + 180.0) % 360.0 - 180.0
    return float(np.sqrt(np.mean(d * d)))


class TestBandpassFidelity:
    def test_in_band_tone_amplitude_preserved(self):
        x = sinusoid(1.0, 50.0, MIN_LEN_S)
        y = zero_phase_bandpass(x, FS)
        mid = slice(int(220 * FS), int(260 * FS))
        assert np.max(np.abs(y[mid])) == pytest.approx(50.0, rel=0.02)

    def test_out_of_band_tone_crushed(self):
        x = sinusoid(10.0, 50.0, MIN_LEN_S)
        y = zero_phase_bandpass(x, FS)
        mid = slice(int(220 * FS), int(260 * FS))
        assert np.max(np.abs(y[mid])) < 50.0 * 1e-4

    def test_band_edges_attenuated_forty_db_per_pass(self):
        from scipy.signal import sosfreqz
        sos = design_oracle_bandpass(FS, FILTER_ORDER, STOPBAND_DB)
        w = 2 * np.pi * np.array([0.5, 4.0]) / FS
        _, h = sosfreqz(sos, worN=w)
        for hv in h:
            assert 20 * math.log10(abs(hv)) == pytest.approx(-40.0, abs=0.5)

    def test_zero_lag_on_in_band_tone(self):
        x = sinusoid(1.3, 40.0, MIN_LEN_S)
        y = zero_phase_bandpass(x, FS)
        mid = slice(int(220 * FS), int(250 * FS))
        xm, ym = x[mid], y[mid]
        lags = np.arange(-200, 201)
        corr = [np.dot(ym, np.roll(xm, k)) for k in lags]
        assert lags[int(np.argmax(corr))] == 0

    def test_impulse_response_is_symmetric(self):
        n = int(MIN_LEN_S * FS)
        x = np.zeros(n)
        x[n // 2] = 1.0
        y = zero_phase_bandpass(x, FS)
        w = int(30 * FS)
        seg = y[n // 2 - w: n // 2 + w + 1]
        assert np.allclose(seg, seg[::-1], atol=1e-12)

    def test_short_recording_refused(self):
        with pytest.raises(RecordingTooShortError):
            zero_phase_bandpass(np.zeros(int((MIN_LEN_S - 1) * FS)), FS)


class TestPhaseConvention:
    def test_sine_tone_phase_equals_argument(self):
        x = sinusoid(1.0, 50.0, MIN_LEN_S)
        track = compute_phase_track(x, FS)
        idx = np.arange(int(220 * FS), int(260 * FS))
        want = (360.0 * 1.0 * idx / FS) % 360.0
        assert circular_rms_deg(track.phase_deg[idx], want) < 1.0

    def test_inverted_sine_shifted_half_turn(self):
        x = -sinusoid(1.0, 50.0, MIN_LEN_S)
        track = compute_phase_track(x, FS)
        idx = np.arange(int(220 * FS), int(260 * FS))
        want = (360.0 * 1.0 * idx / FS + 180.0) % 360.0
        assert circular_rms_deg(track.phase_deg[idx], want) < 1.0

    def test_phase_is_90_at_peaks(self):
        x = sinusoid(0.8, 50.0, MIN_LEN_S)
        track = compute_phase_track(x, FS)
        y = zero_phase_bandpass(x, FS)
        mid = slice(int(220 * FS), int(260 * FS))
        peaks = [i for i in range(mid.start + 1, mid.stop - 1)
                 if y[i] > y[i - 1] and y[i] >= y[i + 1]]
        assert peaks
        for i in peaks:
            d = abs(track.phase_deg[i] - 90.0) % 360.0
            assert min(d, 360.0 - d) < 3.0

    def test_phase_in_unit_circle_range(self):
        x = sinusoid(1.1, 30.0, MIN_LEN_S)
        track = compute_phase_track(x, FS)
        assert track.phase_deg.min() >= 0.0
        assert track.phase_deg.max() < 360.0


class TestValidity:
    def test_crop_margins_invalid(self):
        x = sinusoid(1.0, 50.0, MIN_LEN_S)
        track = compute_phase_track(x, FS)
        crop_n = int(CROP_S * FS)
        assert not track.valid[:crop_n].any()
        assert not track.valid[-crop_n:].any()
        assert track.valid[crop_n:-crop_n].all()

    def test_phase_at_triggers_drops_cropped(self):
        x = sinusoid(1.0, 50.0, MIN_LEN_S)
        track = compute_phase_track(x, FS)
        events = [TriggerEvent(10, 10 / FS, "pv", 45.0, 1.0),
                  TriggerEvent(int(240 * FS), 240.0, "pv", 45.0, 1.0)]
        phases, kept = phase_at_triggers(track, events)
        assert kept.tolist() == [int(240 * FS)]
        assert len(phases) == 1
        want = (360.0 * 240.0) % 360.0
        d = abs(phases[0] - want) % 360.0
        assert min(d, 360.0 - d) < 1.0


class TestAgainstGenerator:
    def test_tracks_known_true_phase_in_nrem(self, short_synth, short_track):
        rec = short_synth.recording
        true = short_synth.true_phase
        mask = short_track.valid & true.valid & rec.nrem_mask()
        assert mask.sum() > 100000
        rms = circular_rms_deg(short_track.phase_deg[mask],
                               true.phase_deg[mask])
        assert rms < 15.0
