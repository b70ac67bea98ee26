"""Tests for the characteristic-timeline extension."""

import numpy as np
import pytest

from repro.config import ReproConfig
from repro.errors import AnalysisError
from repro.phases import (
    DEFAULT_TIMELINE_KEYS,
    mica_timeline,
    mica_timeline_reference,
)
from repro.trace import TraceBuilder

CONFIG = ReproConfig(trace_length=5_000)


def drifting_trace(n_intervals=6, interval=1000):
    """Load fraction grows interval by interval."""
    builder = TraceBuilder(name="drift")
    for block in range(n_intervals):
        load_every = max(8 - block, 2)
        for index in range(interval):
            pc = 0x1000 + 4 * (index % 32)
            if index % load_every == 0:
                builder.load(pc, dst=1, addr_reg=2,
                             mem_addr=0x2000 + 8 * (index % 256))
            else:
                builder.alu(pc, dst=1 + index % 4)
    return builder.build()


class TestMicaTimeline:
    def test_shape(self, small_trace):
        timeline = mica_timeline(small_trace, interval=1000, config=CONFIG)
        assert timeline.values.shape == (5, len(DEFAULT_TIMELINE_KEYS))
        assert np.isfinite(timeline.values).all()

    def test_tracks_drift(self):
        trace = drifting_trace()
        timeline = mica_timeline(
            trace, interval=1000, keys=("mix_loads",), config=CONFIG
        )
        loads = timeline.values[:, 0]
        assert loads[-1] > loads[0]  # The injected drift is visible.
        assert timeline.drift()[0] > 0.05

    def test_steady_trace_low_drift(self):
        builder = TraceBuilder()
        for index in range(6000):
            builder.alu(0x1000 + 4 * (index % 32), dst=1 + index % 4)
        timeline = mica_timeline(
            builder.build(), interval=1000, keys=("mix_loads", "ilp_w32"),
            config=CONFIG,
        )
        assert timeline.drift()[0] == 0.0  # No loads at all.
        assert timeline.drift()[1] < 0.05  # Uniform ILP.

    def test_unknown_key_rejected(self, small_trace):
        with pytest.raises(AnalysisError):
            mica_timeline(small_trace, interval=1000, keys=("mix_waffles",))

    def test_empty_keys_rejected(self, small_trace):
        with pytest.raises(AnalysisError):
            mica_timeline(small_trace, interval=1000, keys=())

    def test_too_short_trace_rejected(self, small_trace):
        with pytest.raises(AnalysisError):
            mica_timeline(small_trace, interval=len(small_trace))

    def test_format_renders_all_keys(self, small_trace):
        timeline = mica_timeline(small_trace, interval=1000, config=CONFIG)
        text = timeline.format()
        for key in DEFAULT_TIMELINE_KEYS:
            assert key in text

    def test_values_match_direct_characterization(self, small_trace):
        from repro.mica import characterize

        timeline = mica_timeline(
            small_trace, interval=1000, keys=("mix_loads",), config=CONFIG
        )
        first = small_trace[0:1000]
        direct = characterize(first, CONFIG)["mix_loads"]
        assert timeline.values[0, 0] == pytest.approx(direct)

    def test_non_positive_interval_rejected(self, small_trace):
        for bad in (0, -5):
            with pytest.raises(AnalysisError):
                mica_timeline(small_trace, interval=bad, config=CONFIG)
            with pytest.raises(AnalysisError):
                mica_timeline_reference(
                    small_trace, interval=bad, config=CONFIG
                )


class TestKeyDrivenComputation:
    """Requesting a key must not run unrelated analyzers (historically
    a mix-only timeline still ran PPM and ILP on every chunk)."""

    def test_engine_mix_only_skips_ppm_ilp_producers(
        self, small_trace, monkeypatch
    ):
        from repro.mica import segmented as segmented_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("unrequested analyzer ran")

        monkeypatch.setattr(segmented_module, "_segmented_ppm", boom)
        monkeypatch.setattr(segmented_module, "_segmented_ilp", boom)
        monkeypatch.setattr(
            segmented_module, "segmented_producer_indices", boom
        )
        timeline = mica_timeline(
            small_trace, interval=1000, keys=("mix_loads",), config=CONFIG
        )
        assert timeline.values.shape == (5, 1)

    def test_reference_mix_only_skips_ppm_ilp_producers(
        self, small_trace, monkeypatch
    ):
        from repro.phases import timeline as timeline_module

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("unrequested analyzer ran")

        monkeypatch.setattr(timeline_module, "ppm_predictabilities", boom)
        monkeypatch.setattr(timeline_module, "ilp_ipc", boom)
        monkeypatch.setattr(timeline_module, "producer_indices", boom)
        timeline = mica_timeline_reference(
            small_trace, interval=1000, keys=("mix_loads",), config=CONFIG
        )
        assert timeline.values.shape == (5, 1)

    def test_engine_single_window_skips_other_sweeps(
        self, small_trace, monkeypatch
    ):
        """ilp_w32 alone walks one window size, not four."""
        from repro.mica import segmented as segmented_module

        walked = []
        original = segmented_module._window_depths

        def spy(producer1, producer2, window_sizes, **kwargs):
            walked.extend(int(w) for w in window_sizes)
            return original(producer1, producer2, window_sizes, **kwargs)

        monkeypatch.setattr(segmented_module, "_window_depths", spy)
        mica_timeline(
            small_trace, interval=1000, keys=("ilp_w32",), config=CONFIG
        )
        assert walked == [32]

    def test_engine_single_working_set_column_counts_only_it(
        self, small_trace, monkeypatch
    ):
        """ws_data_blocks alone counts data blocks, not pages or PCs."""
        from repro.mica import segmented as segmented_module

        counted = []
        original = segmented_module._unique_counts

        def spy(addresses, granularity, interval_ids, count):
            counted.append(granularity)
            return original(addresses, granularity, interval_ids, count)

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("both working-set columns were counted")

        monkeypatch.setattr(segmented_module, "_unique_counts", spy)
        monkeypatch.setattr(segmented_module, "_block_page_counts", boom)
        timeline = mica_timeline(
            small_trace, interval=1000, keys=("ws_data_blocks",),
            config=CONFIG,
        )
        assert counted == [CONFIG.block_bytes]
        reference = mica_timeline_reference(
            small_trace, interval=1000, keys=("ws_data_blocks",),
            config=CONFIG,
        )
        assert np.array_equal(timeline.values, reference.values)
