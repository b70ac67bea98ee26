"""Tests for repro.config."""

from dataclasses import replace

import pytest

from repro.config import DEFAULT_CONFIG, SMOKE_CONFIG, ReproConfig
from repro.errors import ConfigurationError
from repro.uarch import EV56_CONFIG, EV67_CONFIG


class TestReproConfig:
    def test_defaults_are_paper_values(self):
        config = ReproConfig()
        assert config.block_bytes == 32
        assert config.page_bytes == 4096
        assert config.ilp_window_sizes == (32, 64, 128, 256)
        assert config.reg_dep_thresholds == (1, 2, 4, 8, 16, 32, 64)
        assert config.stride_thresholds == (0, 8, 64, 512, 4096)
        assert config.similarity_threshold == 0.20
        assert config.kmeans_k_range == (1, 70)
        assert config.bic_score_fraction == 0.90

    def test_with_overrides_returns_new_instance(self):
        config = ReproConfig()
        other = config.with_overrides(trace_length=1234)
        assert other.trace_length == 1234
        assert config.trace_length != 1234
        assert other is not config

    def test_is_frozen(self):
        with pytest.raises(AttributeError):
            ReproConfig().trace_length = 5  # type: ignore[misc]

    def test_smoke_config_is_smaller(self):
        assert SMOKE_CONFIG.trace_length < DEFAULT_CONFIG.trace_length

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"trace_length": 0},
            {"trace_length": -5},
            {"block_bytes": 0},
            {"block_bytes": 33},
            {"page_bytes": 1000},
            {"similarity_threshold": 0.0},
            {"similarity_threshold": 1.0},
            {"bic_score_fraction": 0.0},
            {"bic_score_fraction": 1.5},
            {"kmeans_k_range": (0, 10)},
            {"kmeans_k_range": (10, 5)},
            {"ppm_max_order": 0},
            {"ga_generations": 0},
            {"ga_population": 1},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            ReproConfig(**kwargs)


class TestFingerprintMemos:
    """The char-cache config digest and the HPC machine digests are
    memoized outside the dataclass fields: the same digests as the
    unmemoized hash, and a copy with other fields starts without one."""

    def test_characterization_fingerprint_is_memoized_unchanged(self):
        config = ReproConfig()
        assert config.characterization_fingerprint() == "ed06996164db4bbc"
        assert "_characterization_fingerprint" in config.__dict__
        assert config.characterization_fingerprint() == "ed06996164db4bbc"
        assert config == ReproConfig() and hash(config) == hash(ReproConfig())
        assert repr(config) == repr(ReproConfig())

    def test_with_overrides_copy_starts_without_the_memo(self):
        config = ReproConfig()
        config.characterization_fingerprint()
        other = config.with_overrides(block_bytes=64)
        assert "_characterization_fingerprint" not in other.__dict__
        assert other.characterization_fingerprint() == "28b65600d45fb4e9"
        assert config.characterization_fingerprint() == "ed06996164db4bbc"

    def test_machine_fingerprint_memo_and_replace_copy(self):
        assert EV56_CONFIG.fingerprint() == "2ee2c9bc02d2710c"
        assert EV67_CONFIG.fingerprint() == "1c8ba49dd782221e"
        assert "_fingerprint" in EV56_CONFIG.__dict__
        wider = replace(EV56_CONFIG, issue_width=4)
        assert "_fingerprint" not in wider.__dict__
        assert wider.fingerprint() not in (
            EV56_CONFIG.fingerprint(), EV67_CONFIG.fingerprint()
        )
        assert replace(EV56_CONFIG) == EV56_CONFIG
        assert replace(EV56_CONFIG).fingerprint() == "2ee2c9bc02d2710c"
