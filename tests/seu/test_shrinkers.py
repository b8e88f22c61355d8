"""Campaign-shrinker identity on the real fault models.

The collapse/retire machinery is only admissible because it is
verdict-invariant; these tests pin that against the same golden SHAs
the engine port is pinned to: every flag combination — and every
adapter — must reproduce the identical verdict bytes, while the
telemetry proves the shrinkers actually engaged.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.bist.coverage import run_coverage
from repro.bist.faults import sample_faults
from repro.bist.patterns import clb_test_design
from repro.engine.cache import implemented_design
from repro.seu import (
    CampaignConfig,
    run_campaign,
    run_halflatch_sweep,
    run_multibit_campaign,
)
from tests.utils.goldens import assert_golden_verdicts

CFG = CampaignConfig(detect_cycles=48, persist_cycles=32, stride=7, batch_size=32)
HL_CFG = CampaignConfig(
    detect_cycles=48, persist_cycles=0, classify_persistence=False, batch_size=32
)


class TestSEUFlagMatrix:
    @pytest.mark.parametrize(
        "collapse,retire",
        [(True, True), (True, False), (False, True), (False, False)],
    )
    def test_every_flag_combination_matches_golden(self, mult_hw, collapse, retire):
        result = run_campaign(mult_hw, CFG, collapse=collapse, retire=retire)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        assert result.n_simulated == 555  # followers still count as simulated
        t = result.telemetry
        if collapse:
            assert t.n_collapsed > 0
        else:
            assert t.n_collapsed == 0
        if retire:
            assert t.machines_retired > 0 and t.machine_cycles_saved > 0
        else:
            assert t.machines_retired == 0 and t.machine_cycles_saved == 0

    def test_sharded_flags_match_serial(self, mult_hw):
        from repro.seu import run_campaign_parallel

        serial = run_campaign(mult_hw, CFG)
        for collapse, retire in [(True, True), (False, False)]:
            sharded = run_campaign_parallel(
                mult_hw, CFG, jobs=2, collapse=collapse, retire=retire
            )
            assert np.array_equal(sharded.verdicts, serial.verdicts)


class TestHalfLatchFlags:
    @pytest.mark.parametrize("collapse,retire", [(True, False), (False, True)])
    def test_flags_match_golden(self, mult_hw, collapse, retire):
        sweep = run_halflatch_sweep(
            mult_hw, HL_CFG, collapse=collapse, retire=retire
        )
        assert_golden_verdicts("halflatch_verdicts", sweep.verdicts)


class TestMultiBitFlags:
    def test_flags_do_not_move_the_failure_count(self, mult_hw):
        base = run_multibit_campaign(
            mult_hw, 0.05, k=2, n_trials=128, config=CFG, seed=3
        )
        off = run_multibit_campaign(
            mult_hw, 0.05, k=2, n_trials=128, config=CFG, seed=3,
            collapse=False, retire=False,
        )
        assert base.n_failures == off.n_failures == 3
        assert base.telemetry.n_simulated == off.telemetry.n_simulated == 128


class TestBistCoverageFlags:
    def test_flags_do_not_move_the_report(self, s8):
        spec = clb_test_design(4, register_bits=8, variant=0)
        hw = implemented_design(spec, s8.name)
        faults = sample_faults(hw.decoded, 40, seed=5)
        base = run_coverage(s8, faults, cycles=96)
        off = run_coverage(s8, faults, cycles=96, collapse=False, retire=False)
        assert base.detected_by == off.detected_by
        assert base.undetected == off.undetected


class TestObservabilityInvariance:
    """Tracing/progress are observability, not semantics: every axis of
    the obs layer must leave the verdict bytes untouched (the obs
    contract, see DESIGN.md)."""

    @pytest.mark.parametrize(
        "trace,progress", [(True, False), (False, True), (True, True)]
    )
    def test_trace_and_progress_do_not_move_verdicts(
        self, mult_hw, tmp_path, trace, progress
    ):
        from repro.obs import observe
        from repro.obs.report import load_trace

        trace_path = str(tmp_path / "t.jsonl") if trace else None
        with observe(trace_path, progress, label="test"):
            result = run_campaign(mult_hw, CFG)
        assert_golden_verdicts("seu_verdicts", result.verdicts)
        assert result.n_simulated == 555
        if trace:
            tr = load_trace(trace_path)
            assert tr.malformed == 0 and not tr.resumed
            seg = tr.segments[0]
            names = {s.name for s in seg.spans.values()}
            assert "campaign" in names
            assert names & {"batch", "batch.collapsed"}
            assert seg.ended

    def test_sharded_trace_matches_golden(self, mult_hw, tmp_path):
        from repro.obs import observe
        from repro.obs.report import load_trace
        from repro.seu import run_campaign_parallel

        trace_path = str(tmp_path / "sharded.jsonl")
        with observe(trace_path, progress=False, label="test"):
            sharded = run_campaign_parallel(mult_hw, CFG, jobs=2)
        assert_golden_verdicts("seu_verdicts", sharded.verdicts)
        seg = load_trace(trace_path).segments[0]
        names = {s.name for s in seg.spans.values()}
        assert {"campaign", "phase.prefilter", "phase.observe", "shard"} <= names

    def test_kill_and_resume_trace_is_well_formed(
        self, mult_hw, tmp_path, monkeypatch
    ):
        import repro.engine.sweep as sweepmod
        from repro.obs import observe
        from repro.obs.report import load_trace

        class Killed(Exception):
            pass

        real_save = sweepmod.save_sweep
        calls = {"n": 0}

        def dying_save(sweep, path):
            calls["n"] += 1
            if calls["n"] > 2:
                raise Killed()
            real_save(sweep, path)

        ckpt = str(tmp_path / "hl.npz")
        trace_path = str(tmp_path / "resumed.jsonl")
        monkeypatch.setattr(sweepmod, "save_sweep", dying_save)
        with pytest.raises(Killed), observe(trace_path, label="test"):
            run_halflatch_sweep(mult_hw, HL_CFG, jobs=2, checkpoint_path=ckpt)
        monkeypatch.setattr(sweepmod, "save_sweep", real_save)

        with observe(trace_path, label="test", resumed=True):
            resumed = run_halflatch_sweep(
                mult_hw, HL_CFG, jobs=2, checkpoint_path=ckpt, resume=True
            )
        assert_golden_verdicts("halflatch_verdicts", resumed.verdicts)

        tr = load_trace(trace_path)
        assert tr.malformed == 0
        assert len(tr.segments) == 2
        assert not tr.segments[0].resumed and tr.segments[1].resumed
        assert tr.resumed
        # The killed segment was force-closed (aborted spans), the
        # resumed one ran to a clean run_end.
        assert tr.segments[0].ended and tr.segments[1].ended
        assert any(
            s.fields.get("aborted") for s in tr.segments[0].spans.values()
        ) or all(s.closed for s in tr.segments[0].spans.values())


class TestCLIShrinkerFlags:
    def test_parser_accepts_and_defaults_off(self):
        from repro.cli import build_parser

        for cmd in (["campaign", "MULT4"], ["multibit", "MULT4"], ["bist-coverage"]):
            args = build_parser().parse_args(cmd)
            assert args.no_collapse is False and args.no_retire is False
            args = build_parser().parse_args(cmd + ["--no-collapse", "--no-retire"])
            assert args.no_collapse is True and args.no_retire is True
