"""Tests for the experiment harness: configs, pipelines, outputs, CLI."""

import hashlib
import re
import time
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import saddleslide.cli as cli
from saddleslide import (
    CertificationError,
    ConfigurationError,
    NetworkModel,
    ParameterError,
    RunConfig,
    RunTrace,
    StackedSPP,
    build_pipeline,
    consensus_violation,
    deterministic_schedule,
    emit_outputs,
    exact_gap_matrix_game,
    mps_run,
    pick_N,
    run_experiment,
)
from saddleslide import harness
from saddleslide.harness import CONSENSUS_CHUNK

rng = np.random.default_rng(1207)


def small_config(**overrides):
    base = dict(family="matching_pennies", m=4, network_kind="ring",
                epsilon=0.05, N_override=12, seed=0)
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_yaml_roundtrip_is_lossless(self):
        cfg = small_config(mode="stochastic", sigma=0.1, noise_kind="gaussian",
                           p_confidence=0.3, network_p=None, out_dir="runs/x")
        again = RunConfig.from_yaml(cfg.to_yaml())
        assert again == cfg
        assert with_numpy_scalars(cfg).to_yaml() == cfg.to_yaml()

    def test_defaults_validate(self):
        RunConfig().validate()

    @pytest.mark.parametrize("overrides,needle", [
        (dict(epsilon=0.0), "run.epsilon"),
        (dict(epsilon=-1.0), "run.epsilon"),
        (dict(family="lasso"), "problem.family"),
        (dict(m=0), "network.m"),
        (dict(m=513), "network.m"),
        (dict(m=3, network_kind="single"), "network.kind"),
        (dict(m=1, network_kind="ring"), "network.kind"),
        (dict(mode="annealed"), "run.mode"),
        (dict(sigma=-0.5), "run.sigma"),
        (dict(mode="deterministic", sigma=0.2), "run.sigma"),
        (dict(noise_kind="cauchy"), "run.noise_kind"),
        (dict(mode="stochastic", sigma=0.1, p_confidence=1.5), "run.p_confidence"),
        (dict(N_override=0), "run.N_override"),
        (dict(family="matching_pennies", d_x=3), "problem.d_x"),
        (dict(epsilon="0.1"), "run.epsilon"),
        (dict(sigma=None), "run.sigma"),
        (dict(box_radius="2"), "problem.box_radius"),
        (dict(m=True), "network.m"),
        (dict(epsilon=True), "run.epsilon"),
        (dict(instance_seed="abc"), "problem.seed"),
        (dict(network_seed="x"), "network.seed"),
        (dict(network_seed=None), "network.seed"),
        (dict(network_kind="erdos_renyi", network_p="0.5"), "network.p"),
        (dict(instance_seed=-1), "problem.seed"),
        (dict(N_override=True), "run.N_override"),
        (dict(mode="stochastic", sigma=0.1, p_confidence="0.3"), "run.p_confidence"),
        (dict(out_dir=5), "run.out_dir"),
        (dict(epsilon="1e-2"), "got '1e-2' (str)"),
        (dict(epsilon=10 ** 400), "run.epsilon"),
        (dict(box_radius=np.inf), "problem.box_radius"),
        (dict(network_p=np.nan), "network.p"),
        (dict(m=np.float64(4.0)), "network.m"),
    ])
    def test_validation_names_the_failing_field(self, overrides, needle):
        cfg = small_config(**overrides)
        with pytest.raises(ConfigurationError) as exc_info:
            cfg.validate()
        assert needle in str(exc_info.value)
        # every message ends with the offending value and its type
        assert re.search(r", got .+ \(\w+\)$", str(exc_info.value))

    @pytest.mark.parametrize("section", ["problem", "network", "run"])
    def test_unknown_key_in_a_section_is_rejected(self, section):
        with pytest.raises(ConfigurationError) as exc_info:
            RunConfig.from_yaml(f"{section}:\n  N_overide: 3\n")
        assert section in str(exc_info.value)
        assert "N_overide" in str(exc_info.value)

    def test_missing_keys_take_field_defaults(self):
        # schema_version may be left out too
        assert RunConfig.from_yaml("{}") == RunConfig()
        assert RunConfig.from_yaml("network:\n  kind: ring\n  m: 4\n") == \
            RunConfig(network_kind="ring", m=4)
        # a section left empty is null
        assert RunConfig.from_yaml("problem:\nnetwork: null\nrun:\n") == RunConfig()

    @pytest.mark.parametrize("value", ["0", "false", "[]", "''"])
    @pytest.mark.parametrize("section", ["problem", "network", "run"])
    def test_a_section_that_is_neither_a_mapping_nor_null_is_rejected(self, section, value):
        with pytest.raises(ConfigurationError,
                           match=f"^config section '{section}' must be a mapping$"):
            RunConfig.from_yaml(f"{section}: {value}\n")

    @pytest.mark.parametrize("text,shown", [("2", "2 (int)"), ("true", "True (bool)"),
                                            ("'1'", "'1' (str)")])
    def test_schema_version_other_than_1_is_rejected(self, text, shown):
        with pytest.raises(ConfigurationError) as exc_info:
            RunConfig.from_yaml(f"schema_version: {text}\n")
        assert "schema_version" in str(exc_info.value)
        assert str(exc_info.value).endswith(f"got {shown}")

    def test_missing_file_and_bad_yaml(self, tmp_path):
        with pytest.raises(ConfigurationError):
            RunConfig.from_yaml_file(tmp_path / "absent.yaml")
        bad = tmp_path / "bad.yaml"
        bad.write_text("run: [unclosed\n")
        with pytest.raises(ConfigurationError):
            RunConfig.from_yaml_file(bad)
        wrong = tmp_path / "wrong.yaml"
        wrong.write_text("unexpected_section: {}\n")
        with pytest.raises(ConfigurationError):
            RunConfig.from_yaml_file(wrong)
        latin1 = tmp_path / "latin1.yaml"
        latin1.write_bytes("run:\n  out_dir: r\xe9sultats\n".encode("latin-1"))
        with pytest.raises(ConfigurationError, match=f"cannot read config file {re.escape(str(latin1))}: "):
            RunConfig.from_yaml_file(latin1)


class TestPickN:
    def test_minimality(self):
        for L, omega_sq, target in [(640.0, 2.0, 0.05), (2.0, 0.5, 1e-3),
                                    (120.0, 1.5, 0.01)]:
            N = pick_N(L, omega_sq, target)
            assert 6.0 * L * omega_sq / N ** 2 <= target
            if N > 1:
                assert 6.0 * L * omega_sq / (N - 1) ** 2 > target

    def test_frozen_values(self):
        assert pick_N(640.0, 2.0, 0.05) == 392
        assert pick_N(640.0, 2.0, 0.25 * 0.05) == 784

    def test_picked_and_overridden_N_share_one_cap(self):
        cap = harness.MAX_N
        assert pick_N(1.0, 1.0, 6.0 / cap ** 2) == cap
        with pytest.raises(ConfigurationError,
                           match="^config field 'run.epsilon' is too small: "):
            pick_N(1.0, 1.0, 6.0 / (cap + 1) ** 2)
        small_config(N_override=cap).validate()
        with pytest.raises(ConfigurationError, match="run.N_override"):
            small_config(N_override=cap + 1).validate()


    @pytest.mark.parametrize("L,omega_sq,name", [
        (np.nan, 1.0, "L"), (np.inf, 1.0, "L"), (-1.0, 1.0, "L"),
        (1.0, np.nan, "omega_sq"), (1.0, np.inf, "omega_sq"), (1.0, -0.5, "omega_sq")])
    def test_constants_that_are_not_finite_and_nonnegative_are_parameter_errors(
            self, L, omega_sq, name):
        with pytest.raises(ParameterError, match=f"finite {name} >= 0"):
            pick_N(L, omega_sq, 0.1)


class TestRunExperiment:
    def test_deterministic_report_invariants(self):
        rep = run_experiment(small_config())
        assert rep.N == 12
        assert rep.mode == "deterministic"
        assert rep.grad_G_calls == 12
        assert rep.communication_rounds == rep.predicted_rounds == 12
        assert rep.H_calls_per_node <= rep.predicted_H_calls
        assert rep.final_gap <= rep.predicted_gap_bound
        assert len(rep.trace.inner_steps) == 12
        assert np.isfinite(rep.trace.gap_estimate).all()

    def test_single_node_matches_manual_centralized_run(self):
        cfg = RunConfig(family="matrix_game_random", d_x=3, d_y=2,
                        instance_seed=5, m=1, network_kind="single",
                        epsilon=0.05, N_override=40, seed=0)
        rep = run_experiment(cfg)
        assert rep.communication_rounds == 0
        assert rep.consensus_x == 0.0 and rep.consensus_y == 0.0
        _, spp, _, vi = build_pipeline(cfg)
        sched = deterministic_schedule(vi.L, vi.M, 40)
        final = mps_run(vi, sched, spp.center())
        X, Y = spp.split(final)
        manual_gap = exact_gap_matrix_game(spp.meta["A_bar"], X[0], Y[0])
        assert rep.final_gap == pytest.approx(manual_gap, abs=1e-15)

    def test_erdos_renyi_run_without_network_seed_is_reproducible(self):
        cfg = RunConfig.from_yaml(
            "problem: {family: matrix_game_random}\n"
            "network: {kind: erdos_renyi, m: 8, p: 0.4}\n"
            "run: {N_override: 20}\n")
        assert cfg.network_seed == 0
        assert run_experiment(cfg).summary_lines() == run_experiment(cfg).summary_lines()

    @pytest.mark.parametrize("cfg", [
        RunConfig(family="matrix_game_random", d_x=3, d_y=2, m=4, network_kind="ring",
                  epsilon=0.2, seed=0),
        small_config(mode="stochastic", sigma=0.1, N_override=None, epsilon=0.4),
    ], ids=["game", "stochastic-pennies"])
    def test_derived_call_counts_equal_the_real_calls(self, monkeypatch, tmp_path, cfg):
        # a game's setup makes no H call, and consensus makes no gossip, so
        # every counted H call is the solver's, and every gossip a grad_G call
        counts = {"H": 0, "gossip": 0}
        H, gossip = StackedSPP.H, NetworkModel.block_product

        def counting_H(self, z):
            counts["H"] += 1
            return H(self, z)

        def counting_gossip(self, V):
            counts["gossip"] += 1
            return gossip(self, V)

        monkeypatch.setattr(StackedSPP, "H", counting_H)
        monkeypatch.setattr(NetworkModel, "block_product", counting_gossip)
        rep = run_experiment(cfg)
        assert rep.mode == cfg.mode
        assert counts["H"] == rep.H_calls_per_node > 2 * rep.N
        assert counts["gossip"] == rep.communication_rounds == rep.grad_G_calls == rep.N
        emit_outputs(rep, rep.trace, tmp_path)
        last = (tmp_path / "trace.csv").read_text().split()[-1].split(",")
        assert (int(last[2]), int(last[3])) == (counts["gossip"], counts["H"])

    def test_l1_family_fills_gap_and_consensus_columns(self):
        cfg = RunConfig(family="l1_saddle_random", d_x=2, d_y=2,
                        instance_seed=3, m=3, network_kind="complete",
                        epsilon=0.1, N_override=10, seed=0)
        rep = run_experiment(cfg)
        assert np.isfinite(rep.trace.gap_estimate).all()
        assert np.isfinite(rep.trace.consensus_x).all()
        assert rep.final_gap >= -1e-12

    @pytest.mark.parametrize("cfg", [
        small_config(),
        RunConfig(family="l1_saddle_random", d_x=2, d_y=2, m=8, network_kind="ring",
                  epsilon=0.4, N_override=30, seed=0),
        RunConfig(family="matrix_game_random", d_x=3, d_y=2, m=1, epsilon=0.1,
                  N_override=9, seed=0),
    ], ids=["pennies", "l1", "single-node"])
    def test_iterates_are_rows_of_one_array_and_final_values_the_last_row(self, cfg):
        rep = run_experiment(cfg)
        t = rep.trace
        assert len(t.gap_estimate) == len(t.consensus_x) == len(t.consensus_y) == rep.N
        # the iterates pass through the harness's block of rows; none is kept
        assert t.z_bar_snapshots == t.z_snapshots == t.z_under_snapshots == []
        assert rep.final_gap == t.gap_estimate[-1]
        assert (rep.consensus_x, rep.consensus_y) == (t.consensus_x[-1], t.consensus_y[-1])
        assert all(type(v) is float for v in t.gap_estimate + t.consensus_x + t.consensus_y)

    # Blocks of 4 * 16 // dim rows: 4 rows for pennies on ring 4 (dim 16),
    # 2 for l1 on ring 8 (dim 32). N runs one below, at and one above that.
    @pytest.mark.parametrize("extra", [-1, 0, 1], ids=["below", "equal", "above"])
    @pytest.mark.parametrize("cfg", [
        small_config(),
        RunConfig(family="l1_saddle_random", d_x=2, d_y=2, m=8, network_kind="ring",
                  epsilon=0.4, seed=0),
    ], ids=["pennies", "l1"])
    def test_streamed_columns_equal_one_call_over_all_iterates(self, monkeypatch, cfg,
                                                               extra):
        monkeypatch.setattr(harness, "CONSENSUS_CHUNK", 16)
        net, spp, _, vi = build_pipeline(cfg)
        rows = 4 * 16 // spp.dim
        N = rows + extra
        sizes = []

        def counted(net, Z):
            sizes.append(len(Z))
            return consensus_violation(net, Z)

        monkeypatch.setattr(harness, "consensus_violation", counted)
        t = run_experiment(replace(cfg, N_override=N)).trace
        # each full block and the partial last one, once per column
        blocks = [rows] * (N // rows) + ([N % rows] if N % rows else [])
        assert sizes == [n for n in blocks for _ in "xy"]
        Z = []
        mps_run(vi, deterministic_schedule(vi.L, vi.M, N), spp.center(),
                observer=lambda k, z_bar: Z.append(z_bar.copy()))
        Z = np.array(Z)
        cut = spp.m * spp.d_x
        for column, whole in ((t.gap_estimate, harness._gap_oracle(spp)(Z)),
                              (t.consensus_x, consensus_violation(net, Z[:, :cut])),
                              (t.consensus_y, consensus_violation(net, Z[:, cut:]))):
            assert np.array(column).tobytes() == whole.tobytes()

    def test_memory_does_not_grow_with_N(self):
        # At dim 64 * 22 = 1408 the block holds 4 * CONSENSUS_CHUNK // dim = 46
        # rows, fewer than either N, so both runs hold the same block. A run
        # that kept its iterates would hold N * dim * 8 bytes more at N = 400
        # (4.5 MB); the per-iteration scalars of the trace are about 2 % of it.
        cfg = RunConfig(family="matrix_game_random", d_x=11, d_y=11, m=64,
                        network_kind="ring", epsilon=0.1, seed=0)
        assert 4 * CONSENSUS_CHUNK // 1408 < 50
        peaks = {}
        run_experiment(replace(cfg, N_override=50))  # warm caches and imports
        for N in (50, 400):
            tracemalloc.start()
            try:
                run_experiment(replace(cfg, N_override=N))
                peaks[N] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[400] - peaks[50] < 0.1 * 400 * 1408 * 8

    def test_stochastic_seeds_differ_and_reproduce(self):
        cfg = small_config(mode="stochastic", sigma=0.1, N_override=15)
        r1 = run_experiment(cfg)
        r2 = run_experiment(cfg)
        assert r1.final_gap == r2.final_gap
        cfg2 = small_config(mode="stochastic", sigma=0.1, N_override=15, seed=1)
        r3 = run_experiment(cfg2)
        assert r1.final_gap != r3.final_gap
        assert r1.mode == "stochastic"
        assert r1.H_calls_per_node <= r1.predicted_H_calls

    def test_sigma_zero_stochastic_equals_deterministic(self):
        det = run_experiment(small_config())
        sto = run_experiment(small_config(mode="stochastic", sigma=0.0))
        assert sto.mode == "deterministic"
        assert sto.N == det.N
        assert sto.final_gap == det.final_gap
        assert sto.summary_lines() == det.summary_lines()


class TestEmitOutputs:
    def test_files_and_reruns_are_byte_identical(self, tmp_path):
        cfg = small_config()
        rep = run_experiment(cfg)
        d1 = tmp_path / "a"
        d2 = tmp_path / "b"
        emit_outputs(rep, rep.trace, d1)
        rep2 = run_experiment(cfg)
        emit_outputs(rep2, rep2.trace, d2)
        for name in ("trace.csv", "summary.txt", "plot_data.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        trace_lines = (d1 / "trace.csv").read_text().strip().split("\n")
        assert len(trace_lines) == 1 + rep.N
        plot_lines = (d1 / "plot_data.csv").read_text().strip().split("\n")
        assert plot_lines[0] == "k,gap,consensus_x,consensus_y"
        assert len(plot_lines) == 1 + rep.N
        summary = (d1 / "summary.txt").read_text()
        assert "wall_time_s 0.0" in summary
        # wall clock redacted in the trace as well
        assert all(line.endswith(",0.0") for line in trace_lines[1:])

    def test_headers_line_endings_and_one_row_per_k(self, tmp_path):
        rep = run_experiment(small_config(mode="stochastic", sigma=0.1))
        t = rep.trace
        names = ("trace.csv", "summary.txt", "plot_data.csv")
        assert emit_outputs(rep, t, tmp_path) == [str(tmp_path / n) for n in names]
        lines = {}
        for name in names:
            text = (tmp_path / name).read_bytes().decode()
            end = "\r\n" if name == "trace.csv" else "\n"
            assert text.endswith(end), name
            lines[name] = text[:-len(end)].split(end)
            assert not any("\r" in l or "\n" in l for l in lines[name]), name
        assert lines["summary.txt"] == rep.summary_lines()
        assert lines["trace.csv"][0] == ("k,inner_steps,grad_G_calls,H_calls,"
                                         "gap_estimate,consensus_x,consensus_y,wall_ms")
        assert lines["plot_data.csv"][0] == "k,gap,consensus_x,consensus_y"
        metrics = list(zip(t.gap_estimate, t.consensus_x, t.consensus_y))
        assert len(metrics) == len(t.inner_steps) == rep.N
        trace_rows = [row.split(",") for row in lines["trace.csv"][1:]]
        plot_rows = [row.split(",") for row in lines["plot_data.csv"][1:]]
        # by outer iteration k: k grad_G calls and 2 (T_1 + ... + T_k) H calls
        assert [r[:4] for r in trace_rows] == [
            [str(k), str(t.inner_steps[k - 1]), str(k), str(2 * sum(t.inner_steps[:k]))]
            for k in range(1, rep.N + 1)]
        assert int(trace_rows[-1][3]) == rep.H_calls_per_node
        assert [r[4:] for r in trace_rows] == [[*map(repr, v), "0.0"] for v in metrics]
        assert plot_rows == [[str(k), *map(repr, v)] for k, v in enumerate(metrics, 1)]

    @pytest.mark.parametrize("short", range(4))
    def test_trace_with_a_missing_column_is_refused(self, tmp_path, short):
        # one of the four columns is a row short; no file is written
        rep = run_experiment(small_config(N_override=3))
        t = rep.trace
        columns = [t.inner_steps, t.gap_estimate, t.consensus_x, t.consensus_y]
        columns[short] = columns[short][:-1]
        with pytest.raises(ValueError):
            emit_outputs(rep, RunTrace(*columns), tmp_path / "out")
        assert not (tmp_path / "out").exists()

    def test_unwritable_directory_is_an_os_error_naming_it(self, tmp_path, capsys):
        rep = run_experiment(small_config())
        blocker = tmp_path / "file"
        blocker.write_text("")
        with pytest.raises(OSError, match="cannot create output directory"):
            emit_outputs(rep, rep.trace, blocker / "out")
        (tmp_path / "out" / "trace.csv").mkdir(parents=True)
        with pytest.raises(OSError, match="failed writing .*trace.csv"):
            emit_outputs(rep, rep.trace, tmp_path / "out")
        # spectrum --out writes through the same function: exit 2, path named
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(small_config().to_yaml())
        spectrum = ["spectrum", "--config", str(cfg), "--out"]
        assert cli.main(spectrum + [str(blocker / "spec")]) == 2
        assert "cannot create output directory" in capsys.readouterr().err
        (tmp_path / "spec" / "sqrt.csv").mkdir(parents=True)
        assert cli.main(spectrum + [str(tmp_path / "spec")]) == 2
        err = capsys.readouterr().err
        assert "failed writing" in err and "sqrt.csv" in err
        assert (tmp_path / "spec" / "laplacian.csv").exists()

    def test_sigma_zero_stochastic_config_reproduces_deterministic_bytes(
            self, tmp_path):
        det = run_experiment(small_config())
        sto = run_experiment(small_config(mode="stochastic", sigma=0.0,
                                          p_confidence=0.25))
        d1 = tmp_path / "det"
        d2 = tmp_path / "sto"
        emit_outputs(det, det.trace, d1)
        emit_outputs(sto, sto.trace, d2)
        for name in ("trace.csv", "summary.txt", "plot_data.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


# Golden outputs of noisy ring-4 pennies runs (sigma = 0.1, N = 40): the
# summary lines that differ between the two seeds, and the sha256 of each
# emitted file. A faster noisy loop must reproduce them bit for bit.
PINNED_STOCHASTIC = {
    0: (["final_gap 0.0003198676908852116",
         "consensus_x 2.101403233826361e-05",
         "consensus_y 3.691024811816174e-05"],
        {"trace.csv": "dfcebb5363bbcd322027bb348dc7470bb3db0c0717364cb8323f744488f1ad34",
         "summary.txt": "a8e86260152abcc07e01ef558c069b070b6de0e425193f8d940c89837f9c6204",
         "plot_data.csv": "d78c3d95dd1831fa11417b2bca748930a0e651fec79f101160edfeb48798dbeb"}),
    1: (["final_gap 3.626769535691743e-05",
         "consensus_x 2.822650503127089e-05",
         "consensus_y 1.220252565456868e-05"],
        {"trace.csv": "a85724eedc679f53549738bc8f3b9b3d0b78eac76ccd84125640d10b64e73a71",
         "summary.txt": "d4715cd0cdcda3362fb8e3d138829f948e9d7d508d6bbff6dbaa118102f0774e",
         "plot_data.csv": "4fa2144137947bc2118247d1fa58ebe1ebf948015f66d59452111925617063d1"}),
}


def assert_files_match(out_dir, shas):
    """Each emitted file named in ``shas`` has the pinned sha256."""
    for name, sha in shas.items():
        assert hashlib.sha256((out_dir / name).read_bytes()).hexdigest() == sha, name


@pytest.mark.parametrize("seed", sorted(PINNED_STOCHASTIC))
def test_stochastic_outputs_match_pinned_bytes(tmp_path, seed):
    varying, shas = PINNED_STOCHASTIC[seed]
    rep = run_experiment(small_config(mode="stochastic", sigma=0.1,
                                      noise_kind="uniform", p_confidence=0.25,
                                      N_override=40, seed=seed))
    assert rep.summary_lines() == [
        "saddleslide-summary 1", "family matching_pennies", "mode stochastic",
        "m 4", "epsilon 0.05", "N 40", "L 640.0", "M 160.0", "delta 0.1",
        "L0 4.0", "sigma 0.1", "omega_sq 2.0", "R_alpha_sq 4.000000000000001",
        "R_beta_sq 4.000000000000001", *varying, "communication_rounds 40",
        "grad_G_calls 40", "H_calls_per_node 750",
        "predicted_gap_bound 4.900156249999999", "predicted_rounds 40",
        "predicted_H_calls 790.1624521969896", "predicted_consensus_x 0.1",
        "predicted_consensus_y 0.1", "noise_kind uniform", "p_confidence 0.25",
        "wall_time_s 0.0"]
    emit_outputs(rep, rep.trace, tmp_path)
    assert_files_match(tmp_path, shas)


# Golden outputs of a deterministic l1 ring run (m = 5, d_x = 3, d_y = 2,
# N = 12): every summary line and the sha256 of each emitted file. L0, and with it
# M, L, the schedule and every iterate, comes from H sampled on 2000 points,
# so a one-ulp drift in a batched H shows here.
PINNED_L1 = (
    ["saddleslide-summary 1", "family l1_saddle_random", "mode deterministic",
     "m 5", "epsilon 0.4", "N 12", "L 636.1151180699474",
     "M 52.78951338636292", "delta 0.8", "L0 6.498585285205569", "sigma 0.0",
     "omega_sq 12.5", "R_alpha_sq 35.163578896600605",
     "R_beta_sq 21.376048051046308", "final_gap 0.07492931680565418",
     "consensus_x 0.016207696768611835", "consensus_y 0.0033695463772035754",
     "communication_rounds 12", "grad_G_calls 12", "H_calls_per_node 24",
     "predicted_gap_bound 332.1099573280976", "predicted_rounds 12",
     "predicted_H_calls 36.94602793478503",
     "predicted_consensus_x 0.26981957097703174",
     "predicted_consensus_y 0.34606388114522957", "wall_time_s 0.0"],
    {"trace.csv": "628ec241cb3f8a711d540d7b1445cca14cd4cb7f52045ebfedd026f664839a30",
     "summary.txt": "3d231a4310c2cb1a2bab0c263374aef7489156adf60fb5dbb66a6d6c59a16c8e",
     "plot_data.csv": "89da6e354e467a93ce2d97b0579acfec6622bca607f54e9642ba9c9876bb614c"},
)


def test_l1_outputs_match_pinned_bytes(tmp_path):
    lines, shas = PINNED_L1
    rep = run_experiment(small_config(family="l1_saddle_random", m=5, d_x=3,
                                      d_y=2, epsilon=0.4, N_override=12))
    assert rep.summary_lines() == lines
    emit_outputs(rep, rep.trace, tmp_path)
    assert_files_match(tmp_path, shas)


# Golden outputs of a deterministic random-game ring run (m = 6, d_x = 3,
# d_y = 2, N = 12). Unlike pennies, the uniform entries round in every
# product. Scaling H by 1 + 4e-15 changes these bytes; a one-ulp change
# of single entries of H (another summation order) is lost in the prox
# step, which divides H by a step weight of the order of L.
PINNED_GAME = (
    ["saddleslide-summary 1", "family matrix_game_random", "mode deterministic",
     "m 6", "epsilon 0.05", "N 12", "L 1391.6414879355605",
     "M 153.49165147772248", "delta 0.1", "L0 3.917801060259728",
     "sigma 0.0", "omega_sq 3.5", "R_alpha_sq 8.697759299597255",
     "R_beta_sq 6.651405848175011", "final_gap 0.2309915372616363",
     "consensus_x 0.002471593148195186", "consensus_y 0.0010709060796341167",
     "communication_rounds 12", "grad_G_calls 12", "H_calls_per_node 30",
     "predicted_gap_bound 203.04771699060254", "predicted_rounds 12",
     "predicted_H_calls 41.206082053536385",
     "predicted_consensus_x 0.06781508387190653",
     "predicted_consensus_y 0.07754847676954861", "wall_time_s 0.0"],
    {"trace.csv": "cd8953feb5d10cd68f20c33c60be74be22870beb652d6ed3c1269f4d3b3fd466",
     "summary.txt": "848182a56289ad73ddadbf6e057f71d9df24a5f48d465b857dce7250a6380015",
     "plot_data.csv": "589f23253d3968eb4dff937fc58056542931ba82ff27f74bf0f9295b0375bcd4"},
)


def test_game_outputs_match_pinned_bytes(tmp_path):
    lines, shas = PINNED_GAME
    rep = run_experiment(small_config(family="matrix_game_random", m=6, d_x=3,
                                      d_y=2, N_override=12))
    assert rep.summary_lines() == lines
    emit_outputs(rep, rep.trace, tmp_path)
    assert_files_match(tmp_path, shas)


# sha256 of each emitted file of single-node runs (N = 12): deterministic
# pennies, and a noisy l1 instance (d_x = 3, d_y = 2, gaussian sigma = 0.1).
# The m = 1 network W_tilde = 0 has W = 0, no edges and no positive
# eigenvalue, so these bytes see how that network is built.
PINNED_SINGLE = {
    "pennies": (
        dict(family="matching_pennies"),
        {"summary.txt": "2a5b7f348a307ba213eeaa1d0237e3079e4bcc3922efcfca0178ba6e620c7552",
         "trace.csv": "76322548a6ac6c6429f7b9d824c1e75f79e89645945a90976ff6dfe5164f0ed2",
         "plot_data.csv": "08f4cb0207a941d8dafbf3bf963bc18022e711585b423a0224a68f34ba707e85"}),
    "l1": (
        dict(family="l1_saddle_random", d_x=3, d_y=2, epsilon=0.4, mode="stochastic",
             sigma=0.1, noise_kind="gaussian", p_confidence=0.25),
        {"summary.txt": "72ece2b1fd5bb9af49f31bd45f61e58a92bfea3a8bbb8e4f32c9619e474b54f0",
         "trace.csv": "3a5c0652e46608fb6ac3b7da5eda16aa36c9c5f2189e70f83a4f8985407a6707",
         "plot_data.csv": "e714db5f2c61c165ab3a582244d884b8376b56e8d510f51742f4bbb9e934fc8c"}),
}


@pytest.mark.parametrize("family", sorted(PINNED_SINGLE))
def test_single_node_outputs_match_pinned_bytes(tmp_path, family):
    overrides, shas = PINNED_SINGLE[family]
    rep = run_experiment(small_config(m=1, network_kind="single", **overrides))
    emit_outputs(rep, rep.trace, tmp_path)
    assert_files_match(tmp_path, shas)


def with_numpy_scalars(cfg: RunConfig) -> RunConfig:
    """``cfg`` with every int field an np.int64 and every float field an np.float64."""
    numpy_type = {int: np.int64, float: np.float64}
    values = {f.name: getattr(cfg, f.name) for f in fields(cfg)}
    return replace(cfg, **{k: numpy_type[type(v)](v) for k, v in values.items()
                           if type(v) in numpy_type})


@pytest.mark.parametrize("overrides", [
    dict(network_p=0.5),
    dict(mode="stochastic", sigma=0.1, p_confidence=0.25, epsilon=0.5, N_override=None),
    dict(family="l1_saddle_random", d_x=3, d_y=2, box_radius=1.5, epsilon=0.4),
], ids=["pennies", "stochastic-pennies", "l1"])
def test_numpy_scalars_in_the_config_write_the_same_bytes(tmp_path, overrides):
    cfg = small_config(**overrides)
    numpy_cfg = with_numpy_scalars(cfg)
    assert type(numpy_cfg.m) is np.int64 and type(numpy_cfg.epsilon) is np.float64
    for name, c in (("python", cfg), ("numpy", numpy_cfg)):
        rep = run_experiment(c)
        emit_outputs(rep, rep.trace, tmp_path / name)
    for name in ("summary.txt", "trace.csv", "plot_data.csv"):
        assert (tmp_path / "numpy" / name).read_bytes() == \
            (tmp_path / "python" / name).read_bytes(), name


class TestCLI:
    def _write_config(self, tmp_path, **overrides):
        cfg = small_config(**overrides)
        path = tmp_path / "cfg.yaml"
        path.write_text(cfg.to_yaml())
        return path

    def test_run_exit_zero_and_outputs(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        out = tmp_path / "out"
        code = cli.main(["run", "--config", str(path), "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr().out
        assert "saddleslide-summary 1" in captured
        for name in ("trace.csv", "summary.txt", "plot_data.csv"):
            assert (out / name).exists()

    def test_seed_override_changes_stochastic_output(self, tmp_path, capsys):
        path = self._write_config(tmp_path, mode="stochastic", sigma=0.1,
                                  N_override=10)
        assert cli.main(["run", "--config", str(path), "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert cli.main(["run", "--config", str(path), "--seed", "6"]) == 0
        second = capsys.readouterr().out
        line1 = [l for l in first.split("\n") if l.startswith("final_gap")]
        line2 = [l for l in second.split("\n") if l.startswith("final_gap")]
        assert line1 != line2

    def test_config_error_exit_two(self, tmp_path, capsys):
        assert cli.main(["run", "--config", str(tmp_path / "nope.yaml")]) == 2
        bad = tmp_path / "bad.yaml"
        bad.write_text("run:\n  epsilon: -3\n")
        assert cli.main(["run", "--config", str(bad)]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("text,needle", [
        ("run:\n  epsilon: '0.1'\n", "run.epsilon"),
        ("run:\n  sigma: null\n", "run.sigma"),
        ("problem:\n  box_radius: '2'\n", "problem.box_radius"),
        ("run:\n  N_overide: 3\n", "N_overide"),
        ("run:\n  epsilon: 1e-2\n", "'run.epsilon' must be a positive real, got '1e-2' (str)"),
    ], ids=["epsilon-string", "sigma-null", "box-radius-string", "unknown-key",
            "exponent-without-dot"])
    def test_wrong_typed_or_unknown_key_exits_two(self, tmp_path, capsys, text, needle):
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        assert cli.main(["run", "--config", str(path)]) == 2
        assert needle in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["1.0e+200", "1.0e+100"])
    def test_huge_sigma_exits_two(self, tmp_path, capsys, sigma):
        # sigma^2 overflows a float at 1e+200, and at 1e+100 T_k passes the
        # int64 range
        path = tmp_path / "cfg.yaml"
        path.write_text(f"run:\n  mode: stochastic\n  sigma: {sigma}\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "T_k must be finite and below 2**62" in capsys.readouterr().err

    @pytest.mark.parametrize("epsilon", ["1.0e-300", "1.0e-150"])
    def test_tiny_epsilon_exits_two_promptly(self, tmp_path, capsys, epsilon):
        # 1e-300 makes 6 L omega_sq / eps overflow to inf; at 1e-150 N and
        # N - 1 have equal float squares, so an unbounded search never ends
        path = tmp_path / "cfg.yaml"
        path.write_text(f"run:\n  epsilon: {epsilon}\n")
        t0 = time.perf_counter()
        assert cli.main(["run", "--config", str(path)]) == 2
        assert time.perf_counter() - t0 < 5.0
        assert "run.epsilon" in capsys.readouterr().err

    def test_unreadable_or_unrepresentable_config_exits_two(self, tmp_path, capsys):
        latin1 = tmp_path / "latin1.yaml"
        latin1.write_bytes("run:\n  out_dir: r\xe9sultats\n".encode("latin-1"))
        assert cli.main(["run", "--config", str(latin1)]) == 2
        assert f"cannot read config file {latin1}" in capsys.readouterr().err
        # a 401-digit integer is too large for a float
        huge = tmp_path / "huge.yaml"
        huge.write_text(f"run:\n  epsilon: {10 ** 400}\n")
        assert cli.main(["run", "--config", str(huge)]) == 2
        assert "'run.epsilon' must be a positive real" in capsys.readouterr().err

    def test_huge_N_override_exits_two_before_anything_is_built(self, tmp_path, capsys,
                                                                monkeypatch):
        # N = 2**40 would ask the schedule for 8 TiB of T_k
        def unreachable(*args, **kwargs):
            raise AssertionError("a pipeline was built for an N past MAX_N")

        monkeypatch.setattr(harness, "build_topology", unreachable)
        monkeypatch.setattr(harness, "_build_instance", unreachable)
        with pytest.raises(ConfigurationError, match="run.N_override"):
            run_experiment(small_config(N_override=2 ** 40))
        path = tmp_path / "cfg.yaml"
        path.write_text(f"run:\n  N_override: {2 ** 40}\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "run.N_override" in capsys.readouterr().err

    def test_certify_exit_codes(self, tmp_path, capsys, monkeypatch):
        path = self._write_config(tmp_path)
        assert cli.main(["certify", "--config", str(path)]) == 0
        assert "certified" in capsys.readouterr().out
        out = tmp_path / "cert"
        assert cli.main(["certify", "--config", str(path), "--out", str(out)]) == 0
        printed = capsys.readouterr().out.split("\n")
        assert printed[-2] == f"wrote {out / 'certificate.txt'}"
        assert (out / "certificate.txt").read_text() == printed[0] + "\n"

        def boom(*args, **kwargs):
            raise CertificationError("violated")

        monkeypatch.setattr(cli, "certify_inexact_oracle", boom)
        assert cli.main(["certify", "--config", str(path)]) == 3

    def test_spectrum_reports_constants(self, tmp_path, capsys):
        path = self._write_config(tmp_path)
        out = tmp_path / "spec"
        assert cli.main(["spectrum", "--config", str(path),
                         "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "lambda_max" in text and "chi" in text
        assert (out / "laplacian.csv").exists()
        assert (out / "sqrt.csv").exists()

