import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from lemlab.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    NumericFailureError,
    SummaryAccumulator,
    parse_seed,
    read_config_file,
    run_simulate,
    run_trial,
    summarize,
)


def test_pooled_variance_hand_value():
    acc = SummaryAccumulator()
    for x in (0.0, 0.0, 1.0, 1.0):
        acc.add(x)
    assert acc.variance == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_summarize_matches_direct():
    rng = np.random.default_rng(0)
    xs = rng.random(5000)
    acc = summarize(xs)
    assert acc.count == 5000
    assert acc.mean == pytest.approx(xs.mean(), abs=1e-12)
    assert acc.variance == pytest.approx(xs.var(ddof=1), rel=1e-10)


def test_csv_schema_exact():
    assert CSV_HEADER == (
        "trial,n,components,components_annulus,n_crit_outside,"
        "area_outside_est,max_residual,inradius_ok,wall_micros"
    )


def test_seed_parsing():
    assert parse_seed("42") == 42
    assert parse_seed("0x2A") == 42
    assert parse_seed("0X2a") == 42
    with pytest.raises(ConfigError):
        parse_seed("4z")


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(n=0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(kappa=-1.0).validate()
    with pytest.raises(ConfigError):
        ExperimentConfig(command="scaling", n_list=(100,)).validate()
    ExperimentConfig().validate()


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("n = 25\ntrials=10  # comment\nkappa=1.5\n\n")
    vals = read_config_file(path)
    assert vals == {"n": "25", "trials": "10", "kappa": "1.5"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nope=1\n")
    with pytest.raises(ConfigError):
        read_config_file(bad)


def test_cli_precedence_config_file_vs_flags(tmp_path):
    from lemlab.cli import build_parser, _build_config

    path = tmp_path / "run.cfg"
    path.write_text(
        "n=25\ntrials=7\nmaster_seed=0x10\n"
        "q1=yes\nkappa=1.5\nn_list=100,200\nmode=t0\n"
    )
    args = build_parser().parse_args(
        ["simulate", "--config", str(path), "--n", "31"]
    )
    cfg = _build_config(args)
    assert cfg.n == 31        # flag wins
    assert cfg.trials == 7    # file beats default
    # one file key of each coerced kind: hex int, bool, float, tuple, str
    assert cfg.master_seed == 16 and type(cfg.master_seed) is int
    assert cfg.q1 is True
    assert cfg.kappa == 1.5 and type(cfg.kappa) is float
    assert cfg.n_list == (100, 200)
    assert cfg.mode == "t0" and type(cfg.mode) is str


def test_trial_record_invariant_and_n2_counts():
    cfg = ExperimentConfig(n=2, trials=1, master_seed=5, no_timing=True)
    for k in range(200):
        rec, _, _ = run_trial(cfg, k)
        assert not rec.failed
        assert rec.components == 1 + rec.n_crit_outside
        assert rec.components == 1  # n=2 lemniscates are connected
        assert rec.wall_micros == 0


def test_simulate_writes_sorted_csv_and_summary(tmp_path):
    out = tmp_path / "sim.csv"
    cfg = ExperimentConfig(
        n=12, trials=30, master_seed=7, threads=2, out_path=str(out),
        no_timing=True,
    )
    buf = io.StringIO()
    run_simulate(cfg, out=buf)
    lines = out.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    idx = [int(line.split(",")[0]) for line in lines[1:]]
    assert idx == sorted(idx) == list(range(30))
    assert "mean components" in buf.getvalue()
    assert not os.path.exists(str(out) + ".failures")


def test_simulate_deterministic_across_thread_counts(tmp_path):
    outs = []
    for threads in (1, 8):
        path = tmp_path / ("t%d.csv" % threads)
        cfg = ExperimentConfig(
            n=20, trials=40, master_seed=42, threads=threads,
            out_path=str(path), no_timing=True,
        )
        run_simulate(cfg, out=io.StringIO())
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_failure_sidecar_and_abort(tmp_path):
    out = tmp_path / "fail.csv"
    cfg = ExperimentConfig(
        n=150, trials=5, master_seed=3, solver_max_iters=1,
        out_path=str(out), no_timing=True,
    )
    with pytest.raises(NumericFailureError):
        run_simulate(cfg, out=io.StringIO())
    sidecar = (str(out) + ".failures")
    assert os.path.exists(sidecar)
    assert "did not converge" in open(sidecar).read()


def test_cli_exit_codes(tmp_path):
    r = subprocess.run(
        [sys.executable, "-m", "lemlab.cli", "simulate", "--n", "0"],
        capture_output=True, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert r.returncode == 2
    r = subprocess.run(
        [sys.executable, "-m", "lemlab.cli", "simulate", "--no-such-flag"],
        capture_output=True, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert r.returncode == 2  # unknown flags rejected
    r = subprocess.run(
        [sys.executable, "-m", "lemlab.cli", "constants"],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert r.returncode == 0
    assert "0.3224670334" in r.stdout
    assert "0.4530881696" in r.stdout


def test_scaling_table(tmp_path):
    from lemlab.harness import run_scaling

    out = tmp_path / "scaling.csv"
    cfg = ExperimentConfig(
        command="scaling", n_list=(10, 20), trials=25, master_seed=9,
        out_path=str(out), no_timing=True,
    )
    buf = io.StringIO()
    rows = run_scaling(cfg, out=buf)
    assert [row[0] for row in rows] == [10, 20]
    text = out.read_text().splitlines()
    assert text[0].startswith("n,trials,failures")
    assert len(text) == 3


def test_dump_crit_flag(tmp_path):
    out = tmp_path / "sim.csv"
    cfg = ExperimentConfig(
        n=6, trials=2, master_seed=1, out_path=str(out), no_timing=True,
        dump_crit=True,
    )
    run_simulate(cfg, out=io.StringIO())
    dumped = (tmp_path / "sim.csv.crit.0.csv").read_text().splitlines()
    assert len(dumped) == 5
    for line in dumped:
        re_s, im_s, res_s = line.split(",")
        assert abs(complex(float(re_s), float(im_s))) <= 1.0 + 1e-9
        assert float(res_s) < 1e-10
