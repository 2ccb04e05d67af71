import io
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from lemlab import cli, critical, harness, heavytail
from lemlab.cli import build_parser, main
from lemlab.harness import (
    CSV_HEADER,
    ConfigError,
    ExperimentConfig,
    NumericFailureError,
    mean_and_se,
    parse_seed,
    read_config_file,
    run_simulate,
    run_trial,
)
from lemlab.raster import MAX_PIXELS


def test_pooled_variance_hand_value():
    mean, se = mean_and_se([0, 0, 1, 1])
    assert mean == 0.5
    assert se == pytest.approx(math.sqrt(1.0 / 12.0), abs=1e-15)
    assert 4 * se**2 == pytest.approx(1.0 / 3.0, abs=1e-15)


def test_summarize_matches_direct():
    xs = np.random.default_rng(0).random(5000)
    mean, se = mean_and_se(xs)
    assert mean == pytest.approx(xs.mean(), abs=1e-12)
    assert se == pytest.approx(xs.std(ddof=1) / math.sqrt(xs.size), rel=1e-10)


def test_mean_and_se():
    mean, se = mean_and_se([3])
    assert mean == 3.0 and math.isnan(se)


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
    side = math.isqrt(MAX_PIXELS)  # the largest square grid under the cap
    with pytest.raises(ConfigError):
        ExperimentConfig(resolution=side + 1).validate()
    ExperimentConfig(resolution=side).validate()
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


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="per-thread minor-fault counts are read on Linux only")
def test_trials_do_not_page_fault_after_warmup():
    # the root-sum passes reuse per-thread scratch, so a warm trial hands
    # no memory back to the allocator to fault in again
    import resource

    cfg = ExperimentConfig(n=100, trials=1, master_seed=5, no_timing=True)
    for k in range(20):
        run_trial(cfg, k)
    before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
    for k in range(20, 220):
        run_trial(cfg, k)
    faults = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before
    assert faults < 50 * 200, "%.1f minor faults per trial" % (faults / 200)


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


def test_failure_sidecar_and_abort(tmp_path, monkeypatch):
    out = tmp_path / "fail.csv"
    cfg = ExperimentConfig(
        n=150, trials=5, master_seed=3, out_path=str(out), no_timing=True,
    )
    monkeypatch.setattr(critical, "MAX_SWEEPS", 1)
    with pytest.raises(NumericFailureError):
        run_simulate(cfg, out=io.StringIO())
    sidecar = (str(out) + ".failures")
    assert os.path.exists(sidecar)
    assert "did not converge" in open(sidecar).read()


def test_clean_run_removes_stale_failure_sidecar(tmp_path, monkeypatch):
    out = tmp_path / "sim.csv"
    cfg = ExperimentConfig(
        n=150, trials=5, master_seed=3, out_path=str(out), no_timing=True,
    )
    with monkeypatch.context() as m:
        m.setattr(critical, "MAX_SWEEPS", 1)
        with pytest.raises(NumericFailureError):
            run_simulate(cfg, out=io.StringIO())
    assert os.path.exists(str(out) + ".failures")
    run_simulate(cfg, out=io.StringIO())
    assert len(out.read_text().splitlines()) == 1 + 5
    assert not os.path.exists(str(out) + ".failures")


def test_cli_exit_codes(tmp_path, monkeypatch, capsys):
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
        [sys.executable, "-m", "lemlab.cli", "simulate", "--boundary-points", "512"],
        capture_output=True, text=True, cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert r.returncode == 2  # the probe count is a constant, not a flag
    assert "unrecognized arguments: --boundary-points" in r.stderr
    # parameters the library rejects: a below heavytail's right cut, the
    # event needs n >= 3, the area prediction n >= 2 and c_n >= 0 (NaN
    # included); an unreadable config file and an n_list entry below 1
    missing = tmp_path / "missing"
    for argv in (["heavytail", "--a", "0"], ["kacrice", "--mode", "t0", "--n", "2"],
                 ["area", "--n", "1"], ["area", "--n", "100", "--c-n", "nan"],
                 ["simulate", "--config", str(missing)],
                 ["scaling", "--n-list", "0,10", "--trials", "5"]):
        r = subprocess.run(
            [sys.executable, "-m", "lemlab.cli"] + argv,
            capture_output=True, text=True,
            cwd=os.path.dirname(os.path.dirname(__file__)),
        )
        assert r.returncode == 2, argv
        assert r.stderr.startswith("config error:") and "Traceback" not in r.stderr
        assert r.stdout == "", argv
    # an --out in a missing directory is found before any trial runs
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *args: ran.append(args))
    monkeypatch.setattr(cli, "run_trial", lambda *args: ran.append(args))
    for command, name in (("simulate", "x.csv"), ("raster", "x.ppm")):
        assert main([command, "--out", str(missing / name)], out=io.StringIO()) == 2
        assert capsys.readouterr().err.startswith("config error:")
    # ... and so is a raster grid over raster.MAX_PIXELS, before --out is made
    ppm = tmp_path / "p.ppm"
    assert main(["raster", "--res", "16384", "--out", str(ppm)], out=io.StringIO()) == 2
    assert capsys.readouterr().err.startswith("config error:")
    assert not ppm.exists()
    assert ran == []
    # ... and heavytail's --a below the right cut before any walk
    walked = []
    monkeypatch.setattr(heavytail, "walk_interval_prob_mc", lambda *args: walked.append(args))
    assert main(["heavytail", "--a", "1", "--trials", "1000000"], out=io.StringIO()) == 2
    assert "below the right cut" in capsys.readouterr().err
    assert walked == []
    # commands that write no file take no --out, commands that run no
    # trials in parallel no --threads, and area, which draws nothing, no --seed
    txt = str(tmp_path / "x.txt")
    for command, flag, value in (
            ("area", "--out", txt), ("heavytail", "--out", txt), ("kacrice", "--out", txt),
            ("raster", "--threads", "2"), ("area", "--threads", "2"),
            ("heavytail", "--threads", "2"), ("kacrice", "--threads", "2"),
            ("area", "--seed", "1")):
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value], out=io.StringIO())
        assert exc.value.code == 2
        assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()
    r = subprocess.run(
        [sys.executable, "-m", "lemlab.cli", "constants"],
        capture_output=True, text=True,
        cwd=os.path.dirname(os.path.dirname(__file__)),
    )
    assert r.returncode == 0
    assert "0.3224670334" in r.stdout
    assert "0.4530881696" in r.stdout


def test_scipy_stays_a_lazy_import():
    # importing scipy.special alone takes a sizeable part of a short run,
    # and none of these paths reads the normal CDF
    code = (
        "import io, sys\n"
        "scipy = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import lemlab\n"
        "from lemlab.cli import main\n"
        "loaded = [scipy()]\n"
        "assert main(['constants'], out=io.StringIO()) == 0\n"
        "loaded.append(scipy())\n"
        "assert main(['simulate', '--n', '20', '--trials', '3'], out=io.StringIO()) == 0\n"
        "loaded.append(scipy())\n"
        "print(loaded)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=os.path.dirname(os.path.dirname(__file__)))
    assert r.returncode == 0, r.stderr
    assert r.stdout == "[[], [], []]\n"


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


def test_scaling_bracket_allows_for_standard_error(tmp_path, monkeypatch, capsys):
    # E[C]/sqrt(100) is about 0.209; this run reads 0.1915 with SE 0.0086,
    # below 0.2 by about one SE, and passes
    argv = ["scaling", "--n-list", "100,200", "--trials", "200", "--seed", "3"]
    assert main(argv, out=io.StringIO()) == 0
    # a count stuck at 1 reads 0.1 with SE 0: it fails, after the table
    # is written
    real = harness.count_components

    def one(*args, **kw):
        return replace(real(*args, **kw), components=1)

    monkeypatch.setattr(harness, "count_components", one)
    out = tmp_path / "scaling.csv"
    buf = io.StringIO()
    assert main(argv[:3] + ["--trials", "5", "--out", str(out)], out=buf) == 3
    assert "mean/sqrt(n)=0.1000 (se 0.0000)" in capsys.readouterr().err
    assert out.read_text() == "\n".join(buf.getvalue().splitlines()[1:-1]) + "\n"
    assert out.read_text().splitlines()[1].startswith("100,5,0,1.0,0.0,")


def test_scaling_writes_its_table_before_a_failure_row_raises(tmp_path, monkeypatch, capsys):
    # no solve converges with no sweep: both rows fail whole, read nan,
    # and are printed and written before the exit
    monkeypatch.setattr(critical, "MAX_SWEEPS", 0)
    out = tmp_path / "scaling.csv"
    buf = io.StringIO()
    argv = ["scaling", "--n-list", "10,20", "--trials", "5", "--out", str(out)]
    assert main(argv, out=buf) == 3
    assert "n=10: 5 failures" in capsys.readouterr().err
    assert out.read_text() == "\n".join(buf.getvalue().splitlines()[1:-1]) + "\n"
    assert out.read_text().splitlines()[1:] == ["10,0,5,nan,nan,nan,nan", "20,0,5,nan,nan,nan,nan"]


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


def test_dump_crit_needs_out(capsys):
    with pytest.raises(ConfigError):
        ExperimentConfig(n=6, trials=2, dump_crit=True).validate()
    assert main(["simulate", "--n", "6", "--trials", "2", "--dump-crit"]) == 2
    assert "config error:" in capsys.readouterr().err


def test_cli_seed_error_names_flag_and_value(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--seed", "4z"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "--seed" in err and "'4z'" in err and "functools" not in err


def test_every_config_field_is_a_flag():
    flags = {name for _, _, names in cli._COMMANDS.values() for name in names}
    assert flags == set(harness.ExperimentConfig.__dataclass_fields__) - {"command"}


def test_cli_area_alias_and_heavytail_defaults():
    assert build_parser().parse_args(["area-predict"]).command == "area"
    cfg = ExperimentConfig()
    assert (cfg.r, cfg.a, cfg.b) == (0.9, 200.0, 2000.0)
    assert main(["heavytail", "--trials", "10"], out=io.StringIO()) == 0


# fixed-seed CLI outputs recorded before the flag and trial-runner rework;
# integer columns and counts are exact, floats at rel 1e-9
SIM_COMPONENTS = "1111213211325242412121611211135131412121"
SIM_AREAS = (0.0674951546669682, 0.16566992509164924, 0.05829126993965436)
SCALING_ROWS = [
    (10, 300, 0, 1.029999999999999, 0.009865313716031492,
     0.32571459899734273, 0.0031196861174759083),
    (20, 300, 0, 1.1400000000000006, 0.022177956655809808,
     0.25491174943497613, 0.004959141868443463),
]


def test_cli_outputs_pinned_simulate(tmp_path):
    out = tmp_path / "sim.csv"
    buf = io.StringIO()
    assert main(["simulate", "--n", "100", "--trials", "40", "--seed", "7",
                 "--threads", "2", "--no-timing", "--out", str(out)], out=buf) == 0
    assert "# records=40 failures=0" in buf.getvalue()
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [int(r[0]) for r in rows] == list(range(40))
    assert "".join(r[2] for r in rows) == SIM_COMPONENTS
    assert "".join(r[3] for r in rows) == SIM_COMPONENTS
    assert all(r[7] == "1" and r[8] == "0" for r in rows)
    assert [float(r[5]) for r in rows[:3]] == pytest.approx(SIM_AREAS, rel=1e-9)


def test_cli_outputs_pinned_scaling(tmp_path):
    out = tmp_path / "scaling.csv"
    buf = io.StringIO()
    assert main(["scaling", "--n-list", "10,20", "--trials", "300", "--seed", "1",
                 "--out", str(out)], out=buf) == 0
    printed = buf.getvalue().splitlines()
    written = out.read_text().splitlines()
    assert printed[1:4] == written
    for line, pinned in zip(written[1:], SCALING_ROWS):
        fields = line.split(",")
        assert [int(x) for x in fields[:3]] == list(pinned[:3])
        assert [float(x) for x in fields[3:]] == pytest.approx(pinned[3:], rel=1e-9)
    # 309 and 342 components over 300 trials, as correctly rounded means
    assert [line.split(",")[3] for line in written[1:]] == ["1.03", "1.14"]


def test_cli_outputs_pinned_raster(tmp_path):
    path = tmp_path / "lem.ppm"
    buf = io.StringIO()
    assert main(["raster", "--n", "100", "--seed", "1", "--res", "512",
                 "--out", str(path)], out=buf) == 0
    assert buf.getvalue().splitlines()[1:] == [
        "pixel_components,critical_value_components", "2,4"]
    data = path.read_bytes()
    header = b"P6\n512 512\n255\n"
    assert data.startswith(header)
    img = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(-1, 3)
    colors, counts = np.unique(img, axis=0, return_counts=True)
    assert {tuple(int(v) for v in c): int(k) for c, k in zip(colors, counts)} == {
        (0, 200, 0): 77812, (150, 230, 150): 9931, (220, 40, 40): 11036,
        (240, 220, 60): 42940, (255, 255, 255): 120425,
    }


# `lemlab area` (n, q1) -> (area, sqrt_n_area), recorded once sigma(r)
# and gamma3(r) both came from their closed forms (see the decisions
# ledger in CHANGES.md); at rel 1e-12
AREA_ROWS = {
    ("400", 0): (0.07443514513341888, 1.4887029026683776),
    ("400", 1): (0.0743549772354034, 1.487099544708068),
    ("1000000", 0): (0.0014249793261856528, 1.4249793261856527),
}


def test_cli_outputs_pinned_area():
    for (n, q1), pinned in AREA_ROWS.items():
        buf = io.StringIO()
        assert main(["area", "--n", n] + ["--q1"] * q1, out=buf) == 0
        header, row = buf.getvalue().splitlines()
        assert header == "n,kappa,c_n,q1,area,sqrt_n_area"
        fields = row.split(",")
        assert fields[:4] == [n, "2.0", "0.0", str(q1)]
        assert [float(x) for x in fields[4:]] == pytest.approx(pinned, rel=1e-12)


def test_cli_raster_solver_failure_prints_minus_one(tmp_path, monkeypatch):
    # a solve with no sweep does not converge; raster still writes its
    # image and prints -1 for the critical-value count
    monkeypatch.setattr(critical, "MAX_SWEEPS", 0)
    buf = io.StringIO()
    assert main(["raster", "--n", "12", "--seed", "7", "--res", "64",
                 "--out", str(tmp_path / "lem.ppm")], out=buf) == 0
    assert buf.getvalue().splitlines()[-1].endswith(",-1")
