import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcmcbench
from mcmcbench import diagnostics, harness
from mcmcbench.cli import _merge_config, build_parser
from mcmcbench.cli import main as cli_main
from mcmcbench.harness import (
    REPORT_COLUMNS,
    ExperimentConfig,
    RunReport,
    emit_report,
    make_dataset,
    repeated_datasets,
    run_experiment,
)
from mcmcbench.models import get_model
from mcmcbench.models.mixture import DRAW_BLOCK


def quick_cfg(**kw):
    defaults = dict(prior="LM-C", n=30, p=3, seed=0, n_iter=300, n_burn=100,
                    backends=("gibbs",))
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(prior="LM-X")
    with pytest.raises(ValueError):
        ExperimentConfig(prior="LM-C", chains=0)
    with pytest.raises(ValueError):
        ExperimentConfig(prior="LM-C", repeats=0)
    with pytest.raises(ValueError):
        ExperimentConfig(prior="LM-C", backends="gibbs,stan")
    with pytest.raises(ValueError):
        ExperimentConfig(prior="LM-C", backends="gibbs,gibbs")
    with pytest.raises(ValueError):
        ExperimentConfig(prior="LM-C", backends="")
    with pytest.raises(ValueError):
        ExperimentConfig(prior="MM", hyper={"a00": 3})
    with pytest.raises(ValueError):
        ExperimentConfig(prior="LM-C", n_iter=500)
    with pytest.raises(ValueError):
        ExperimentConfig(prior="LM-C", n_iter=300, n_burn=100, n_thin=3)
    with pytest.raises(ValueError, match="keeps 3 draws"):
        ExperimentConfig(prior="LM-C", n_iter=6, n_burn=0, n_thin=2)  # too short for ESS
    ExperimentConfig(prior="LM-C", n_iter=8, n_burn=0, n_thin=2)


BAD_DESIGNS = {
    "MM-H3": ({"prior": "MM", "H": 3}, "H must be"),
    "AFT-k1.5": ({"prior": "AFT-NH", "k": 1.5}, "censoring fraction"),
    "covariates-x": ({"prior": "LM-C", "covariates": "x"}, "covariate kind"),
    "binary-p5": ({"prior": "LM-WI", "covariates": "binary", "p": 5}, "binary covariates"),
    "zero-pattern-p": ({"prior": "LR-L", "zero_pattern": 4, "p": 4}, "zero_pattern"),
    "binary-LR": ({"prior": "LR-N", "covariates": "binary"}, "does not draw covariates"),
    "zero-pattern-LM-C": ({"prior": "LM-C", "zero_pattern": 2}, "does not draw zero_pattern"),
    "k-H-LR": ({"prior": "LR-N", "k": 0.9, "H": 4}, "does not draw H"),
    "p-MM": ({"prior": "MM", "p": 7}, "does not draw p"),
    "H-AFT": ({"prior": "AFT-NH", "H": 3}, "does not draw H"),
    "k-LM-C": ({"prior": "LM-C", "k": 5.0}, "does not draw k"),
    "n0": ({"prior": "MM", "n": 0}, "n must be"),
    "seed-1": ({"prior": "LR-N", "seed": -1}, "seed must be"),
    "workers-2": ({"prior": "LM-C", "max_workers": -2}, "max_workers"),
}


@pytest.mark.parametrize("case", list(BAD_DESIGNS))
def test_bad_design_fails_at_config(case):
    # every design make_dataset or the worker pool would reject fails here first
    kw, message = BAD_DESIGNS[case]
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(**kw)


# Code run after ``import mcmcbench`` in a fresh interpreter that must not load scipy:
# a run of every backend on LR-N, and the mixture built in both parameterizations.
SCIPY_FREE = {
    "LR-N-run": """
from mcmcbench.harness import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig(prior="LR-N", n=50, p=3, n_iter=300, n_burn=100))
""",
    "MM-build": """
from mcmcbench.models.mixture import gen_mixture
from mcmcbench.models import get_model
for parameterization in ("marginal", "latent"):
    get_model("MM", gen_mixture(50, 2), H=2, parameterization=parameterization)
""",
    # gibbs and rwmh on the latent model, nuts on the marginal one: the
    # inverse-gamma priors' shapes of 1 take the exact log Gamma
    "MM-run": """
from mcmcbench.harness import ExperimentConfig, run_experiment
run_experiment(ExperimentConfig(prior="MM", n=50, H=2, n_iter=300, n_burn=100))
""",
}


@pytest.mark.parametrize("case", list(SCIPY_FREE))
def test_import_path_loads_no_scipy(case):
    # counts modules rather than timing the import, so host speed cannot flake it
    code = "import sys\nimport mcmcbench\n" + SCIPY_FREE[case] + (
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(mcmcbench.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=subprocess.PIPE,
                          text=True, check=True, timeout=120)
    assert proc.stdout.splitlines()[-1] == "[]"


def test_schedule_defaults():
    assert ExperimentConfig(prior="LM-C").sampler_config("gibbs").n_iter == 11000
    assert ExperimentConfig(prior="LM-C").sampler_config("gibbs").n_burn == 1000
    assert ExperimentConfig(prior="LM-L").sampler_config("nuts").n_iter == 20000
    assert ExperimentConfig(prior="AFT-NH").sampler_config("rwmh").n_burn == 5000
    assert ExperimentConfig(prior="LR-L").sampler_config("gibbs").n_iter == 15000
    assert ExperimentConfig(prior="LM-C").sampler_config("gibbs").n_thin == 2
    for prior, design in harness.PRIORS.items():
        scfg = ExperimentConfig(prior=prior).sampler_config("gibbs")
        assert (scfg.n_iter, scfg.n_burn) == design.schedule


def test_backends_string_split():
    cfg = quick_cfg(backends="gibbs,nuts")
    assert cfg.backends == ("gibbs", "nuts")


def test_same_dataset_across_backends():
    cfg = quick_cfg(backends=("gibbs", "rwmh"))
    a = make_dataset(cfg)
    b = make_dataset(cfg)
    np.testing.assert_array_equal(a.y, b.y)
    np.testing.assert_array_equal(a.X, b.X)


@pytest.mark.parametrize("chains", [1, 2])
def test_run_experiment_rows_and_timing(chains):
    # t_s sums the chains' sampling times, so the rate counts every chain's iterations
    cfg = quick_cfg(backends=("gibbs", "nuts"), chains=chains)
    reports = run_experiment(cfg)
    assert set(reports) == {"gibbs", "nuts"}
    for rep in reports.values():
        row = rep.row()
        assert row["N_it"] == 300
        assert row["N_it_per_s"] == pytest.approx(chains * 300 / rep.t_s)
        assert row["kl"] == ""  # not a mixture
        assert 0 < row["mean_E"] <= 1.0
    assert reports["nuts"].row()["n_divergences"] != "-"
    assert reports["gibbs"].row()["n_divergences"] == ""  # not applicable


def test_determinism_bitwise(tmp_path):
    # everything seed-derived is bitwise identical; the two wall-clock
    # columns (t_s, N_it_per_s) are the only nondeterministic fields
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run_experiment(quick_cfg(out=str(out1)))
    run_experiment(quick_cfg(out=str(out2)))
    assert (out1 / "chain_gibbs_0.csv").read_bytes() == (out2 / "chain_gibbs_0.csv").read_bytes()

    def strip_timing(path):
        with path.open() as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            row.pop("t_s")
            row.pop("N_it_per_s")
        return rows

    assert strip_timing(out1 / "report.csv") == strip_timing(out2 / "report.csv")


def test_csv_round_trip(tmp_path):
    cfg = quick_cfg()
    reports = run_experiment(cfg)
    path = tmp_path / "r.csv"
    emit_report(list(reports.values()), path, fmt="csv")
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    mem = reports["gibbs"].row()
    assert float(rows[0]["mean_E"]) == mem["mean_E"]
    assert float(rows[0]["lpml"]) == mem["lpml"]
    assert rows[0]["kl"] == ""
    assert list(rows[0]) == REPORT_COLUMNS


def test_json_mirrors_csv(tmp_path):
    reports = run_experiment(quick_cfg())
    path = tmp_path / "r.json"
    emit_report(list(reports.values()), path, fmt="json")
    data = json.loads(path.read_text())
    assert data[0]["prior"] == "LM-C"
    assert set(data[0]) == set(REPORT_COLUMNS)


def test_skipped_row_dash_convention():
    rep = RunReport(cfg=quick_cfg(), backend="nuts", skipped=True, note="incompatible")
    row = rep.row()
    assert row["mean_E"] == "-"
    assert row["lpml"] == "-"
    assert row["backend"] == "nuts"


def test_emit_report_empty_raises(tmp_path):
    with pytest.raises(ValueError):
        emit_report([], tmp_path / "x.csv")


def test_parallel_chains_match_sequential_seeds():
    # chain i derives its stream from (seed, spawn_key=(i,)), so running
    # K chains in a pool must equal K one-chain runs
    cfg = quick_cfg(chains=3)
    rep = run_experiment(cfg)["gibbs"]
    assert len(rep.chains) == 3
    from mcmcbench.harness import _chain_worker

    model = get_model(cfg.prior, make_dataset(cfg))
    for i in range(3):
        solo = _chain_worker(model, cfg.sampler_config("gibbs"), i)
        np.testing.assert_array_equal(rep.chains[i].samples, solo.samples)


@pytest.mark.parametrize("chains", [1, 3])
def test_one_model_per_backend(monkeypatch, chains):
    # the sampler, the chain workers and the diagnostics all share one model
    built = []

    def counting_get_model(*args, **kwargs):
        built.append(args[0])
        return get_model(*args, **kwargs)

    monkeypatch.setattr(harness, "get_model", counting_get_model)
    cfg = quick_cfg(backends=("gibbs", "nuts"), chains=chains)
    reports = run_experiment(cfg)
    assert built == ["LM-C", "LM-C"]
    assert all(len(rep.chains) == chains for rep in reports.values())


def test_k1_equals_run_experiment():
    a = run_experiment(quick_cfg(chains=1))["gibbs"]
    b = run_experiment(quick_cfg())["gibbs"]
    np.testing.assert_array_equal(a.chain.samples, b.chain.samples)


def test_repeated_datasets_smoke():
    cfg = quick_cfg(repeats=2, backends=("gibbs", "rwmh"))
    result = repeated_datasets(cfg)
    assert len(result["rows"]) == 4  # 2 datasets x 2 backends
    seeds = {row["seed"] for row in result["rows"]}
    assert seeds == {0, 1}
    stats = result["summary"]["gibbs"]["mean_E"]
    assert set(stats) == {"mean", "sd", "min", "max"}
    assert stats["min"] <= stats["mean"] <= stats["max"]


def test_repeated_datasets_writes_sweep(tmp_path):
    cfg = quick_cfg(repeats=2, out=str(tmp_path / "sw"))
    repeated_datasets(cfg)
    with (tmp_path / "sw" / "sweep.csv").open() as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 2
    assert json.loads((tmp_path / "sw" / "summary.json").read_text())


def test_mixture_report_has_kl_and_no_error():
    cfg = ExperimentConfig(prior="MM", n=40, H=2, seed=1, n_iter=400, n_burn=200,
                           backends=("gibbs",))
    row = run_experiment(cfg)["gibbs"].row()
    assert row["kl"] != ""
    assert row["error"] == ""


def test_multi_chain_fit_matches_per_chain_loglik():
    # 100 draws per chain, not a multiple of the mixture's 32-draw blocks, so
    # one block of the pooled draws straddles a chain boundary
    cfg = ExperimentConfig(prior="MM", n=40, H=2, seed=2, n_iter=300, n_burn=100,
                           backends=("gibbs",), chains=3)
    rep = run_experiment(cfg)["gibbs"]
    assert rep.chains[0].n_samples % DRAW_BLOCK != 0
    model = get_model(cfg.prior, make_dataset(cfg), H=cfg.H,
                      parameterization=harness.MIXTURE_PARAMETERIZATION["gibbs"])
    loglik = np.vstack([model.log_likelihood_draws(c.samples) for c in rep.chains])
    assert rep.fit.lpml == diagnostics.lpml(loglik)
    assert rep.fit.waic == diagnostics.waic(loglik)


# ---------------------------------------------------------------------------
# CLI


def test_cli_run(tmp_path, capsys):
    # stdout carries the text of the report file, line ends included
    args = ["run", "--prior", "LM-C", "--n", "30", "--p", "3", "--seed", "1",
            "--niter", "300", "--nburn", "100", "--backends", "gibbs,nuts"]
    assert cli_main(args + ["--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    assert out.startswith(",".join(REPORT_COLUMNS[:3]))
    assert out == (tmp_path / "o" / "report.csv").read_bytes().decode()
    assert (tmp_path / "o" / "report.json").exists()
    assert cli_main(args + ["--out", str(tmp_path / "j"), "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert out == (tmp_path / "j" / "report.json").read_bytes().decode()
    assert [row["backend"] for row in json.loads(out)] == ["gibbs", "nuts"]


def test_cli_sweep(capsys):
    code = cli_main([
        "sweep", "--prior", "LM-C", "--n", "30", "--p", "3", "--repeats", "2",
        "--niter", "300", "--nburn", "100", "--backends", "gibbs",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + 2 rows


def test_cli_config_file_with_flag_override(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "prior": "LM-C", "n": 30, "p": 3, "seed": 5, "n_iter": 300,
        "n_burn": 100, "backends": "gibbs",
    }))
    code = cli_main(["run", "--config", str(cfg_file), "--seed", "9",
                     "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[0]["seed"] == 9  # flag wins over file


def test_cli_config_file_sets_hyper(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"prior": "LR-N", "hyper": {"b02": 5.0}}))
    args = build_parser().parse_args(["run", "--config", str(cfg_file)])
    assert _merge_config(args).hyper == {"b02": 5.0}
    cfg_file.write_text(json.dumps({
        "prior": "LR-N", "hyper": {"b02": 5.0}, "n": 30, "p": 3, "n_iter": 300,
        "n_burn": 100, "backends": "gibbs",
    }))
    assert cli_main(["run", "--config", str(cfg_file)]) == 0
    cfg_file.write_text(json.dumps({"prior": "LR-N", "hyperparameters": {"b02": 5.0}}))
    assert cli_main(["run", "--config", str(cfg_file)]) != 0
    err = json.loads(capsys.readouterr().err)
    assert "unknown config keys" in err["message"]


def test_cli_error_is_machine_readable(capsys):
    code = cli_main(["run", "--prior", "BOGUS"])
    assert code != 0
    err = json.loads(capsys.readouterr().err)
    assert "error" in err and "message" in err


def test_cli_bad_design_samples_nothing(monkeypatch, capsys):
    sampled = []
    monkeypatch.setattr(harness, "run_backend_sampler", lambda *a, **kw: sampled.append(a))
    for flags, message in [
        (["--prior", "LM-C", "--n", "0"], "n must be >= 1"),
        (["--prior", "LR-N", "--covariates", "binary"], "does not draw covariates"),
        (["--prior", "LM-C", "--n", "20", "--p", "2", "--niter", "6", "--nburn", "0",
          "--nthin", "2"], "keeps 3 draws"),
    ]:
        assert cli_main(["run", *flags, "--backends", "gibbs"]) == 1
        captured = capsys.readouterr()
        assert sampled == [] and captured.out == ""
        assert message in json.loads(captured.err)["message"]


def test_cli_run_rejects_repeats(tmp_path, capsys):
    # run takes one dataset; a config asking for repeats belongs to sweep
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "prior": "LM-C", "n": 30, "p": 3, "n_iter": 300, "n_burn": 100,
        "backends": "gibbs", "repeats": 2,
    }))
    assert cli_main(["run", "--config", str(cfg_file)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "repeats" in json.loads(captured.err)["message"]
