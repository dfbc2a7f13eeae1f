import json
import math
import os

import pytest
import yaml

import matent.cli as cli
from matent.cli import (ConfigError, ExperimentConfig, build_blockmap,
                        build_potential, build_target, config_hash, load_config,
                        main)
from matent.estimates import EstimatorError
from matent.maxent import InfeasibleTargetError
from matent.ncpoly import NcPoly


def write_yaml(path, doc):
    with open(path, "w") as fh:
        yaml.safe_dump(doc, fh)
    return str(path)


VOLUME_DOC = {"kind": "volume", "seed": 7, "N": 3, "R": 1.5}


def test_load_config_validation(tmp_path):
    p = write_yaml(tmp_path / "a.yaml", {"kind": "volume", "N": 3, "R": 1.0})
    with pytest.raises(ConfigError, match="seed"):
        load_config(p)
    p = write_yaml(tmp_path / "b.yaml", {"kind": "nope", "seed": 1})
    with pytest.raises(ConfigError, match="kind"):
        load_config(p)
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(str(tmp_path / "missing.yaml"))
    p = write_yaml(tmp_path / "c.yaml", dict(VOLUME_DOC, threads=0))
    with pytest.raises(ConfigError, match="threads"):
        load_config(p)


def test_config_hash_ignores_key_order_and_out(tmp_path):
    a = write_yaml(tmp_path / "a.yaml", {"kind": "volume", "seed": 3, "N": 4, "R": 2.0})
    b_path = tmp_path / "b.yaml"
    b_path.write_text("R: 2.0\nN: 4\nseed: 3\nkind: volume\nout: elsewhere\n")
    ca, cb = load_config(a), load_config(str(b_path))
    assert config_hash(ca) == config_hash(cb)
    assert cb.out == "elsewhere"
    c = load_config(a, seed_override=4)
    assert config_hash(c) != config_hash(ca)


def test_threads_resolution(tmp_path, monkeypatch):
    p = write_yaml(tmp_path / "a.yaml", dict(VOLUME_DOC))
    assert load_config(p).threads == 1
    monkeypatch.setenv("MATENT_THREADS", "3")
    assert load_config(p).threads == 3
    # an explicit config value beats the environment
    q = write_yaml(tmp_path / "b.yaml", dict(VOLUME_DOC, threads=2))
    assert load_config(q).threads == 2
    assert load_config(q, threads_override=5).threads == 5
    monkeypatch.setenv("MATENT_THREADS", "junk")
    with pytest.raises(ConfigError, match="MATENT_THREADS"):
        load_config(p)


def test_build_potential_families():
    assert build_potential(None, 2) == NcPoly.zero(2)
    q = build_potential({"name": "quadratic", "c": 0.5}, 2)
    assert q.terms[(1, 1)] == 0.5 and q.terms[(2, 2)] == 0.5
    c = build_potential({"name": "coupled", "c": 2.0}, 2)
    assert c.terms[(1, 2)] == -2.0 and c.terms[(1, 1)] == 2.0
    with pytest.raises(ConfigError, match="n = 2"):
        build_potential({"name": "coupled"}, 3)
    with pytest.raises(ConfigError, match="unknown potential"):
        build_potential({"name": "sextic"}, 1)
    t = build_potential({"terms": [{"word": [1, 2], "re": 1.0},
                                   {"word": [2, 1], "re": 1.0}]}, 2)
    assert t.is_self_adjoint()
    with pytest.raises(ConfigError, match="self-adjoint"):
        build_potential({"terms": [{"word": [1, 2], "re": 1.0}]}, 2)


def test_build_target_variants(tmp_path):
    s = build_target({"name": "semicircle", "variance": 1.0, "K": 4})
    assert s.value((1, 1)) == pytest.approx(1.0)
    a = build_target({"name": "arcsine", "R": 2.0, "K": 2})
    assert a.value((1, 1)) == pytest.approx(2.0)
    pair = build_target({"name": "free-semicircle-pair", "K": 2})
    assert pair.n == 2
    path = tmp_path / "t.json"
    path.write_text(s.to_json())
    f = build_target({"file": str(path)})
    assert f.value((1, 1)) == pytest.approx(1.0)
    with pytest.raises(ConfigError, match="unknown target"):
        build_target({"name": "bimodal"})


def test_build_blockmap_default_and_explicit():
    assert build_blockmap(None, 3).groups == (0, 1, 2)
    assert build_blockmap([0, 0, 1], 3).ell == 2


def test_fit_options_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="unknown fit option"):
        cli._fit_options({"momentum": 0.9})
    opts = cli._fit_options({"iterations": 50, "ti": {"nodes": 11, "node_steps": 600}})
    assert opts.iterations == 50
    assert opts.ti.nodes == 11 and opts.ti.node_steps == 600
    with pytest.raises(ConfigError, match="unknown ti option"):
        cli._fit_options({"ti": {"cooling": 3}})


@pytest.mark.parametrize("key", ["observe_stride", "final_stride", "decay_power",
                                 "decay_scale", "average_start", "coeff_bound",
                                 "init_coeffs"])
def test_fit_options_reject_fixed_schedule_keys(key):
    with pytest.raises(ConfigError, match="unknown fit option"):
        cli._fit_options({key: 1})


@pytest.mark.parametrize("key", ["step_scale", "grid_power", "sweeps"])
def test_ti_options_reject_fixed_schedule_keys(key):
    with pytest.raises(ConfigError, match="unknown ti option"):
        cli._fit_options({"ti": {key: 1}})


def test_main_volume_end_to_end(tmp_path):
    cfg = write_yaml(tmp_path / "v.yaml", dict(VOLUME_DOC))
    out = tmp_path / "out"
    assert main(["--config", cfg, "--out", str(out)]) == 0
    lines = (out / "results.jsonl").read_text().splitlines()
    assert len(lines) >= 1
    rec = json.loads(lines[0])
    assert rec["N"] == 3 and "log_volume" in rec
    envelope = json.loads((out / "run.json").read_text())
    assert envelope["config"]["seed"] == 7
    assert len(envelope["config_hash"]) == 64
    tsvs = [f for f in os.listdir(out) if f.endswith(".tsv")]
    assert tsvs


def test_main_is_deterministic_per_seed(tmp_path):
    cfg = write_yaml(tmp_path / "v.yaml", dict(VOLUME_DOC))
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["--config", cfg, "--out", str(out1)]) == 0
    assert main(["--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "results.jsonl").read_bytes() == (out2 / "results.jsonl").read_bytes()
    # seed must actually feed the stochastic runners
    sample_doc = {"kind": "sample", "seed": 1, "K": 2,
                  "model": {"n": 1, "N": 2, "R": 2.0},
                  "chain": {"steps": 200, "burnin": 20, "thin": 5}}
    outs = []
    for i, seed in enumerate((1, 1, 2)):
        cfg_s = write_yaml(tmp_path / f"s{i}.yaml", dict(sample_doc, seed=seed))
        out = tmp_path / f"s{i}"
        assert main(["--config", cfg_s, "--out", str(out)]) == 0
        outs.append((out / "results.jsonl").read_bytes())
    assert outs[0] == outs[1]
    assert outs[0] != outs[2]


def test_main_exit_codes(tmp_path, monkeypatch):
    assert main(["--config", str(tmp_path / "missing.yaml")]) == 2
    bad = write_yaml(tmp_path / "bad.yaml", {"kind": "nope", "seed": 1})
    assert main(["--config", bad]) == 2

    cfg = write_yaml(tmp_path / "v.yaml", dict(VOLUME_DOC))

    def raise_infeasible(c):
        raise InfeasibleTargetError("outside the moment body")

    def raise_estimator(c):
        raise EstimatorError("chain stalled")

    monkeypatch.setitem(cli._RUNNERS, "volume", raise_infeasible)
    assert main(["--config", cfg, "--out", str(tmp_path / "x1")]) == 3
    monkeypatch.setitem(cli._RUNNERS, "volume", raise_estimator)
    assert main(["--config", cfg, "--out", str(tmp_path / "x2")]) == 4


def test_emit_plot_data_empty_table(tmp_path):
    record = cli.RunRecord(
        ExperimentConfig(kind="volume", seed=1, params={}), "0" * 64, "0",
        results=[], tables={"empty": (["a", "b"], [])})
    paths = cli.emit_plot_data(record, str(tmp_path))
    assert paths == [str(tmp_path / "empty.tsv")]
    assert (tmp_path / "empty.tsv").read_text() == "a\tb\n"


def test_float_cells_round_trip():
    assert cli._format_cell(0.1) == "0.1"
    assert float(cli._format_cell(2.0 / 3.0)) == 2.0 / 3.0
    assert cli._format_cell(3) == "3"


TINY_FIT = {"iterations": 4, "steps_per_iter": 24, "discard_per_iter": 8,
            "min_iterations": 2, "final_steps": 120, "final_burnin": 40,
            "ti": {"nodes": 4, "node_burnin": 20, "node_steps": 40}}
TINY_NESTED = {"s_out": 16, "s_in": 16, "chain_burnin": 40, "chain_thin": 2}
PAIR = {"n": 2, "N": 3, "R": 2.0}
SEMI = {"name": "semicircle", "variance": 1.0, "radius": 3.0, "K": 2}
TINY_CHAIN = {"steps": 300, "burnin": 30, "thin": 3}
ORBITAL_KEYS = {"kind", "value", "stderr", "bias_bound", "raw", "kl", "half_shift",
                "self_consistent", "s_out", "s_in"}

# kind config, the expected record keys, and {table: header}
END_TO_END = {
    "orbital": (
        dict(TINY_NESTED, kind="orbital", model=dict(PAIR, potential={"name": "coupled"})),
        ORBITAL_KEYS, {"orbital": "value\tstderr\tbias_bound"}),
    "orbital-sweep": (
        dict(TINY_NESTED, kind="orbital", model=PAIR, couplings=[0.5, 1.0]),
        ORBITAL_KEYS | {"coupling"}, {"orbital": "coupling\tvalue\tstderr\tbias_bound"}),
    "chain-rule": (
        dict(TINY_NESTED, kind="chain-rule", ti=TINY_FIT["ti"],
             model=dict(PAIR, potential={"name": "coupled"})),
        {"kind", "total", "orbital", "conjugated", "residual", "residual_stderr",
         "combined_stderr", "holds"},
        {"chain_rule": "total\torbital\tconjugated\tresidual\tcombined_stderr"}),
    "talagrand": (
        dict(TINY_NESTED, kind="talagrand", model=PAIR, K=2, couplings=[0.5]),
        {"kind", "coupling", "orbital_value", "orbital_stderr", "lhs_free", "lhs_conj",
         "rhs", "rhs_upper", "freeness_gap", "p_tilde", "holds_free", "holds_conj"},
        {"talagrand": "coupling\tlhs_free\tlhs_conj\trhs\trhs_upper\torbital_value\t"
                      "freeness_gap"}),
    "rho": (
        {"kind": "rho", "N": 3, "K": 2, "target": SEMI, "fit": TINY_FIT},
        {"kind", "N", "K", "coeffs", "rho", "dual_value", "log_i", "energy", "residuals",
         "residual_stderr", "tolerances", "converged", "iterations", "chi_value",
         "chi_stderr"},
        {"coeffs": "label\tdegree\tcoeff\tresidual\tstderr\ttolerance",
         "trajectory": "iteration\tresidual_max_scaled"}),
    "chi-tilde": (
        {"kind": "chi-tilde", "sizes": [2, 3], "K": 2, "target": SEMI, "fit": TINY_FIT,
         "reference_density": "semicircle"},
        {"kind", "N", "K", "coeffs", "rho", "dual_value", "log_i", "energy", "residuals",
         "residual_stderr", "tolerances", "converged", "iterations", "value", "stderr",
         "reference"},
        {"chi_tilde": "N\tvalue\tstderr"}),
    "arcsine-demo": (
        {"kind": "arcsine-demo", "N": 4, "R": 2.0, "bins": 8, "chain": TINY_CHAIN},
        {"kind", "N", "R", "m2_over_R2", "m4_over_R4", "expected_m2_over_R2",
         "expected_m4_over_R4", "diagnostics"},
        {"spectrum": "bin_lo\tbin_hi\tcount\tarcsine_density"}),
    "compression-check": (
        {"kind": "compression-check", "N": 3, "window": {"T": 2.0, "R": 1.6, "S": 1.0},
         "potential": {"name": "quadratic", "c": 0.5}, "chain": TINY_CHAIN},
        {"kind", "N", "alpha", "bound", "mean_log_jacobian", "stderr",
         "max_abs_log_jacobian", "bound_satisfied"},
        {"log_jacobian": "sample\tlog_jacobian"}),
}


def test_unknown_top_level_keys_exit_2(tmp_path, capsys):
    # a mistyped key used to be ignored, so the run silently took the default
    doc = dict(VOLUME_DOC, mc_samples=4000)
    with pytest.raises(ConfigError, match=r"unknown volume key\(s\) \['mc_samples'\]"):
        load_config(write_yaml(tmp_path / "v.yaml", doc))
    typo = {"kind": "orbital", "seed": 1, "model": {"n": 2, "N": 3, "R": 2.0},
            "s_outt": 64}
    assert main(["--config", write_yaml(tmp_path / "o.yaml", typo),
                 "--out", str(tmp_path / "o")]) == 2
    assert "s_outt" in capsys.readouterr().err


def test_chain_rule_budget_below_minimum_exits_2(tmp_path):
    doc = {"kind": "chain-rule", "seed": 1, "model": {"n": 2, "N": 3, "R": 2.0},
           "s_out": 8, "s_in": 16, "chain_burnin": 20, "chain_thin": 2}
    assert main(["--config", write_yaml(tmp_path / "c.yaml", doc),
                 "--out", str(tmp_path / "c")]) == 2


def test_unknown_reference_density_exits_2(tmp_path):
    doc = {"kind": "chi-tilde", "seed": 1, "sizes": [2], "K": 2,
           "target": {"name": "semicircle", "radius": 3.0, "K": 2},
           "fit": TINY_FIT, "reference_density": "gaussian"}
    assert main(["--config", write_yaml(tmp_path / "c.yaml", doc),
                 "--out", str(tmp_path / "c")]) == 2
    assert not (tmp_path / "c").exists()


@pytest.mark.filterwarnings("ignore:fit at N")
@pytest.mark.parametrize("case", sorted(END_TO_END))
def test_main_end_to_end_tiny_budgets(tmp_path, case):
    doc, keys, tables = END_TO_END[case]
    out = tmp_path / "out"
    assert main(["--config", write_yaml(tmp_path / "c.yaml", dict(doc, seed=5)),
                 "--out", str(out)]) == 0
    recs = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert len(recs) == len(doc.get("couplings") or doc.get("sizes") or [None])
    for rec in recs:
        assert set(rec) == keys
    for name, header in tables.items():
        assert (out / f"{name}.tsv").read_text().splitlines()[0] == header
    rec = recs[0]
    if case == "rho":
        N = doc["N"]
        assert rec["chi_value"] == pytest.approx(rec["rho"]["value"] / N ** 2 + 0.5 * math.log(N))
        assert rec["chi_stderr"] == pytest.approx(rec["rho"]["stderr"] / N ** 2)
    if case == "chain-rule":
        assert rec["residual"] == pytest.approx(
            rec["total"]["value"] - rec["orbital"]["value"] - rec["conjugated"]["value"])
    if case == "orbital-sweep":
        assert [r["coupling"] for r in recs] == [0.5, 1.0]
    if case == "compression-check":
        assert rec["bound_satisfied"]
        assert len((out / "log_jacobian.tsv").read_text().splitlines()) == 1 + 100
