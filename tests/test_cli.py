import json
import math
import os

import pytest
import yaml

import matent.cli as cli
from matent.cli import (ConfigError, ExperimentConfig, build_blockmap, build_model,
                        build_potential, build_target, config_hash, load_config,
                        main)
from matent.estimates import EstimatorError
from matent.matrices import BlockMap
from matent.maxent import FitOptions, InfeasibleTargetError
from matent.ncpoly import NcPoly
from matent.orbital import OrbitalRequest, _outer_chain
from matent.sampler import MIN_ACCEPTANCE
from matent.streams import substream


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


def test_malformed_yaml_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("kind: volume\nseed: [7, 8\nN: 3\n")
    assert main(["--config", str(bad)]) == 2
    assert "config is not valid YAML" in capsys.readouterr().err


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
    # the config's threads key is the one source, default 1: neither the
    # environment nor a command-line flag is read
    monkeypatch.setenv("MATENT_THREADS", "3")
    p = write_yaml(tmp_path / "a.yaml", dict(VOLUME_DOC))
    assert load_config(p).threads == 1
    q = write_yaml(tmp_path / "b.yaml", dict(VOLUME_DOC, threads=2))
    assert load_config(q).threads == 2
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(q), "--threads", "5"])
    assert exc.value.code == 2


def test_build_potential_families():
    assert build_potential(None, 2) == NcPoly.zero(2)
    q = build_potential({"name": "quadratic", "c": 0.5}, 2)
    assert q.terms[(1, 1)] == 0.5 and q.terms[(2, 2)] == 0.5
    c = build_potential({"name": "coupled", "c": 2.0}, 2)
    assert c.terms[(1, 2)] == -2.0 and c.terms[(1, 1)] == 2.0
    assert build_potential({"name": "zero"}, 2) == NcPoly.zero(2)
    assert build_potential({"name": "quartic", "c": 0.5}, 2).terms == {
        (1, 1, 1, 1): 0.5, (2, 2, 2, 2): 0.5}
    assert build_potential({"name": "tilt", "c": 2.0}, 2).terms == {(1,): 2.0}
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
        cli._options(FitOptions, {"momentum": 0.9}, "fit")
    opts = cli._options(FitOptions, {"iterations": 50, "ti": {"nodes": 11, "node_steps": 600}},
                        "fit")
    assert opts.iterations == 50
    assert opts.ti.nodes == 11 and opts.ti.node_steps == 600
    with pytest.raises(ConfigError, match="unknown ti option"):
        cli._options(FitOptions, {"ti": {"cooling": 3}}, "fit")


@pytest.mark.parametrize("key", ["observe_stride", "final_stride", "decay_power",
                                 "decay_scale", "average_start", "coeff_bound",
                                 "init_coeffs"])
def test_fit_options_reject_fixed_schedule_keys(key):
    with pytest.raises(ConfigError, match="unknown fit option"):
        cli._options(FitOptions, {key: 1}, "fit")


@pytest.mark.parametrize("key", ["step_scale", "grid_power", "sweeps"])
def test_ti_options_reject_fixed_schedule_keys(key):
    with pytest.raises(ConfigError, match="unknown ti option"):
        cli._options(FitOptions, {"ti": {key: 1}}, "fit")


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


def test_separable_sample_draws_exactly(tmp_path):
    # the quartic family X^4 + Y^4 is separable: its blocks are independent
    # one-matrix ensembles, drawn exactly with no chain
    doc = {"kind": "sample", "seed": 3, "K": 2, "chain": TINY_CHAIN,
           "model": dict(PAIR, potential={"name": "quartic"})}
    out = tmp_path / "out"
    assert main(["--config", write_yaml(tmp_path / "q.yaml", doc), "--out", str(out)]) == 0
    [rec] = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert rec["diagnostics"]["step_scale"] == 0.0 and rec["diagnostics"]["retained"] == 100


# configs whose values are out of range; each used to end in a traceback
OUT_OF_RANGE = [
    {"kind": "arcsine-demo", "N": 0},
    {"kind": "compression-check", "N": 0, "window": {"T": 2.0, "R": 1.6, "S": 1.0}},
    {"kind": "sample", "model": {"n": 1, "N": 0, "R": 2.0}},
    {"kind": "hit-rate", "target": {"name": "arcsine", "K": 2}, "K": 4},
    {"kind": "arcsine-demo", "N": 4, "chain": {"steps": "abc"}},
    {"kind": "sample", "model": {"n": 1, "N": 2, "R": 2.0}, "chain": {"steps": 5, "thin": 10}},
    # one sample has no error bar
    {"kind": "sample", "model": {"n": 1, "N": 2, "R": 2.0}, "chain": {"steps": 10, "thin": 10}},
    {"kind": "arcsine-demo", "N": "abc"},
    {"kind": "arcsine-demo", "N": [8]},
    {"kind": "rho", "target": {"name": "arcsine", "K": 2}, "fit": {"iterations": "abc"}},
    # no generator: the potential's constructor would refuse it
    {"kind": "pressure", "n": 0, "N": 2},
    {"kind": "sample", "model": {"n": 0, "N": 2, "R": 2.0}},
    # no moment degree: nothing to report
    {"kind": "sample", "model": {"n": 1, "N": 2, "R": 2.0}, "chain": {"steps": 20}, "K": 0},
    {"kind": "sample", "model": {"n": 1, "N": 2, "R": 2.0}, "chain": {"steps": 20}, "K": -1},
]


def test_main_exit_codes(tmp_path, monkeypatch, capsys):
    assert main(["--config", str(tmp_path / "missing.yaml")]) == 2
    bad = write_yaml(tmp_path / "bad.yaml", {"kind": "nope", "seed": 1})
    assert main(["--config", bad]) == 2
    for i, doc in enumerate(OUT_OF_RANGE):
        capsys.readouterr()
        path = write_yaml(tmp_path / f"r{i}.yaml", dict(doc, seed=1))
        assert main(["--config", path, "--out", str(tmp_path / f"r{i}")]) == 2, doc
        assert "config error" in capsys.readouterr().err

    cfg = write_yaml(tmp_path / "v.yaml", dict(VOLUME_DOC))

    def raise_infeasible(c):
        raise InfeasibleTargetError("outside the moment body")

    def raise_estimator(c):
        raise EstimatorError("chain stalled")

    keys = cli._KINDS["volume"][1]
    monkeypatch.setitem(cli._KINDS, "volume", (raise_infeasible, keys))
    assert main(["--config", cfg, "--out", str(tmp_path / "x1")]) == 3
    monkeypatch.setitem(cli._KINDS, "volume", (raise_estimator, keys))
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
                "self_consistent", "s_out", "s_in", "ess"}

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
        {"kind", "coupling", "orbital_value", "orbital_stderr", "orbital_ess",
         "self_consistent", "lhs_free", "lhs_conj", "rhs", "rhs_upper", "freeness_gap",
         "p_tilde", "holds_free", "holds_conj"},
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
    "hit-rate": (
        {"kind": "hit-rate", "target": {"name": "arcsine", "K": 2}, "N": 2, "K": 2,
         "eps": 0.2, "trials": 10000},
        {"kind", "hits", "trials", "base_log_volume", "log_volume"},
        {"hit_rate": "hits\ttrials\tlog_volume\tstderr"}),
    "compression-check": (
        {"kind": "compression-check", "N": 3, "window": {"T": 2.0, "R": 1.6, "S": 1.0},
         "potential": {"name": "quadratic", "c": 0.5}, "chain": TINY_CHAIN},
        {"kind", "N", "alpha", "bound", "mean_log_jacobian", "stderr",
         "max_abs_log_jacobian", "bound_satisfied"},
        {"log_jacobian": "sample\tlog_jacobian"}),
}


def test_talagrand_record_carries_the_orbital_flag(tmp_path):
    # at TINY_NESTED budgets the outer chain of c (X - Y)^2 at N = 3 with the
    # steep c = 100 accepts no move on any stream (see the orbital tests'
    # stuck chain), and the record says so; a working budget tunes the step
    # down to the coupling, and the same seed's record reads true
    request = OrbitalRequest(build_model(dict(PAIR, potential={"name": "coupled", "c": 100.0})),
                             BlockMap.full(2), **TINY_NESTED)
    chain = _outer_chain(request, substream(1, "talagrand", "100.0"))[1]
    assert chain.acceptance < MIN_ACCEPTANCE
    working = {"s_out": 32, "s_in": 16, "chain_burnin": 400, "chain_thin": 8}
    for budget, flag in ((TINY_NESTED, False), (working, True)):
        doc = dict(budget, kind="talagrand", seed=1, model=PAIR, K=2, couplings=[100.0])
        out = tmp_path / str(flag)
        assert main(["--config", write_yaml(tmp_path / "t.yaml", doc), "--out", str(out)]) == 0
        [rec] = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
        assert rec["self_consistent"] is flag


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


NESTED_TYPOS = {
    # beta is no model key: the potential's scale is the model's temperature
    "model": {"kind": "sample", "model": {"n": 1, "N": 2, "R": 2.0, "betta": 0.5, "beta": 1.0}},
    "semicircle target": {"kind": "rho", "N": 2, "K": 2,
                          "target": {"name": "semicircle", "K": 2, "varience": 4.0}},
    "arcsine target": {"kind": "rho", "N": 2, "K": 2,
                       "target": {"name": "arcsine", "K": 2, "radius": 3.0}},
    "file target": {"kind": "rho", "N": 2, "K": 2, "target": {"file": "t.json", "K": 2}},
    "entries target": {"kind": "rho", "N": 2, "K": 1,
                       "target": {"n": 1, "K": 1, "R": 2.0, "entries": [], "name": "x"}},
    "window": {"kind": "compression-check", "N": 3,
               "window": {"T": 2.0, "R": 1.6, "S": 1.0, "U": 0.5}},
    "potential": {"kind": "pressure", "potential": {"name": "quadratic", "coef": 2.0}},
    "potential term": {"kind": "pressure", "n": 2, "potential": {"terms": [
        {"word": [1, 2], "re": 1.0}, {"word": [2, 1], "real": 1.0}]}},
    "duality-check target": {"kind": "duality-check", "targets": [
        {"target": {"name": "semicircle", "K": 2}, "N": 1, "epsilon": 0.1}]},
}


@pytest.mark.parametrize("section", sorted(NESTED_TYPOS))
def test_unknown_nested_keys_exit_2(tmp_path, capsys, section):
    # a mistyped nested key used to be ignored, so the run took the default
    doc = dict(NESTED_TYPOS[section], seed=1)
    assert main(["--config", write_yaml(tmp_path / "c.yaml", doc),
                 "--out", str(tmp_path / "c")]) == 2
    assert f"unknown {section} key(s)" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


PAIR_K2 = {"name": "free-semicircle-pair", "K": 2}
# values out of range, and moment data from outside the program that does
# not parse or misses a class: each used to end in a traceback (exit 1)
BAD_VALUES = {
    "rho K above the target's": ({"kind": "rho", "N": 2, "K": 3, "target": PAIR_K2}, "K must lie"),
    "rho K 0": ({"kind": "rho", "N": 2, "K": 0, "target": PAIR_K2}, "K must lie"),
    "chi-tilde K above the target's": (
        {"kind": "chi-tilde", "sizes": [2], "K": 3, "target": PAIR_K2}, "K must lie"),
    "duality-check K above the target's": (
        {"kind": "duality-check", "targets": [{"target": PAIR_K2, "N": 2, "K": 3}]}, "K must lie"),
    "rho N 0": ({"kind": "rho", "N": 0, "target": PAIR_K2}, "sizes N must be >= 1"),
    "chi-tilde size not a number": (
        {"kind": "chi-tilde", "sizes": ["four"], "target": PAIR_K2}, "invalid literal"),
    "pressure R 0": ({"kind": "pressure", "N": 2, "R": 0.0}, "R must be positive"),
    "volume R negative": ({"kind": "volume", "N": 2, "R": -1.0}, "R must be positive"),
    "sample bins 0": ({"kind": "sample", "model": {"n": 1, "N": 2, "R": 2.0}, "bins": 0,
                       "chain": {"steps": 20, "burnin": 0, "thin": 1}}, "bins must be >= 1"),
    "talagrand K 8": ({"kind": "talagrand", "model": {"n": 2, "N": 3, "R": 2.0}, "K": 8},
                      "K <= 6"),
    # at K = 0 no word is compared, and both verdicts would hold by construction
    "talagrand K 0": ({"kind": "talagrand", "model": {"n": 2, "N": 3, "R": 2.0}, "K": 0},
                      "1 <= K <= 6, got 0"),
    "rho target misses a class": (
        {"kind": "rho", "N": 2, "target": {"n": 1, "K": 2, "R": 2.0, "entries": [
            {"word": [1, 1], "re": 1.0, "im": 0.0}]}}, "missing 1 classes"),
    "hit-rate target misses a class": (
        {"kind": "hit-rate", "N": 2, "trials": 10, "target": {"n": 1, "K": 2, "R": 2.0, "entries": [
            {"word": [1, 1], "re": 1.0, "im": 0.0}]}}, "missing 1 classes"),
    "missing target file": ({"kind": "rho", "N": 2, "target": {"file": "missing.json"}},
                            "cannot read target file"),
    "entry without im": ({"kind": "rho", "N": 2, "target": {"n": 1, "K": 1, "R": 2.0, "entries": [
        {"word": [1], "re": 0.0}]}}, "KeyError: 'im'"),
    "file entry without im": ({"kind": "rho", "N": 2, "target": {"file": "no-im.json"}},
                              "KeyError: 'im'"),
    # integer values: a fractional float or a boolean is refused, not truncated
    "arcsine-demo N 4.7": ({"kind": "arcsine-demo", "N": 4.7}, "expected an integer, got 4.7"),
    "rho N true": ({"kind": "rho", "N": True, "target": PAIR_K2}, "got True"),
    "rho K 1.5": ({"kind": "rho", "N": 2, "K": 1.5, "target": PAIR_K2}, "got 1.5"),
    "target K 2.5": ({"kind": "rho", "N": 2, "target": dict(PAIR_K2, K=2.5)}, "got 2.5"),
    "chi-tilde size 2.5": ({"kind": "chi-tilde", "sizes": [2.5], "target": PAIR_K2}, "got 2.5"),
    "volume size true": ({"kind": "volume", "sizes": [True]}, "got True"),
    "model n 2.5": ({"kind": "sample", "model": {"n": 2.5, "N": 2, "R": 2.0}}, "got 2.5"),
    "sample bins 2.5": ({"kind": "sample", "model": {"n": 1, "N": 2, "R": 2.0}, "bins": 2.5,
                         "chain": {"steps": 20, "burnin": 0, "thin": 1}}, "got 2.5"),
    "chain steps true": ({"kind": "sample", "model": {"n": 1, "N": 2, "R": 2.0},
                          "chain": {"steps": True}}, "got True"),
    "hit-rate trials 10.5": ({"kind": "hit-rate", "N": 2, "trials": 10.5, "target": PAIR_K2},
                             "got 10.5"),
    "orbital s_out 16.5": ({"kind": "orbital", "model": {"n": 2, "N": 3, "R": 2.0},
                            "s_out": 16.5}, "got 16.5"),
    "orbital groups 0.5": ({"kind": "orbital", "model": {"n": 2, "N": 3, "R": 2.0},
                            "groups": [0, 0.5]}, "got 0.5"),
    "orbital groups miss a group": ({"kind": "orbital", "model": {"n": 2, "N": 3, "R": 2.0},
                                     "groups": [0, 2]}, "do not cover"),
    "fit iterations 2.5": ({"kind": "rho", "N": 2, "target": PAIR_K2,
                            "fit": {"iterations": 2.5}}, "got 2.5"),
    "ti nodes true": ({"kind": "pressure", "N": 2, "ti": {"nodes": True}}, "got True"),
    "potential word 1.5": ({"kind": "pressure", "N": 2, "potential": {"terms": [
        {"word": [1.5], "re": 1.0}]}}, "got 1.5"),
    # potential coefficients: real numbers only, and finite
    "potential re abc": ({"kind": "pressure", "N": 2, "potential": {"terms": [
        {"word": [1, 1], "re": "abc"}]}}, "potential re must be a real number, got 'abc'"),
    "potential im list": ({"kind": "pressure", "N": 2, "potential": {"terms": [
        {"word": [1, 1], "re": 1.0, "im": [1]}]}}, "potential im must be a real number, got [1]"),
    "potential re true": ({"kind": "pressure", "N": 2, "potential": {"terms": [
        {"word": [1, 1], "re": True}]}}, "potential re must be a real number, got True"),
    "potential c nan": ({"kind": "pressure", "N": 2, "potential": {"name": "quadratic",
                                                                   "c": math.nan}},
                        "potential c must be finite, got nan"),
    "potential re inf": ({"kind": "pressure", "N": 2, "potential": {"terms": [
        {"word": [1, 1], "re": math.inf}]}}, "potential re must be finite, got inf"),
    # budgets out of range
    "pressure ti nodes 1": ({"kind": "pressure", "n": 2, "N": 2, "potential": {"terms": [
        {"word": [1, 2, 2, 1], "re": 0.1}]}, "ti": {"nodes": 1}}, "at least 3 path nodes"),
    "pressure ti nodes 2": ({"kind": "pressure", "n": 2, "N": 2, "potential": {"terms": [
        {"word": [1, 2, 2, 1], "re": 0.1}]}, "ti": {"nodes": 2}}, "at least 3 path nodes"),
    "pressure ti node_steps 3": ({"kind": "pressure", "n": 2, "N": 2, "ti": {"node_steps": 3}},
                                 "node_steps >= 4"),
    "rho fit steps_per_iter 0": ({"kind": "rho", "N": 2, "target": PAIR_K2,
                                  "fit": {"steps_per_iter": 0}}, "steps_per_iter"),
    "rho fit iterations 0": ({"kind": "rho", "N": 2, "target": PAIR_K2,
                              "fit": {"iterations": 0}}, "fit needs iterations"),
    "chain-rule chain_thin 0": ({"kind": "chain-rule", "model": {"n": 2, "N": 3, "R": 2.0},
                                 "s_out": 16, "s_in": 16, "chain_thin": 0},
                                "chain_thin >= 1"),
    "chain-rule chain_burnin -5": ({"kind": "chain-rule", "model": {"n": 2, "N": 3, "R": 2.0},
                                    "s_out": 16, "s_in": 16, "chain_burnin": -5},
                                   "chain_burnin >= 0"),
    # sweep lists: a non-empty list of well-formed items, else an error naming the key
    "pressure sizes 5": ({"kind": "pressure", "sizes": 5}, "sizes must be a non-empty list"),
    "pressure sizes []": ({"kind": "pressure", "sizes": []}, "sizes must be a non-empty list"),
    "volume sizes []": ({"kind": "volume", "N": 2, "sizes": []},
                        "sizes must be a non-empty list"),
    "volume without N or sizes": ({"kind": "volume"}, "volume needs a sizes list"),
    "chi-tilde sizes []": ({"kind": "chi-tilde", "sizes": [], "target": PAIR_K2},
                           "sizes must be a non-empty list"),
    "chi-tilde without sizes": ({"kind": "chi-tilde", "target": PAIR_K2},
                                "chi-tilde needs a sizes list"),
    "duality-check targets [5]": ({"kind": "duality-check", "targets": [5]},
                                  "targets: duality-check target must be a mapping, got 5"),
    "duality-check without targets": ({"kind": "duality-check"},
                                      "duality-check needs a targets list"),
    # moment data that MomentSpec takes and validate refuses, and a unit far
    # enough from 1 that MomentSpec refuses it as a second value of class ()
    "entries unit 1 + 1e-10": ({"kind": "rho", "N": 2, "target": {
        "n": 1, "K": 1, "R": 2.0, "entries": [{"word": [], "re": 1 + 1e-10, "im": 0.0},
                                              {"word": [1], "re": 0.0, "im": 0.0}]}},
        "unit moment is"),
    "entries unit 0.5": ({"kind": "rho", "N": 2, "target": {
        "n": 1, "K": 1, "R": 2.0, "entries": [{"word": [], "re": 0.5, "im": 0.0},
                                              {"word": [1], "re": 0.0, "im": 0.0}]}},
        "inconsistent duplicate values for class ()"),
    "entries nan": ({"kind": "rho", "N": 2, "target": {
        "n": 1, "K": 1, "R": 2.0, "entries": [{"word": [1], "re": math.nan, "im": 0.0}]}},
        "non-finite value for (1,)"),
    # values from outside the program that its constructors refuse
    "target variance -1": ({"kind": "rho", "N": 2, "target": {
        "name": "semicircle", "variance": -1, "K": 2}}, "variance must be positive"),
    "chi-tilde reference_variance -1": (
        {"kind": "chi-tilde", "sizes": [2], "target": PAIR_K2,
         "reference_density": "semicircle", "reference_variance": -1},
        "reference_variance must be positive"),
    "compression-check window T < R": (
        {"kind": "compression-check", "N": 3, "window": {"T": 1.0, "R": 2.0, "S": 0.5}},
        "need T > R > S > 0"),
    # real values: no boolean, no infinity, no NaN; each once ran as a number
    # or ended in a quiet null, a wrong exit code or a quadrature failure
    "volume R inf": ({"kind": "volume", "N": 2, "R": math.inf}, "R must be finite, got inf"),
    "volume R true": ({"kind": "volume", "N": 2, "R": True},
                      "R must be a real number, got True"),
    "target variance true": ({"kind": "rho", "N": 2, "target": {
        "name": "semicircle", "variance": True, "K": 2}},
        "target variance must be a real number, got True"),
    "target radius nan": ({"kind": "rho", "N": 2, "target": {
        "name": "semicircle", "radius": math.nan, "K": 2}}, "target radius must be finite"),
    "target R inf": ({"kind": "rho", "N": 2, "target": {"name": "arcsine", "R": math.inf,
                                                        "K": 2}}, "target R must be finite"),
    "rho eps nan": ({"kind": "rho", "N": 2, "eps": math.nan, "target": PAIR_K2},
                    "eps must be finite, got nan"),
    "chi-tilde eps true": ({"kind": "chi-tilde", "sizes": [2], "eps": True, "target": PAIR_K2},
                           "eps must be a real number, got True"),
    "chi-tilde reference_variance inf": (
        {"kind": "chi-tilde", "sizes": [2], "target": PAIR_K2,
         "reference_density": "semicircle", "reference_variance": math.inf},
        "reference_variance must be finite"),
    "duality-check eps inf": ({"kind": "duality-check", "targets": [
        {"target": PAIR_K2, "N": 2, "eps": math.inf}]}, "eps must be finite"),
    "hit-rate eps nan": ({"kind": "hit-rate", "N": 2, "trials": 10, "eps": math.nan,
                          "target": PAIR_K2}, "eps must be finite"),
    "pressure R inf": ({"kind": "pressure", "N": 2, "R": math.inf}, "R must be finite"),
    "arcsine-demo R true": ({"kind": "arcsine-demo", "N": 2, "R": True},
                            "R must be a real number, got True"),
    "sample model R inf": ({"kind": "sample", "model": {"n": 1, "N": 2, "R": math.inf}},
                           "model R must be finite, got inf"),
    "compression-check window T inf": (
        {"kind": "compression-check", "N": 2, "window": {"T": math.inf, "R": 1.6, "S": 1.0}},
        "window T must be finite, got inf"),
    "compression-check window S true": (
        {"kind": "compression-check", "N": 2, "window": {"T": 2.0, "R": 1.6, "S": True}},
        "window S must be a real number, got True"),
    "fit moment_tol inf": ({"kind": "rho", "N": 2, "target": PAIR_K2,
                            "fit": {"moment_tol": math.inf}}, "fit moment_tol must be finite"),
    # generator counts: a positive integer, read where it enters
    "pressure n 0": ({"kind": "pressure", "n": 0, "N": 2}, "n must be >= 1, got 0"),
    "sample model n 0": ({"kind": "sample", "model": {"n": 0, "N": 2, "R": 2.0}},
                         "model n must be >= 1, got 0"),
}

BAD_VALUES.update({
    f"{kind} couplings {label}": (
        {"kind": kind, "model": {"n": 2, "N": 3, "R": 2.0}, "couplings": value}, message)
    for kind in ("orbital", "talagrand")
    for label, value, message in (
        ("0.5", 0.5, "couplings must be a non-empty list, got 0.5"),
        ("[]", [], "couplings must be a non-empty list, got []"),
        ("[abc]", ["abc"], "couplings: a coupling must be a real number, got 'abc'"),
        ("[[1]]", [[1]], "couplings: a coupling must be a real number, got [1]"))})


@pytest.mark.parametrize("case", sorted(BAD_VALUES))
def test_bad_config_values_exit_2(tmp_path, monkeypatch, capsys, case):
    doc, message = BAD_VALUES[case]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no-im.json").write_text(json.dumps(
        {"n": 1, "K": 1, "R": 2.0, "entries": [{"word": [1], "re": 0.0}]}))
    assert main(["--config", write_yaml(tmp_path / "c.yaml", dict(doc, seed=1)),
                 "--out", str(tmp_path / "c")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and message in err
    assert not (tmp_path / "c").exists()


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
def test_non_finite_values_are_written_as_null(tmp_path):
    # fewer than 10 states per coefficient: the one iterate takes no Newton
    # step, and the dual's bias bound is infinite
    doc = {"kind": "rho", "seed": 1, "N": 2, "target": {"name": "free-semicircle-pair"},
           "fit": {"iterations": 1, "steps_per_iter": 10, "final_steps": 40,
                   "final_burnin": 20, "discard_per_iter": 4}}
    out = tmp_path / "out"
    assert main(["--config", write_yaml(tmp_path / "c.yaml", doc), "--out", str(out)]) == 0

    def reject(name):
        raise ValueError(f"non-JSON constant {name}")

    [rec] = [json.loads(line, parse_constant=reject)
             for line in (out / "results.jsonl").read_text().splitlines()]
    json.loads((out / "run.json").read_text(), parse_constant=reject)
    assert rec["dual_value"]["bias_bound"] is None
    assert rec["converged"] is False


# sweeps whose points run in worker processes when threads > 1
SWEEPS = {
    "chi-tilde": {"kind": "chi-tilde", "sizes": [2, 3, 4], "K": 2, "target": SEMI,
                  "fit": TINY_FIT},
    "orbital": dict(TINY_NESTED, kind="orbital", model=PAIR, couplings=[0.5, 1.0]),
    "talagrand": dict(TINY_NESTED, kind="talagrand", model=PAIR, K=2, couplings=[0.5, 1.0]),
    # X^2 + Y^2 + 0.15 (X^2 Y^2 + Y^2 X^2) has no exact route: TI at each size
    "pressure": {"kind": "pressure", "n": 2, "R": 2.0, "sizes": [2, 3], "ti": TINY_FIT["ti"],
                 "potential": {"terms": [{"word": w, "re": c} for w, c in (
                     ([1, 1], 1.0), ([2, 2], 1.0), ([1, 1, 2, 2], 0.15), ([2, 2, 1, 1], 0.15))]}},
    "duality-check": {"kind": "duality-check", "fit": TINY_FIT, "targets": [
        {"target": SEMI, "N": 3, "K": 2}, {"target": PAIR_K2, "N": 2, "K": 2}]},
}


# a small config of each kind that END_TO_END leaves out
OTHER_KINDS = {
    "volume": VOLUME_DOC,
    "sample": {"kind": "sample", "K": 2, "chain": TINY_CHAIN,
               "model": dict(PAIR, potential={"name": "quadratic", "c": 0.5})},
    "fit": {"kind": "fit", "N": 2, "K": 2, "target": PAIR_K2, "fit": TINY_FIT},
    "pressure": SWEEPS["pressure"],
    "duality-check": SWEEPS["duality-check"],
}


def test_every_kind_has_a_table_case():
    kinds = {doc["kind"] for doc, _, _ in END_TO_END.values()}
    assert kinds | {doc["kind"] for doc in OTHER_KINDS.values()} == set(cli.EXPERIMENT_KINDS)


@pytest.mark.parametrize("case", sorted(OTHER_KINDS))
def test_table_cells_parse_as_floats(tmp_path, case):
    out = tmp_path / "out"
    assert main(["--config", write_yaml(tmp_path / "c.yaml", dict(OTHER_KINDS[case], seed=5)),
                 "--out", str(out)]) == 0
    assert list(out.glob("*.tsv"))
    _assert_table_cells_parse(out)


@pytest.mark.filterwarnings("ignore:fit at N")
@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_records_do_not_depend_on_threads(tmp_path, case):
    outs = []
    for threads in (1, 2):
        doc = dict(SWEEPS[case], seed=5, threads=threads)
        out = tmp_path / str(threads)
        assert main(["--config", write_yaml(tmp_path / "c.yaml", doc), "--out", str(out)]) == 0
        outs.append((out / "results.jsonl").read_bytes())
    assert outs[0] == outs[1]


# the kinds whose table is its records' columns: (config, table)
RECORD_TABLES = {
    "volume": (OTHER_KINDS["volume"], "volume"),
    "chi-tilde": (END_TO_END["chi-tilde"][0], "chi_tilde"),
    "pressure": (SWEEPS["pressure"], "pressure"),
    "orbital": (SWEEPS["orbital"], "orbital"),
    "talagrand": (SWEEPS["talagrand"], "talagrand"),
}


@pytest.mark.parametrize("case", sorted(RECORD_TABLES))
def test_record_tables_are_their_records_columns(tmp_path, case):
    # each row is one record's values under the header, in record order
    doc, name = RECORD_TABLES[case]
    out = tmp_path / "out"
    assert main(["--config", write_yaml(tmp_path / "c.yaml", dict(doc, seed=5)),
                 "--out", str(out)]) == 0
    header, *rows = [line.split("\t") for line in (out / f"{name}.tsv").read_text().splitlines()]
    recs = [json.loads(line) for line in (out / "results.jsonl").read_text().splitlines()]
    assert rows and rows == [[cli._format_cell(r[k]) for k in header] for r in recs]


def _assert_table_cells_parse(out):
    # every cell of every table but the label and word columns is a number
    # that float() reads back (numpy 2's repr of a float names its type)
    for path in out.glob("*.tsv"):
        header, *rows = [line.split("\t") for line in path.read_text().splitlines()]
        for row in rows:
            assert len(row) == len(header)
            for name, cell in zip(header, row):
                if name not in ("label", "word"):
                    float(cell)


@pytest.mark.filterwarnings("ignore:fit at N")
@pytest.mark.parametrize("case", sorted(END_TO_END))
def test_main_end_to_end_tiny_budgets(tmp_path, case):
    doc, keys, tables = END_TO_END[case]
    out = tmp_path / "out"
    assert main(["--config", write_yaml(tmp_path / "c.yaml", dict(doc, seed=5)),
                 "--out", str(out)]) == 0
    _assert_table_cells_parse(out)
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
