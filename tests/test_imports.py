"""Import hygiene: every name a module imports is used or re-exported,
every name a module exports exists, every private module-level name is
used, only the one dispatcher drives a chain engine, and the command line loads no test-only dependency and computes
nothing while it loads; the Gauss-Legendre rules it builds later import
nothing and take memory linear in their node count, Mehta's remainder
series takes no memory that grows with its length, and an exact final run
holds none of its draws."""

import ast
import importlib
import os
import pathlib
import subprocess
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from matent import maxent, sampler
from matent.matrices import haar_unitary_batch, hermitize
from matent.ncpoly import NcPoly
from matent.streams import substream

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "matent"


def _unused_imports(path: pathlib.Path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__":
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used | exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_all_exports_resolve(path):
    module = importlib.import_module(
        "matent" if path.stem == "__init__" else f"matent.{path.stem}")
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def _private_definitions(tree: ast.Module):
    """(name, node) of every private module-level function, class and constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [t.id for t in (node.targets if isinstance(node, ast.Assign)
                                      else [node.target]) if isinstance(t, ast.Name)]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _references(node: ast.AST):
    """Every name the subtree reads: bare names, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_no_unreferenced_private_names():
    # a private helper that loses its last caller is dead code; a reference
    # inside its own definition (recursion) does not count
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    counts = Counter(ref for tree in trees.values() for ref in _references(tree))
    dead = [f"{file}: {name} (line {node.lineno})"
            for file, tree in trees.items() for name, node in _private_definitions(tree)
            if counts[name] == Counter(_references(node))[name]]
    assert dead == []


def test_only_draw_drives_a_chain_engine():
    # one place decides how a chain burns in, tunes and runs: outside the
    # engine's own methods, sampler._draw is the only caller of these
    driven = {"tune", "run", "reset_counters"}
    allowed = {("sampler.py", "ChainEngine"), ("sampler.py", "_draw")}
    calls = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = getattr(node, "name", "?")
            if (path.name, name) in allowed:
                continue
            calls += [f"{path.name}: {name} (line {sub.lineno})"
                      for sub in ast.walk(node) if isinstance(sub, ast.Call)
                      and isinstance(sub.func, ast.Attribute) and sub.func.attr in driven]
    assert calls == []


def test_no_function_anneals_in_beta():
    # log I steps along the potential from its exactly solvable part, so no
    # chain in the package runs at an inverse temperature other than 1
    calls = [f"{path.name}: {getattr(node, 'name', '?')} (line {sub.lineno})"
             for path in sorted(SRC.glob("*.py")) for node in ast.parse(path.read_text()).body
             for sub in ast.walk(node) if isinstance(sub, ast.Call)
             and isinstance(sub.func, ast.Attribute) and sub.func.attr == "set_beta"]
    assert calls == []


def test_cli_import_loads_no_scipy():
    # scipy is a test dependency only; the runtime needs numpy and pyyaml
    code = ("import sys, matent.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_process_pool():
    # the worker pool is imported by the parallel map only when it forks, so a
    # one-thread run does not pay for concurrent.futures and multiprocessing
    code = ("import sys, matent.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('concurrent', 'multiprocessing')))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_cli_import_builds_no_quadrature():
    # loading the command line is setup time: no Gauss-Legendre rule is built
    # (the exact routes build theirs on their first solve), so the cached
    # rule table is still empty after a fresh import
    code = ("import matent.cli, matent.sampler as s; "
            "info = s._gauss_legendre.cache_info(); print(info.currsize, info.misses)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["0", "0"]


def test_quadrature_imports_nothing():
    # building a rule is numpy only: after the command line is loaded, the
    # exact routes' first solve imports no module (scipy is test-only)
    code = ("import sys, matent.cli, matent.sampler as s; before = set(sys.modules); "
            "s._gauss_legendre(301); print(sorted(set(sys.modules) - before))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_quadrature_memory_is_linear_in_nodes():
    # a rule is built node by node next to x = 1 and term by term elsewhere,
    # so no (nodes x terms) block exists: the 300- and 600-node rules of a
    # first solve peak within 64 kB together, 19,200 nodes within 24 floats
    # per node (the uncached builder, so the cache cannot hide the work)
    build = sampler._gauss_legendre.__wrapped__
    tracemalloc.start()
    try:
        rules = [build(300), build(600)]
        first = tracemalloc.get_traced_memory()[1]
        del rules
        tracemalloc.reset_peak()
        build(19200)
        large = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first <= 64 * 1024
    assert large <= 24 * 8 * 19200


def test_mehta_remainder_memory_does_not_grow_with_its_series():
    # the Gaussian pair X^2 + Y^2 - 0.3 (XY + YX) at N = 32, R = 6 has s of
    # about 691, so the remainder's series runs to about 1,750 terms; their
    # powers of the nodes come in column blocks, so no (nodes x terms) array
    # exists and the whole log I peaks within 4 MB (36 MB in one block)
    pot = NcPoly(2, {(1, 1): 1.0, (2, 2): 1.0, (1, 2): -0.3, (2, 1): -0.3})
    model = sampler.GibbsModel(2, 32, 6.0, pot)
    tracemalloc.start()
    try:
        est = sampler._mehta_log_I(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est is not None
    assert peak <= 4 * 2 ** 20


def test_exact_final_run_memory_does_not_hold_its_draws():
    # free-pair-4's fitted model at N = 16 draws exactly; a state takes
    # n N^2 16 = 8 kB, so the 10,000 states of final_steps 20000 would take
    # 80 MB. They are measured a batch at a time and dropped: the run peaks
    # within 3 MB, and each further measured state adds at most 256 bytes (its
    # scalar series in pooled_mean), not 8 kB
    basis = maxent.build_dual_basis(2, 2)
    lam = [0.0, 0.0, 0.474609, 0.0, 0.474609]
    model = sampler.GibbsModel(2, 16, 2.0, maxent.potential_from_coeffs(basis, lam))
    peaks = []
    for steps in (10000, 20000):
        tracemalloc.start()
        try:
            _, _, energy, final = maxent._final_run(model, lam,
                                                    maxent._BasisMeasurer(basis), steps,
                                                    3000, substream(1, "final-memory"))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert energy.count == steps // 2 and final["final_acceptance"] < 1.0
    assert peaks[1] <= 3 * 2 ** 20
    assert peaks[1] - peaks[0] <= 256 * 5000


def test_exact_chain_memory_is_its_sample_array():
    # a Gaussian model's exact draws, X^2 among them, are copied into the
    # preallocated (n, S, N, N) array batch by batch, as they come: the run
    # peaks below 1.5 times that array, where a list of the batches and its
    # concatenated copy would take twice it. A separable model that is not
    # Gaussian holds only its spectra beyond its batches, but its quartic
    # energies take the powers of the whole array: below 3.5 times it, with
    # the samples that its spectra and per-batch Haar unitaries give, to the bit
    gaussian = sampler.GibbsModel(2, 16, 2.0, 0.47 * (NcPoly.from_word(2, (1, 1))
                                                      + NcPoly.from_word(2, (2, 2))))
    square = sampler.GibbsModel(1, 16, 2.0, NcPoly.from_word(1, (1, 1)))
    one = sampler.GibbsModel(1, 16, 2.0, NcPoly(1, {(1, 1): 1.0, (1, 1, 1, 1): 0.1}))
    pair = sampler.GibbsModel(2, 16, 2.0, NcPoly(2, {(1, 1, 1, 1): 1.0, (2, 2, 2, 2): 1.0}))
    for model, count, bound in ((gaussian, 2000, 1.5), (square, 4000, 1.5), (one, 4000, 3.5),
                                (pair, 2000, 3.5)):
        tracemalloc.start()
        try:
            samples, diag = sampler.mcmc_chain(model, count, 0, 1, substream(1, "chain-memory"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert samples.shape == (model.n, count, 16, 16) and diag.step_scale == 0.0
        assert peak < bound * samples.nbytes, peak / samples.nbytes
        if bound < 3.5:
            continue
        rng = substream(1, "chain-memory")
        spectra = [sampler._ExactSpectra(b).draw(count, rng)[0] for b in sampler._blocks(model)]
        size = sampler.DRAW_BUFFER_BYTES // (16 * model.n * 16 * 16)
        whole = np.empty_like(samples)
        for lo in range(0, count, size):
            for i, lam in enumerate(spectra):
                us = haar_unitary_batch(len(lam[lo:lo + size]), 16, rng)
                whole[i, lo:lo + size] = hermitize((us * lam[lo:lo + size, None, :])
                                                   @ np.conj(np.swapaxes(us, -1, -2)))
        assert np.array_equal(samples, whole)


def test_exact_final_run_imports_no_fft():
    # free-pair-4's final run at its fitted lambda: Geyer's cut on i.i.d.
    # draws comes within a few lags, so pooled_mean sums them directly and
    # numpy.fft, which adds to peak memory, is never loaded
    code = ("import sys, numpy as np; from matent import maxent, sampler; "
            "from matent.streams import substream; "
            "basis = maxent.build_dual_basis(2, 2); "
            "lam = np.array([-3.788949766375646e-17, -3.788949766375646e-17, "
            "0.47460993639500665, -1.6458307778405343e-32, 0.47460993639500665]); "
            "model = sampler.GibbsModel(2, 4, 2.0, maxent.potential_from_coeffs(basis, lam)); "
            "out = maxent._final_run(model, lam, maxent._BasisMeasurer(basis), 20000, 3000, "
            "substream(1, 'final-fft')); "
            "print(out[2].count, out[3]['final_acceptance'] < 1.0, 'numpy.fft' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout.split() == ["10000", "True", "False"]
