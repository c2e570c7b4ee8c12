"""perfbench's tracer wraps weylkit's public names and puts them back.

A traced name that is renamed or removed in src/ makes ``install`` raise, so
it fails here instead of in a traced benchmark run."""

import importlib.util
import json
import pathlib

import pytest

from weylkit import cli, commpoly, findim, homology, linalg_fp, localring, norm
from weylkit import presentations, weylalg

TRACER = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = (cli, commpoly, findim, homology, linalg_fp, localring, norm, presentations, weylalg)
CLASSES = (commpoly.CommPoly, presentations.Presentation, findim.FinDimAlgebra)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    return {(owner, name): value for owner in MODULES + CLASSES for name, value in vars(owner).items()}


def test_tracer_install_and_uninstall_restore_the_originals():
    before = bindings()
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        wrapped = [
            vars(findim.FinDimAlgebra)["elements"],
            vars(findim.FinDimAlgebra)["two_sided_ideal"],
            commpoly.exact_div,
            norm.left_mult_matrix,
            weylalg.localized_weyl,
            vars(commpoly.CommPoly)["__mul__"],
            vars(presentations.Presentation)["multiply"],
        ]
        assert all(hasattr(f, "__wrapped__") for f in wrapped)
        rep, code = cli.run(cli.parse_config(
            '{"p": 2, "n": 1, "command": "localring", "params": {"preset": "T2"}}'
        ))
        assert code == 0
        assert tracer.calls["cli.run"] == 1
        assert tracer.calls["localring.jacobson_radical"] >= 1
    finally:
        tracer.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())


@pytest.mark.parametrize("p,n", [(3, 1), (2, 2)])
def test_norm_op_passes_through_det_poly_once(p, n):
    """The benchmark's norm metrics read the calls of ``norm.det_poly``: one
    p^n x p^n determinant per norm, its size taken from the first argument."""
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        rep, code = cli.run(cli.parse_config(json.dumps(
            {"p": p, "n": n, "command": "norm", "element": "g1*g2 + 2*g2^2 + 1"})))
    finally:
        tracer.uninstall()
    assert code == 0
    assert tracer.calls["norm.det_poly"] == 1
    assert tracer.counts["norm.det_matrix_dim_sum"] == p**n


def test_multiply_caches_every_top_level_pair():
    """The tracer calls a multiply warm when every pair of top-level
    monomials is a key of ``_mono_mul_cache``, so each engine must cache the
    products it forms under that key, a commutator's two products too."""
    for P in (weylalg.weyl_presentation(3, 2).presentation, weylalg.localized_weyl(3, 2),
              weylalg.boundary_chart_presentation(3, 2).presentation):
        a = P.poly({(2, 1, 0, 3): 1, (-1 if P.invertible == 0 else 1, 0, 2, 1): 2})
        b = P.poly({(0, 3, 1, 1): 1, (1, 1, 1, 0): 1, (0, 0, 0, 0): 2})
        P.multiply(a, b)
        assert all((ma, mb) in P._mono_mul_cache for ma in a.terms for mb in b.terms)
        # a commutator on a fresh copy caches both orders of every pair
        Q = presentations.Presentation(P.names, P.p, P.relations, P.weights, P.invertible)
        Q.commutator(a, b)
        assert all((ma, mb) in Q._mono_mul_cache and (mb, ma) in Q._mono_mul_cache
                   for ma in a.terms for mb in b.terms)
