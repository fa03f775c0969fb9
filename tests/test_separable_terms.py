"""A separable field's spatial factor is evaluated once per FE space.

For f = tau(t) g(x) every time coefficient of a slice is a multiple
mu * g of the one spatial factor g.  ``build_fully_discrete`` hands the
FE layer those coefficients as their terms ``(mu, g)`` (``XVal.term``),
with one g per field (``Field.profile.fn``), so each projection stack (a
round's mesh group of the spatial greedy or of the slice
reprojection) evaluates g once, and
``global_error`` samples f through one ``Field.sampler`` per distinct
slice space.  The values of a term are ``mu * g(points)``, those of the
coefficient itself, so every output must keep the bytes of a build
made of one-function calls: a greedy per coefficient, a ``fem_project``
per coefficient onto its slice mesh and a per-slice error loop, kept
here as the reference.  The counting test pins the saving itself.
"""

import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from stgreedy import fem, spacetime
from stgreedy.fem import fem_project, greedy_space
from stgreedy.fields import DomainSpec, make_test_field
from stgreedy.meshnd import initial_mesh, overlay
from stgreedy.polyspace import as_slicefn
from stgreedy.spacetime import FullyDiscreteFn, build_fully_discrete
from stgreedy.xvalued import budget_rows, row_blocks

from helpers import projection_indicators

SETTINGS = settings(max_examples=25, deadline=None, database=None)
SEMINORM = 1.0          # the estimate is not under test; given, it is fast

# (family, params per dimension, eps per dimension); 2-D stays coarse
FAMILIES = [
    ("tensor-singular", {1: [0.25], 2: [0.25]},
     {1: (0.1, 0.05, 0.02), 2: (0.2, 0.1, 0.05)}),
    # a singular point off the mesh's vertices
    ("space-power", {1: [0.5, 0.3], 2: [0.5, 0.3, 0.6]},
     {1: (0.1, 0.05, 0.02), 2: (0.2, 0.1, 0.07)}),
    ("time-power", {1: [0.25], 2: [0.25]},
     {1: (0.1, 0.05, 0.02), 2: (0.2, 0.1, 0.05)}),
]


def traced_time_greedy(f, eps, r1, r2):
    """``build_fully_discrete`` and the time greedy result it used."""
    seen = {}
    real = spacetime.greedy_time

    def greedy_time(*args, **kwargs):
        seen["time"] = real(*args, **kwargs)
        return seen["time"]

    with mock.patch.object(spacetime, "greedy_time", greedy_time):
        part, fd, rep = build_fully_discrete(
            f, eps, r1, r2, time_cache={("time_seminorm", r1): SEMINORM})
    return part, fd, rep, seen["time"]


def reference_global_error(f, fd):
    """||f - F|| slice by slice, f sampled afresh on every row block."""
    fn = as_slicefn(f)
    part = fd.partition.time
    total = 0.0
    for i, cell in enumerate(part.cells):
        ts, wt = fn.quad(*part.interval(cell))
        basis, cols, pts, wx = fd.slice_parts(i)
        w_mat = basis.eval(ts)
        err2 = np.concatenate([
            ((f.sample(ts[lo:hi], pts) - w_mat[lo:hi] @ cols) ** 2) @ wx
            for lo, hi in row_blocks(len(ts), budget_rows(len(pts)))])
        total += float(wt @ err2)
    return math.sqrt(max(total, 0.0))


def reference_build(f, eps, r2, gt):
    """The spatial step of a build as one-function calls on the pieces
    of the time greedy ``gt``: (slice meshes, projections per slice,
    errors per slice, error_space_step)."""
    n = f.domain.n
    budget = eps / 2.0
    norms = [[c.norm(2) for c in piece.coeffs] for piece in gt.pieces]
    total_mass = float(np.sqrt((np.array(norms) ** 2).sum()))
    meshes, fems, errors, err_sq = [], [], [], 0.0
    for piece, ws in zip(gt.pieces, norms):
        slice_mesh = None
        for coeff, w in zip(piece.coeffs, ws):
            if total_mass <= 1e-14 or w <= 1e-12 * total_mass:
                mesh = initial_mesh(n)
            else:
                mesh = greedy_space(coeff.at_points, r2,
                                    budget * w / total_mass, n=n)[0]
            slice_mesh = mesh if slice_mesh is None else \
                overlay(slice_mesh, mesh)
        row, errs = [], []
        for coeff in piece.coeffs:
            proj = fem_project(coeff.at_points, slice_mesh, r2)
            eta = projection_indicators(proj, coeff.at_points)
            row.append(proj)
            errs.append(float(np.sqrt((eta ** 2).sum())))
        err_sq += float(np.sum(np.array(errs) ** 2))
        meshes.append(slice_mesh)
        fems.append(row)
        errors.append(errs)
    return meshes, fems, errors, float(np.sqrt(err_sq))


@SETTINGS
@given(st.integers(0, len(FAMILIES) - 1), st.sampled_from([1, 2]),
       st.sampled_from([1, 2]), st.sampled_from([2, 3]), st.integers(0, 2))
def test_separable_builds_keep_the_bytes_of_single_projections(
        which, n, r1, r2, k):
    name, params, epss = FAMILIES[which]
    f = make_test_field(name, params[n], DomainSpec(n=n))
    eps = epss[n][k]
    part, fd, rep, gt = traced_time_greedy(f, eps, r1, r2)
    meshes, fems, errors, err_space = reference_build(f, eps, r2, gt)
    assert [m.key for m in part.slice_meshes] == [m.key for m in meshes]
    for i, (got, want) in enumerate(zip(fd.coeff_fems, fems)):
        assert [x.dofs.tobytes() for x in got] == \
            [x.dofs.tobytes() for x in want]
        assert [e.hex() for e in rep["per_slice"][i]["errors_per_j"]] == \
            [e.hex() for e in errors[i]]
    ref_fd = FullyDiscreteFn(fd.partition, fd.bases, fems)
    assert rep["error_space_step"].hex() == err_space.hex()
    assert rep["global_error"].hex() == \
        reference_global_error(f, ref_fd).hex()
    assert rep["error_time_step"].hex() == gt.global_error(p=2).hex()
    assert rep["total_cardinality"] == sum(m.size for m in meshes)


def counted_build(monkeypatch, f, epss, r1, r2=2):
    """Run ``build_fully_discrete`` over ``epss`` through one time cache.

    Returns (calls, stacks, spaces): the sizes of f's spatial factor
    calls; the number of terms of each ``fem._project_stack`` call, by
    the ``spacetime.greedy_spaces`` call that made it: the slice
    reprojections (``"build"``, all deltas inf) or the spatial greedies
    (``"greedy"``); and the distinct slice spaces summed over the builds.
    """
    calls, stacks, callers = [], {"greedy": [], "build": []}, []
    space_part = f.space_part
    real_spaces, real_stack = spacetime.greedy_spaces, fem._project_stack

    def counted_space_part(*xs):
        calls.append(len(xs[0]))
        return space_part(*xs)

    def greedy_spaces(terms, r2, deltas, *args, **kwargs):
        callers.append("build" if all(d == math.inf for d in deltas)
                       else "greedy")
        try:
            return real_spaces(terms, r2, deltas, *args, **kwargs)
        finally:
            callers.pop()

    def project_stack(space, terms):
        stacks[callers[-1]].append(len(terms))
        return real_stack(space, terms)

    monkeypatch.setattr(f, "space_part", counted_space_part)
    monkeypatch.setattr(spacetime, "greedy_spaces", greedy_spaces)
    monkeypatch.setattr(fem, "_project_stack", project_stack)
    cache, spaces = {}, 0
    for eps in epss:
        _, fd, _ = build_fully_discrete(f, eps, r1, r2, time_cache=cache)
        spaces += len({id(fems[0].space) for fems in fd.coeff_fems})
    return calls, stacks, spaces


def test_spatial_factor_is_evaluated_once_per_space(monkeypatch):
    f = make_test_field("tensor-singular", [0.25], DomainSpec(n=2))
    calls, stacks, spaces = counted_build(monkeypatch, f, [0.05], 2)
    greedy, build = stacks["greedy"], stacks["build"]
    # one call per greedy (round, group), per reprojection stack and per
    # distinct slice space, plus the field's grid
    assert len(calls) == len(greedy) + len(build) + spaces + 1
    # a group or stack of several multiples of g calls it once, where
    # each of its terms called it before
    assert max(greedy) > 1 and max(build) > 1
    assert len(calls) < sum(greedy) + sum(build) + spaces


def test_a_sweep_evaluates_its_factor_once_per_space(monkeypatch):
    # space-power constant in time: with r1 = 2 each slice's second
    # coefficient is about 0 and is projected onto its slice's mesh
    f = make_test_field("space-power", [0.5, 0.3], DomainSpec(n=1))
    calls, stacks, spaces = counted_build(monkeypatch, f,
                                          [0.1, 0.05, 0.025, 0.0125], 2)
    greedy, build = stacks["greedy"], stacks["build"]
    assert build and greedy
    # the grid values are computed once per field, so once per sweep
    assert len(calls) == len(greedy) + len(build) + spaces + 1
