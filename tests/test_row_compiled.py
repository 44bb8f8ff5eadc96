"""The compiled row path: ``calibrate_row`` generated per calibrator layout,
the row plan's kernels generated per lattice shape and kind, and the
one place the package compiles code."""

import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monolattice import (
    CalibratorSet,
    Dataset,
    FeatureKind,
    FeatureSpec,
    InterpolationKind,
    LatticeShape,
    MissingPolicy,
    Model,
    evaluate,
)
from monolattice import calibrators, interpolation
from monolattice.calibrators import OTHER_CATEGORY, _row_binding, _row_calibration
from monolattice.interpolation import ROW_NUMPY_MIN_VERTICES, _row_kernel

SRC = Path(__file__).resolve().parents[1] / "src" / "monolattice"
CATEGORIES = ["a", "b", "c", "d"]
BIG_D = ROW_NUMPY_MIN_VERTICES.bit_length() - 1  # the fewest dimensions of a numpy-pass cell


def closure(fn) -> dict:
    """The values a function's closure binds, by name."""
    return {name: cell.cell_contents for name, cell in zip(fn.__code__.co_freevars, fn.__closure__)}


def layout_of(cs: CalibratorSet) -> tuple:
    return tuple(_row_binding(cal)[0] for cal in cs.calibrators)


def shapes():
    """Lattice shapes on each kernel: one cell or many, below and from
    ``ROW_NUMPY_MIN_VERTICES`` cell vertices."""
    small_cells = st.lists(st.integers(2, 4), min_size=1, max_size=4)
    return st.one_of(
        st.integers(1, BIG_D - 1).map(lambda D: [2] * D),  # one cell, straight-line kernel
        st.integers(BIG_D, BIG_D + 1).map(lambda D: [2] * D),  # one cell, numpy pass
        small_cells.filter(lambda s: max(s) > 2),  # many cells, straight-line kernel
        st.integers(0, BIG_D - 1).map(lambda d: [2] * d + [3] + [2] * (BIG_D - 1 - d)),  # gather
    )


@st.composite
def spec_for(draw, d, size):
    """A feature on an axis of ``size`` vertices: any missing policy its
    axis allows, continuous or categorical, with or without OTHER."""
    missing = draw(st.sampled_from(
        [MissingPolicy.NONE, MissingPolicy.CALIBRATED] + ([MissingPolicy.VERTEX] if size >= 3 else [])
    ))
    if draw(st.booleans()):
        return FeatureSpec(f"f{d}", kind=FeatureKind.CATEGORICAL, size=size, missing=missing,
                           allow_unseen=draw(st.booleans()))
    return FeatureSpec(f"f{d}", size=size, keypoints=draw(st.integers(2, 5)), missing=missing)


def values_for(spec, cal, rng, n):
    """Values that the feature places: -0.0, knots, the end knots and the
    floats just past them, inner values; categories, the literal OTHER
    text, unseen text; missing values where the feature has a policy."""
    pool = []
    if spec.kind is FeatureKind.CONTINUOUS:
        lo, hi = float(cal.knots[0]), float(cal.knots[-1])
        pool += [-0.0, lo, hi, math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf),
                 hi + 1.0, float(rng.choice(cal.knots)), str(lo + 0.5 * (hi - lo)),
                 *(lo + rng.random(3) * (hi - lo)).tolist()]
    else:
        pool += list(cal.categories)
        if cal.other_index is not None:
            pool += [OTHER_CATEGORY, "never seen", 1.0, "nan"]  # NaN text is a category here
    if spec.missing is not MissingPolicy.NONE:
        pool += [None, math.nan] + (["nan"] if spec.kind is FeatureKind.CONTINUOUS else [])
    return [pool[i] for i in rng.integers(len(pool), size=n)]


@st.composite
def compiled_models(draw):
    """A model on a drawn shape and layout with random monotone calibrator
    parameters (end outputs on the axis ends, so values past the last knot
    reach the top) and theta with -0.0 entries, rows of placeable values,
    and a ``kind`` override."""
    sizes = draw(shapes())
    specs = [draw(spec_for(d, m)) for d, m in enumerate(sizes)]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = [
        list(rng.choice(CATEGORIES, 12)) if s.kind is FeatureKind.CATEGORICAL
        else (rng.random(12) * 10.0 - 5.0).tolist()
        for s in specs
    ]
    cals = []
    for spec, cal in zip(specs, CalibratorSet.fit(specs, columns, rng.random(12)).calibrators):
        top = spec.axis_top
        points = np.sort(rng.choice([0.0, top, *(rng.random(4) * top)], len(cal.points)))
        if spec.kind is FeatureKind.CONTINUOUS:
            points[0], points[-1] = 0.0, top
            changes = {"outputs": points}
        else:
            changes = {"values": points}
        if spec.missing is MissingPolicy.CALIBRATED:
            changes["missing_value"] = float(rng.choice([0.0, 1.0, rng.random()]) * (spec.size - 1))
        cals.append(replace(cal, **changes))
    cs = CalibratorSet(cals)
    shape = LatticeShape(sizes)
    theta = rng.standard_normal(shape.num_parameters)
    theta[rng.random(len(theta)) < 0.3] = -0.0
    kind = draw(st.sampled_from(list(InterpolationKind)))
    model = Model(cs, theta, kind=kind)
    n = draw(st.integers(1, 6))
    cols = [values_for(spec, cal, rng, n) for spec, cal in zip(specs, cs.calibrators)]
    rows = [[col[i] for col in cols] for i in range(n)]
    override = draw(st.sampled_from([None, "multilinear", "simplex", InterpolationKind.SIMPLEX]))
    return model, rows, override


def outcome(score):
    """A score's hex (-0.0 and 0.0 differ), or its error's type and message."""
    try:
        return score().hex()
    except Exception as e:  # compared, not swallowed
        return type(e).__name__, str(e)


def oracle(model, row, kind):
    """Each calibrator's scalar calibrate, then the scalar evaluate."""
    cals = model.calibrators.calibrators
    return outcome(lambda: evaluate(
        model.theta.tolist(), model.shape, [c.calibrate(v) for c, v in zip(cals, row)],
        kind or model.kind,
    ))


def batch(model, row, kind):
    return outcome(lambda: model.predict(Dataset([[v] for v in row], None), kind)[0])


def bad_values(spec, cal):
    """Values the feature rejects: missing without a policy (NaN text is
    missing only to a continuous feature), text that is no number, an
    unknown category without an OTHER bucket."""
    out = [] if spec.missing is not MissingPolicy.NONE else [None, math.nan]
    if spec.kind is FeatureKind.CONTINUOUS:
        out += ["abc", "1.5x"] + (["nan"] if out else [])
    elif cal.other_index is None:
        out += ["never seen", OTHER_CATEGORY, 0.0, "nan"]
    return out


class TestCompiledRowProperty:
    @settings(max_examples=120, deadline=None)
    @given(compiled_models())
    def test_predict_row_equals_predict_and_the_scalar_oracle(self, drawn):
        model, rows, kind = drawn
        for row in rows:
            got = outcome(lambda: model.predict_row(row, kind))
            assert isinstance(got, str), got
            assert got == batch(model, row, kind) == oracle(model, row, kind)

    @settings(max_examples=60, deadline=None)
    @given(compiled_models(), st.data())
    def test_bad_values_raise_the_scalar_error(self, drawn, data):
        model, rows, kind = drawn
        row = rows[0]
        for d, (spec, cal) in enumerate(zip(model.specs, model.calibrators.calibrators)):
            for bad in bad_values(spec, cal):
                changed = row[:d] + [bad] + row[d + 1 :]
                got = outcome(lambda: model.predict_row(changed, kind))
                assert got[0] == "DataError", got
                assert got == batch(model, changed, kind) == oracle(model, changed, kind)
        D = len(row)
        for wrong in (row + [0.5], row[:-1], row + ["junk", None]):
            assert outcome(lambda: model.predict_row(wrong, kind)) == (
                "DataError", f"got {len(wrong)} values for a model with {D} features"
            )


def unit_model(sizes, kind, seed=0):
    rng = np.random.default_rng(seed)
    specs = [FeatureSpec(f"x{d}", size=m, bounds=(0.0, 1.0)) for d, m in enumerate(sizes)]
    theta = rng.standard_normal(LatticeShape(sizes).num_parameters)
    return Model(CalibratorSet.fit(specs, [rng.random(8) for _ in specs]), theta, kind)


class TestSharing:
    def test_equal_layouts_share_one_compiled_function(self):
        specs = [
            FeatureSpec("x", keypoints=4, missing=MissingPolicy.CALIBRATED),
            FeatureSpec("c", kind=FeatureKind.CATEGORICAL, allow_unseen=True),
        ]
        rng = np.random.default_rng(3)
        one = CalibratorSet.fit(specs, [rng.random(20), list(rng.choice(CATEGORIES, 20))])
        two = CalibratorSet.fit(specs, [rng.random(20) * 5.0, list(rng.choice(["p", "q"], 20))])
        assert layout_of(one) == layout_of(two)
        assert one._calibrate_row.__code__ is two._calibrate_row.__code__
        assert closure(one._calibrate_row)["K0"] != closure(two._calibrate_row)["K0"]
        plain = CalibratorSet.fit(specs[:1] + [replace(specs[1], allow_unseen=False)],
                                  [rng.random(20), list(rng.choice(CATEGORIES, 20))])
        assert plain._calibrate_row.__code__ is not one._calibrate_row.__code__

    @pytest.mark.parametrize("kind", list(InterpolationKind))
    def test_a_large_one_cell_multilinear_plan_holds_no_list(self, kind):
        model = unit_model([2] * 10, kind)
        model.predict_row([0.5] * 10)
        plan = model._row_plan
        held = [*vars(plan).values(), *closure(plan._multilinear or plan._simplex).values()]
        lists = [v for v in held if isinstance(v, list) and any(isinstance(e, float) for e in v)]
        if kind is InterpolationKind.MULTILINEAR:
            assert plan._simplex is None and lists == []
        else:
            # the simplex chain reads theta's list; no multilinear kernel is bound
            assert plan._multilinear is None and lists == [model.theta.tolist()]

    def test_compiling_waits_for_the_first_row(self, tmp_path):
        model = unit_model([2] * 3, InterpolationKind.SIMPLEX)
        model.save(tmp_path / "m.json")
        loaded = Model.load(tmp_path / "m.json")
        assert "_row_plan" not in vars(loaded)
        assert "_calibrate_row" not in vars(loaded.calibrators)


def _calls(tree, names):
    """(enclosing function, called name) of every call of ``names`` in ``tree``."""
    out = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else where
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name) and child.func.id in names:
                out.append((where, child.func.id))
            visit(child, inner)

    visit(tree, None)
    return out


class TestGeneratedSource:
    def test_only_the_row_generators_compile_code(self):
        compiles, callers = [], []
        for path in sorted(SRC.glob("*.py")):
            tree = ast.parse(path.read_text())
            compiles += [(path.name, *c) for c in _calls(tree, {"exec", "compile", "eval"})]
            callers += [(path.name, where) for where, _ in _calls(tree, {"_generated"})]
        assert sorted(compiles) == [
            ("interpolation.py", "_generated", "compile"),
            ("interpolation.py", "_generated", "exec"),
        ]
        assert sorted(callers) == [
            ("calibrators.py", "_row_calibration"),
            ("interpolation.py", "_row_kernel"),
        ]

    @pytest.mark.parametrize("sizes", [[3, 2], [2] * BIG_D, [2] * (BIG_D - 1) + [3]])
    def test_no_name_or_category_reaches_a_source(self, sizes):
        odd = ['a"b', "c'd", "e\nf", "__import__('os')", "g\\", OTHER_CATEGORY]
        specs = [
            FeatureSpec(odd[0], kind=FeatureKind.CATEGORICAL, size=sizes[0], allow_unseen=True,
                        missing=MissingPolicy.CALIBRATED),
            FeatureSpec(odd[2], size=sizes[1], keypoints=3, missing=MissingPolicy.CALIBRATED),
        ] + [FeatureSpec(f"feature {d}!", size=m) for d, m in enumerate(sizes[2:])]
        rng = np.random.default_rng(1)
        columns = [list(rng.choice(odd, 40)), rng.random(40)] + [rng.random(40) for _ in sizes[2:]]
        cs = CalibratorSet.fit(specs, columns)
        shape = LatticeShape(sizes)
        model = Model(cs, rng.random(shape.num_parameters))
        for kind in InterpolationKind:
            for row in ([odd[3], 0.5], [odd[1], None], [OTHER_CATEGORY, "nan"]):
                row = row + [0.5] * (len(sizes) - 2)
                assert model.predict_row(row, kind) == model.predict(
                    Dataset([[v] for v in row], None), kind
                )[0]
        sources = [_row_calibration(layout_of(cs)).source]
        sources += [_row_kernel(shape, kind).source for kind in InterpolationKind]
        texts = odd + [c for c in cs.calibrators[0].categories] + [s.name for s in specs]
        for source in sources:
            for text in texts:
                assert text not in source
            assert "__import__" not in source
            # every literal in the source is an int, a float of an int, or a fixed word
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    assert node.value in ("values", "clip")
                elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                    assert node.value == int(node.value)

    def test_sources_of_bound_functions(self):
        # a set's bound function runs its layout's code, a plan's kernel its shape's
        model = unit_model([3, 2, 2], InterpolationKind.SIMPLEX)
        model.predict_row([0.5, 0.5, 0.5])
        bind = _row_calibration(layout_of(model.calibrators))
        assert model.calibrators._calibrate_row.__code__.co_filename == "<row calibration>"
        assert "def calibrate_row(row):" in bind.source
        kernel = model._row_plan._simplex
        assert kernel.__code__.co_filename == "<simplex row kernel (3, 2, 2)>"
        assert calibrators._generated is interpolation._generated
